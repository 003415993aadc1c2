"""Projective-space and multi-qubit fans, chart atlases, and the subset-product map."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from operator import and_

from .geometry import Cone, Fan, Polytope, fan_product, normal_fan
from .linalg import det_adj, dot
from .segre import ProductState, PureState, is_separable, segre_map


def projective_space_fan(n: int) -> Fan:
    """The complete fan of CP^n: the normal fan of the simplex
    conv{0, -e_1, ..., -e_n}, rays e_1, ..., e_n and -(e_1 + ... + e_n)."""
    if n < 1:
        raise ValueError("projective dimension must be at least 1")
    vertices = [tuple(-int(i == j) for i in range(n)) for j in range(n)]
    return normal_fan(Polytope(n, tuple(vertices) + ((0,) * n,)))


def _party_count(m: int) -> int:
    if not 1 <= m <= 10:
        raise ValueError("party count must be between 1 and 10")
    return m


def multiqubit_polytope(m: int) -> Polytope:
    """The cube with all 2^m sign vectors as vertices."""
    return Polytope(m, tuple(sorted(product((-1, 1), repeat=_party_count(m)))))


def multiqubit_fan(m: int) -> Fan:
    """The complete fan of (CP^1)^m: the product of m CP^1 fans, the 2^m
    orthants and all their faces (the normal fan of the cube)."""
    return fan_product([projective_space_fan(1)] * _party_count(m))


@dataclass(frozen=True)
class Chart:
    """One affine chart: a smooth cone and the sorted dual basis of it."""

    cone: Cone
    coordinates: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ChartAtlas:
    """One chart per maximal cone, with monomial transition maps.

    Each transition (i, j, T) holds the integer exponent matrix expressing
    chart j's coordinates as Laurent monomials of chart i's: coordinate c of
    chart j is the monomial with exponent row T[c] in chart i's coordinates.
    Transitions exist for facet-adjacent chart pairs; fetch one with
    ``transition(i, j)``.
    """

    fan: Fan
    charts: tuple[Chart, ...]
    transitions: tuple[tuple[int, int, tuple[tuple[int, ...], ...]], ...]

    @cached_property
    def _by_pair(self):
        return {(a, b): mat for a, b, mat in self.transitions}

    def transition(self, i: int, j: int):
        try:
            return self._by_pair[i, j]
        except KeyError:
            raise KeyError(f"no transition between charts {i} and {j}") from None


def chart_atlas(fan: Fan) -> ChartAtlas:
    """Affine charts of a complete fan with smooth simplicial maximal cones.

    Adjacency is read off the simplicial structure: two maximal cones are
    facet-adjacent exactly when they share all but one generator.  Every facet
    of a maximal cone must lie between exactly two maximal cones, one on each
    side, so overlapping and incomplete fans are rejected.  The maximal
    cones then cover space k >= 1 times, and k = 1 exactly when no other
    maximal cone holds the sum of the first one's rays.  Every subset of a
    simplicial cone's rays spans a face of it, so a cone with fewer rays is
    a face exactly when one maximal cone holds all its rays.
    """
    # the maximal cones of a complete simplicial fan are those with dim rays
    maximal = [t for t in fan.indices if len(t) >= fan.dim]
    if not maximal:
        raise ValueError("fan is not complete: it has no maximal cone")
    charts, inverses = [], []
    facet_owners: dict[tuple, list] = {}
    for pos_idx, t in enumerate(maximal):
        gens = tuple(fan.rays[i] for i in t)
        det, adj = det_adj(gens) if len(gens) == fan.dim else (0, None)
        if abs(det) != 1:
            fault = "smooth" if det else "simplicial"
            raise ValueError(f"maximal cone {gens} is not {fault}")
        # column u_i of det * adj is dual to g_i (b == sum_i dot(g_i, b) * u_i),
        # so it is the inner normal of the facet that omits g_i
        cols = [tuple(det * row[i] for row in adj) for i in range(len(gens))]
        dual = sorted(zip(cols, gens))
        charts.append(Chart(Cone(fan.dim, gens), tuple(u for u, _ in dual)))
        inverses.append([g for _, g in dual])
        for drop, (u, g) in enumerate(zip(cols, gens)):
            facet_owners.setdefault(gens[:drop] + gens[drop + 1:], []).append(
                (pos_idx, u, g))
    # bit b of holders[i] is set when maximal cone b holds ray i
    holders, every = [0] * len(fan.rays), (1 << len(maximal)) - 1
    for b, t in enumerate(maximal):
        for i in t:
            holders[i] |= 1 << b
    for t in fan.indices:
        if len(t) < fan.dim and not reduce(and_, map(holders.__getitem__, t),
                                           every):
            raise ValueError(f"cone {tuple(fan.rays[i] for i in t)} is not "
                             "a face of a maximal cone")
    adjacent = set()
    for facet, owners in facet_owners.items():
        # the second owner's extra generator lies beyond the first one's facet
        if len(owners) != 2 or dot(owners[0][1], owners[1][2]) >= 0:
            raise ValueError(f"fan is not complete: facet {list(facet)} does "
                             "not lie between two maximal cones on opposite sides")
        (i, _, _), (j, _, _) = owners
        adjacent.update({(i, j), (j, i)})
    # an interior point of the first cone, in no other cone of a fan
    inner = tuple(map(sum, zip(*charts[0].cone.generators)))
    covers = sum(all(dot(u, inner) >= 0 for u in ch.coordinates) for ch in charts)
    if covers != 1:
        raise ValueError(f"maximal cones overlap: {covers} of them hold {inner}")
    positions = [{g: c for c, g in enumerate(gens)} for gens in inverses]
    transitions = [(i, j, _transition(inverses[i], positions[j],
                                      charts[j].coordinates))
                   for i, j in sorted(adjacent)]
    return ChartAtlas(fan, tuple(charts), tuple(transitions))


def _transition(gens, positions, coordinates):
    """Entry (c, k) is dot(gens[k], coordinates[c]).  A generator shared with
    the other chart has the unit column at its position in that chart's dual
    basis; only the one generator beyond it needs dot products."""
    rows = [[0] * len(gens) for _ in coordinates]
    for k, g in enumerate(gens):
        if g in positions:
            rows[positions[g]][k] = 1
        else:
            for row, u in zip(rows, coordinates):
                row[k] = dot(g, u)
    return tuple(map(tuple, rows))


def atlas_product(atlases) -> ChartAtlas:
    """The atlas of the product of the atlases' fans; it equals
    ``chart_atlas`` of ``fan_product`` of those fans, and decides no cone.

    A chart is one tuple of factor charts, with their generators and dual
    bases in the factors' coordinate blocks, sorted.  Two charts are
    adjacent when they differ in one factor whose charts are adjacent.  A
    coordinate of another factor is one of the first chart's, so its row is
    a unit row; the changed factor's rows are that factor's transition,
    spread over the columns where its coordinates sort.
    """
    atlases = list(atlases)
    fan = fan_product([a.fan for a in atlases])
    dim, start, factors = fan.dim, 0, []
    for f, atlas in enumerate(atlases):
        pad = (0,) * (dim - start - atlas.fan.dim)
        factors.append([([(0,) * start + g + pad for g in ch.cone.generators],
                         [((0,) * start + u + pad, f, k)
                          for k, u in enumerate(ch.coordinates)])
                        for ch in atlas.charts])
        start += atlas.fan.dim
    # per chart: generators, (coordinate, factor, index in the factor's
    # chart) in coordinate order, factor charts, and each factor
    # coordinate's position
    charts = []
    for picks in product(*(range(len(a.charts)) for a in atlases)):
        chosen = [factor[p] for factor, p in zip(factors, picks)]
        duals = sorted(c for _, cs in chosen for c in cs)
        places = [[0] * len(cs) for _, cs in chosen]
        for place, (_, f, k) in enumerate(duals):
            places[f][k] = place
        charts.append((tuple(sorted(g for gs, _ in chosen for g in gs)),
                       duals, picks, places))
    charts.sort()
    number = {picks: i for i, (_, _, picks, _) in enumerate(charts)}
    leaving = [[[(b, mat) for a, b, mat in atlas.transitions if a == i]
                for i in range(len(atlas.charts))] for atlas in atlases]
    unit = [tuple(int(r == c) for c in range(dim)) for r in range(dim)]
    transitions = []
    for i, (_, _, picks, places) in enumerate(charts):
        for f, pick in enumerate(picks):
            for b, mat in leaving[f][pick]:
                j = number[picks[:f] + (b,) + picks[f + 1:]]
                transitions.append((i, j, tuple(
                    unit[places[g][k]] if g != f
                    else _spread(mat[k], places[f], dim)
                    for _, g, k in charts[j][1])))
    transitions.sort()
    return ChartAtlas(fan, tuple(
        Chart(Cone(dim, gens), tuple(u for u, _, _ in duals))
        for gens, duals, _, _ in charts), tuple(transitions))


def _spread(row, columns, dim):
    """The row of length dim with row[k] at columns[k] and 0 elsewhere."""
    out = [0] * dim
    for c, x in zip(columns, row):
        out[c] = x
    return tuple(out)


def multiqubit_atlas(m: int) -> ChartAtlas:
    """The chart atlas of (CP^1)^m: the product of m CP^1 atlases."""
    cp1 = chart_atlas(projective_space_fan(1))
    return atlas_product([cp1] * _party_count(m))


def parameterization(m: int) -> tuple[tuple[int, ...], ...]:
    """The 2^m subset-product exponent vectors of {0,1}^m, lexicographic.

    Amplitude index (k_1,...,k_m) carries the monomial prod_j z_j^(k_j); the
    first exponent is the constant monomial, the last the full product.
    """
    return tuple(product((0, 1), repeat=_party_count(m)))


def parameterization_image(z_point) -> PureState:
    """The amplitude tensor of the parameterization at a torus point: the
    Segre map of (1, z_j), one party per coordinate."""
    return segre_map(ProductState([(1, zj) for zj in z_point]))


def verify_parameterization(m: int, z_point) -> bool:
    """True iff the image tensor satisfies every canonical minor exactly."""
    z = tuple(z_point)
    if any(not zj for zj in z):
        raise ValueError("all torus coordinates must be nonzero")
    if len(z) != _party_count(m):
        raise ValueError("expected one coordinate per party")
    return is_separable(parameterization_image(z), 0).separable
