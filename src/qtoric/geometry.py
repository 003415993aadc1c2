"""Exact convex geometry over the integer lattice: cones, polytopes, fans.

All objects are immutable and canonicalised, so equality of canonical forms
is plain ``==``.  Cone generators and polytope vertices are tuples of Python
ints (arbitrary precision); ranks and determinants run on the fraction-free
integer elimination of ``linalg``, so no fractions arise there, and nothing
solves a linear program.

Duals, polars, facets, face lattices, normal fans, membership and strong
convexity read one double description per object, ``halfspaces``, computed
at most once and kept from the hull that ran it.  When its constraints
span Q^n the cone is pointed, and the combinatorial adjacency test on the
rays' zero sets builds its extreme rays; the zero sets are the facets' tight
sets.  A cone with lines is written in one canonical form: plus and minus
the Hermite basis of its lineality space, then the extreme rays of its part
orthogonal to that space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from math import gcd
from operator import and_

from .linalg import (det_adj, dot, orthogonal_lattice, pivot_columns,
                     primitive, rank_int)


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone pos{generators} in Z^dim.

    Construct through :func:`pos_hull`, which removes redundant generators;
    direct construction assumes the generator list is already canonical
    (primitive, sorted, duplicate-free, minimal).
    """

    dim: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be positive")
        for g in self.generators:
            if len(g) != self.dim:
                raise ValueError("generator dimension mismatch")
            if gcd(*g) != 1:
                raise ValueError(f"generator {g} is not primitive")
        if list(self.generators) != sorted(set(self.generators)):
            raise ValueError("generators must be sorted and duplicate-free")

    @cached_property
    def halfspaces(self):
        """Sorted (h, zero set) pairs of _dd_rays: the h generate the dual,
        a zero set is the bitmask of the generators g with h . g == 0."""
        return _dd_rays(self.dim, self.generators)


@dataclass(frozen=True)
class Polytope:
    """Lattice polytope conv{vertices} in Z^dim.

    Construct through :func:`polytope_hull`, which reduces a point list to
    its extreme points; direct construction assumes the vertex list is
    already canonical.
    """

    dim: int
    vertices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be positive")
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")
        for v in self.vertices:
            if len(v) != self.dim:
                raise ValueError("vertex dimension mismatch")
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("vertices must be sorted and duplicate-free")

    @cached_property
    def halfspaces(self):
        """The halfspaces of the cone over {1} x vertices: (c, y) stands for
        c + <y, x> >= 0, its zero set the bitmask of the vertices on it."""
        return _dd_rays(self.dim + 1, [(1,) + v for v in self.vertices])


@dataclass(frozen=True)
class Face:
    """A face of a cone or polytope, as indices into the parent's list."""

    of: Cone | Polytope
    indices: tuple[int, ...]
    dim: int


@dataclass(frozen=True)
class Fan:
    """A finite collection of cones as a ray table: the distinct generators of
    the cones, sorted, and one sorted tuple of ray indices per cone, sorted.

    Face closure and pairwise compatibility are properties of the trusted
    constructors, :func:`normal_fan` and :func:`fan_product`; :func:`make_fan`
    is not one of them.  The library checks a smooth complete fan through
    :func:`qtoric.qubit.chart_atlas`, whose charts and transitions need it.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    indices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if any(len(r) != self.dim for r in self.rays):
            raise ValueError("ray dimension mismatch in fan")
        if any(a >= b for a, b in zip(self.rays, self.rays[1:])):
            raise ValueError("fan rays must be sorted and duplicate-free")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])) or \
                any(a >= b for t in self.indices for a, b in zip(t, t[1:])):
            raise ValueError("fan cones must be sorted and duplicate-free")
        if set().union(*self.indices) != set(range(len(self.rays))):
            raise ValueError("ray index out of range, or a ray on no cone")

    def _cone(self, t) -> Cone:
        return Cone(self.dim, tuple(self.rays[i] for i in t))

    @cached_property
    def cones(self) -> tuple[Cone, ...]:
        return tuple(map(self._cone, self.indices))

    def maximal_cones(self) -> tuple[Cone, ...]:
        """Cones of maximal linear dimension (the full cones of a complete fan);
        a rank is at most the ray count, so only the longest cones are ranked."""
        ranks, top = {}, 0
        for t in sorted(self.indices, key=len, reverse=True):
            if len(t) < top:
                break
            ranks[t] = rank_int([self.rays[i] for i in t])
            top = max(top, ranks[t])
        return tuple(self._cone(t) for t in sorted(ranks) if ranks[t] == top)


def _minimal_generators(vectors, dim):
    """(sorted minimal generators, halfspaces or None) of pos{vectors}.

    If the facets of the cone meet in the apex (it is pointed), g_i is
    extreme exactly when the facets through g_i meet in {g_i}; re-indexed
    onto the kept g_i, those facets are the cone's own halfspaces.  A cone
    with lines is its own double dual, which gives its canonical form.
    """
    gens = sorted(set(primitive(v) for v in vectors if any(x != 0 for x in v)))
    # at most dim generators are minimal when independent
    if len(gens) <= dim and rank_int(gens) == len(gens):
        return gens, None
    rays = _dd_rays(dim, gens)
    every = (1 << len(gens)) - 1
    if reduce(and_, (z for _, z in rays), every):
        return [r for r, _ in _dd_rays(dim, [h for h, _ in rays])], None
    keep = [i for i in range(len(gens))
            if reduce(and_, (z for _, z in rays if z >> i & 1), every) == 1 << i]
    if len(keep) < len(gens):
        rays = [(h, sum(1 << t for t, i in enumerate(keep) if z >> i & 1))
                for h, z in rays]
    return [gens[i] for i in keep], rays


def pos_hull(vectors, dim: int | None = None) -> Cone:
    """Positive hull of lattice vectors, with redundant generators removed."""
    vectors = [tuple(v) for v in vectors]
    if dim is None:
        if not vectors:
            raise ValueError("ambient dimension required for an empty hull")
        dim = len(vectors[0])
    for v in vectors:
        if len(v) != dim:
            raise ValueError("dimension mismatch among input vectors")
    gens, halfspaces = _minimal_generators(vectors, dim)
    cone = Cone(dim, tuple(gens))
    if halfspaces is not None:
        cone.__dict__["halfspaces"] = halfspaces
    return cone


def _adjacency_dd(dim, constraints):
    """Double description of {y : h . y >= 0 for all h} by adjacency tests.

    Needs constraints of rank dim, so the cone is pointed and its extreme
    rays are unique; returns None otherwise.  Starts from the simplicial cone
    of the first dim independent constraints, whose rays are the columns of
    sign(det) * adj, and adds the others one at a time.  Each ray carries its
    zero set, an int bitmask over constraint indices; a pos/neg pair is
    combined only when adjacent, i.e. when no third ray's zero set contains
    their common one (Motzkin et al. 1953; Fukuda & Prodon 1996).  Returns
    unsorted (ray, zero set) pairs.
    """
    basis = pivot_columns(list(zip(*constraints)))
    if len(basis) < dim:
        return None
    det, adj = det_adj([constraints[i] for i in basis])
    sign = 1 if det > 0 else -1
    every = sum(1 << i for i in basis)
    rays = [(primitive([sign * row[j] for row in adj]), every & ~(1 << i))
            for j, i in enumerate(basis)]
    chosen = set(basis)
    for i, h in enumerate(constraints):
        if i in chosen:
            continue
        bit = 1 << i
        pos, neg, kept = [], [], []
        for r, z in rays:
            s = dot(h, r)
            if s > 0:
                pos.append((r, z, s))
                kept.append((r, z))
            elif s < 0:
                neg.append((r, z, s))
            else:
                kept.append((r, z | bit))
        zero_sets = [z for _, z in rays]
        for p, zp, sp in pos:
            for q, zq, sq in neg:
                # p and q span a 2-face iff they are the only rays on the
                # smallest face holding both; its constraints have rank dim - 2
                common = zp & zq
                if common.bit_count() >= dim - 2 and list(map(
                        common.__and__, zero_sets)).count(common) == 2:
                    comb = primitive([sp * x - sq * y for x, y in zip(q, p)])
                    kept.append((comb, common | bit))
        rays = kept
    return rays


def _dd_rays(dim, constraints):
    """Generators of {y : h . y >= 0 for all h}, sorted, with zero sets.

    Each generator comes as (ray, zero set), the zero set an int bitmask of
    the constraints h with h . ray == 0.  Constraints of rank < dim leave
    the lines L = {y : h . y == 0 for all h}: plus and minus the Hermite
    basis of L & Z^dim, tight everywhere, and the extreme rays of the part
    in the orthogonal complement of L, where the basis vectors are added as
    equations so the constraints span.
    """
    rays = _adjacency_dd(dim, constraints)
    if rays is None:
        lines = orthogonal_lattice(constraints, dim)
        lines += [tuple(-x for x in b) for b in lines]
        every = (1 << len(constraints)) - 1
        rays = [(r, z & every)
                for r, z in _adjacency_dd(dim, list(constraints) + lines)]
        rays += [(b, every) for b in lines]
    return sorted(rays)


def dual_cone(c: Cone) -> Cone:
    """The cone {y : <x, y> >= 0 for every x in c}.

    For a full-dimensional c the dual is pointed and its generators are its
    extreme rays.  Otherwise the dual contains the lines orthogonal to c and
    comes in the canonical form for cones with lines.  Either way the double
    dual of a canonical cone is the same cone, ``==`` included.
    """
    return Cone(c.dim, tuple(h for h, _ in c.halfspaces))


def is_strongly_convex(c: Cone) -> bool:
    """True iff c contains no line, i.e. c intersect -c is {0}.

    The facets of c meet in its lineality space, which holds a generator
    unless it is {0}.
    """
    return reduce(and_, (z for _, z in c.halfspaces),
                  (1 << len(c.generators)) - 1) == 0


def polytope_hull(points, dim: int | None = None) -> Polytope:
    """Convex hull of lattice points, reduced to its extreme points."""
    points = [tuple(p) for p in points]
    if dim is None:
        if not points:
            raise ValueError("ambient dimension required for an empty hull")
        dim = len(points[0])
    for p in points:
        if len(p) != dim:
            raise ValueError("dimension mismatch among input points")
    if not points:
        raise ValueError("polytope needs at least one point")
    # the extreme points are the extreme rays of the cone over {1} x points
    lifted, halfspaces = _minimal_generators([(1,) + p for p in points], dim + 1)
    polytope = Polytope(dim, tuple(v[1:] for v in lifted))
    if halfspaces is not None:
        polytope.__dict__["halfspaces"] = halfspaces
    return polytope


def polar(p: Polytope) -> Polytope:
    """The polar {y : <x, y> >= -1 for all x in p}; requires 0 interior."""
    vertices = []
    for r, _ in p.halfspaces:
        c, y = r[0], r[1:]
        if c <= 0:
            raise ValueError("origin is not in the interior of the polytope")
        if any(x % c for x in y):
            raise ValueError("polar is not a lattice polytope")
        vertices.append(tuple(x // c for x in y))
    return Polytope(p.dim, tuple(sorted(set(vertices))))


def _indices(mask) -> tuple[int, ...]:
    """The set bits of mask, lowest first, one step per bit."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def faces(obj) -> tuple[Face, ...]:
    """All faces of a cone or polytope, including the improper face.

    A polytope has the faces of the cone over {1} x vertices, one dimension
    lower, apex excluded; a strongly convex cone's apex {0} has no indices.
    On a simple polytope each face is read once off the star of its lowest
    vertex, as the AND of a subset S of the facets there, of dimension
    dim - |S|: vertices x 2^dim subsets at most.  Every cone and every
    other polytope runs the closure of intersections with the facets, at
    faces x facets; dim F is one more than the largest proper face F & T
    over the facets T, and only a face with none (the apex, the lineality
    space) takes a rank.
    """
    lift = isinstance(obj, Polytope)
    gens = [(1,) + v for v in obj.vertices] if lift else obj.generators
    tights = [z for _, z in obj.halfspaces]
    stars = _vertex_stars(len(gens), tights, obj.dim) if lift else None
    if stars is None:
        dims = {}
        for s in sorted(_face_family(len(gens), tights), key=int.bit_count):
            below = [dims[t] for t in (s & tight for tight in tights)
                     if t in dims]
            dims[s] = (1 + max(below) if below
                       else rank_int([gens[i] for i in _indices(s)]))
        found = [(s, d - lift) for s, d in dims.items() if d >= lift]
    else:
        every, found = (1 << len(gens)) - 1, []
        for at, down in stars:
            star = [(reduce(and_, (tights[j] for j in down), every),
                     obj.dim - len(down))]
            for j in at:
                if j not in down:
                    t = tights[j]
                    star += [(s & t, d - 1) for s, d in star]
            found += star
    result = [Face(obj, _indices(s), d) for s, d in found]
    result.sort(key=lambda f: (f.dim, f.indices))
    return tuple(result)


def _vertex_stars(n, tights, dim):
    """Per vertex of a simple polytope in Z^dim, the facets through it and
    those of them whose edge leads to a lower vertex, as facet indices;
    None for any other polytope.

    The polytope on n vertices, with its halfspaces' tight sets, is simple
    when each vertex v lies on exactly dim facets.  Each subset S of them
    then meets in a face of dimension dim - |S|, and leaving out one facet
    leaves an edge from v.  A face whose lowest vertex is v holds no edge
    leading lower, so its S holds every facet of those edges; as the vertex
    order is lexicographic, a linear functional's, every such S has v
    lowest (Ziegler, Lectures on Polytopes, 1995, sections 2.5 and 8.2).  A
    k-polytope, k < dim, fails at its first vertex: at least k facets and
    2(dim - k) lineality rows pass through it.  The test stops at the first
    vertex on another number of facets.
    """
    stars = []
    for i in range(n):
        bit = 1 << i
        at = [j for j, t in enumerate(tights) if t & bit]
        if len(at) != dim:
            return None
        stars.append(at)
    every = (1 << n) - 1
    for i, at in enumerate(stars):
        ts = [tights[j] for j in at]
        head = list(accumulate(ts, and_, initial=every))
        tail = list(accumulate(reversed(ts), and_, initial=every))[::-1]
        below = (1 << i) - 1
        stars[i] = at, [j for k, j in enumerate(at)
                         if head[k] & tail[k + 1] & below]
    return stars


def _face_family(n, tights) -> set[int]:
    """The faces of a cone on n generators as bitmasks: intersections of the
    facets' tight sets."""
    universe = (1 << n) - 1
    family = {universe}
    queue = [universe]
    while queue:
        s = queue.pop()
        for tight in tights:
            t = s & tight
            if t not in family:
                family.add(t)
                queue.append(t)
    return family


def make_fan(cones, dim: int) -> Fan:
    """The rays and distinct cones of a cone collection in Z^dim."""
    cones = list(cones)
    if any(c.dim != dim for c in cones):
        raise ValueError("cone dimension mismatch in fan")
    rays = sorted({g for c in cones for g in c.generators})
    index = {g: i for i, g in enumerate(rays)}
    return Fan(dim, tuple(rays), tuple(sorted(
        {tuple(index[g] for g in c.generators) for c in cones})))


def normal_fan(p: Polytope) -> Fan:
    """Fan of outer normal cones N(F) over the nonempty faces F of p.

    N(F) is spanned by the outer normals of the facets through F.  On a
    simple polytope these are read off the star of F's lowest vertex, every
    subset of its dim facets that holds the facets of its lower edges:
    vertices x 2^dim subsets at most.  On any other polytope, the closure
    of intersections with the facets lists the faces, at faces x facets.
    """
    # p is lower-dimensional iff the dual has lines, tight on every vertex
    if any(z.bit_count() == len(p.vertices) for _, z in p.halfspaces):
        raise ValueError("polytope is not full-dimensional")
    # a ray (c, y) is the facet c + <y, x> >= 0
    rays, tights = zip(*sorted((tuple(-x for x in primitive(r[1:])), z)
                               for r, z in p.halfspaces))
    # the outer normals of the facets containing F are distinct and are the
    # extreme rays of N(F): no redundancy check is needed
    stars = _vertex_stars(len(p.vertices), tights, p.dim)
    if stars is None:
        cones = [tuple(i for i, t in enumerate(tights) if s & t == s)
                 for s in _face_family(len(p.vertices), tights) if s]
    else:
        # built from the highest facet index down, so each tuple comes sorted
        cones = []
        for at, down in stars:
            star = [()]
            for j in reversed(at):
                grown = [(j,) + c for c in star]
                star = grown if j in down else star + grown
            cones += star
    return Fan(p.dim, rays, tuple(sorted(cones)))


def fan_product(fans) -> Fan:
    """The product fan in Z^(d_1) x ... x Z^(d_k): one cone per tuple of
    factor cones, generated by their generators, each in its factor's
    coordinate block (Cox, Little and Schenck, Toric Varieties, section
    3.1).  The factors' cones must be pointed, so that those generators are
    the product cone's extreme rays."""
    fans = list(fans)
    if not fans:
        raise ValueError("a fan product needs at least one factor")
    dim, start, blocks = sum(f.dim for f in fans), 0, []
    for f in fans:
        pad = (0,) * (dim - start - f.dim)
        blocks.append([(0,) * start + r + pad for r in f.rays])
        start += f.dim
    rays = sorted(r for block in blocks for r in block)
    index = {r: i for i, r in enumerate(rays)}
    cones = [()]
    for f, block in zip(fans, blocks):
        ids = [index[r] for r in block]
        local = [tuple(ids[i] for i in t) for t in f.indices]
        cones = [c + t for c in cones for t in local]
    return Fan(dim, tuple(rays), tuple(sorted(tuple(sorted(c)) for c in cones)))
