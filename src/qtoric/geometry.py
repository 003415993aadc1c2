"""Exact convex geometry over the integer lattice: cones, polytopes, fans.

All objects are immutable and canonicalised, so equality of canonical forms
is plain ``==``.  Cone generators and polytope vertices are tuples of Python
ints (arbitrary precision); linear programs and ranks run on the
fraction-free integer elimination of ``linalg``, so no fractions arise there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .linalg import (dot, nonneg_combination, primitive, rank_int,
                     vector_gcd)


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
            if vector_gcd(g) != 1:
                raise ValueError(f"generator {g} is not primitive")
        if list(self.generators) != sorted(set(self.generators)):
            raise ValueError("generators must be sorted and duplicate-free")

    @property
    def rank(self) -> int:
        """Linear dimension of the cone."""
        return rank_int(self.generators)

    def is_zero(self) -> bool:
        return not self.generators


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

    @property
    def rank(self) -> int:
        """Dimension of the affine hull."""
        v0 = self.vertices[0]
        diffs = [tuple(a - b for a, b in zip(v, v0)) for v in self.vertices[1:]]
        return rank_int(diffs)


@dataclass(frozen=True)
class Face:
    """A face of a cone or polytope, as indices into the parent's list."""

    of: Cone | Polytope
    indices: tuple[int, ...]
    dim: int


@dataclass(frozen=True)
class Fan:
    """A finite collection of cones, canonically sorted.

    Face closure and pairwise compatibility are properties of the trusted
    constructors (:func:`normal_fan`, :func:`fan_from_maximal`); use
    :func:`validate_fan` to check them explicitly.
    """

    dim: int
    cones: tuple[Cone, ...]

    def __post_init__(self):
        for c in self.cones:
            if c.dim != self.dim:
                raise ValueError("cone dimension mismatch in fan")
        key = [c.generators for c in self.cones]
        if key != sorted(set(key)):
            raise ValueError("fan cones must be sorted and duplicate-free")

    def maximal_cones(self) -> tuple[Cone, ...]:
        """Cones of maximal linear dimension (the full cones of a complete fan)."""
        if not self.cones:
            return ()
        top = max(c.rank for c in self.cones)
        return tuple(c for c in self.cones if c.rank == top)


def zero_cone(dim: int) -> Cone:
    return Cone(dim, ())


def _minimal_generators(vectors, dim):
    """Greedy removal of generators expressible as nonnegative combinations."""
    gens = sorted(set(primitive(v) for v in vectors if any(x != 0 for x in v)))
    if rank_int(gens) == len(gens):
        return gens
    kept = list(gens)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        if nonneg_combination(others, kept[i]) is not None:
            kept.pop(i)
        else:
            i += 1
    return kept


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
    return Cone(dim, tuple(_minimal_generators(vectors, dim)))


def cone_contains(c: Cone, point) -> bool:
    """Exact membership of a rational point in the cone."""
    point = tuple(Fraction(x) for x in point)
    if len(point) != c.dim:
        raise ValueError("point dimension mismatch")
    den = lcm(*(q.denominator for q in point))
    return nonneg_combination(c.generators,
                              tuple(int(q * den) for q in point)) is not None


def _dd_rays(dim, constraints):
    """Double description: generators of {y : h . y >= 0 for all h}."""
    rays = []
    for i in range(dim):
        e = tuple(int(i == j) for j in range(dim))
        rays.append(e)
        rays.append(tuple(-x for x in e))
    for h in constraints:
        pos, zero, neg = [], [], []
        for r in rays:
            s = dot(h, r)
            if s > 0:
                pos.append((r, s))
            elif s < 0:
                neg.append((r, s))
            else:
                zero.append(r)
        new = [r for r, _ in pos] + zero
        for (p, sp), (q, sq) in ((a, b) for a in pos for b in neg):
            comb = tuple(sp * x - sq * y for x, y in zip(q, p))
            if any(x != 0 for x in comb):
                new.append(primitive(comb))
        rays = _minimal_generators(new, dim)
    return sorted(rays)


def dual_cone(c: Cone) -> Cone:
    """The cone {y : <x, y> >= 0 for every x in c}.

    Double dual returns the original canonical form for strongly convex
    cones (extreme rays are unique); cones containing lines admit several
    minimal generating sets, so only set-equality of the described cones is
    guaranteed there.
    """
    return Cone(c.dim, tuple(_dd_rays(c.dim, c.generators)))


def is_strongly_convex(c: Cone) -> bool:
    """True iff c contains no line, i.e. c intersect -c is {0}.

    c contains a line exactly when 0 is a nonnegative combination of its
    generators with coefficients summing to 1: one feasibility problem.
    """
    return nonneg_combination([g + (1,) for g in c.generators],
                              (0,) * c.dim + (1,)) is None


def is_simplicial(c: Cone) -> bool:
    """True iff the minimal generators are linearly independent."""
    return rank_int(c.generators) == len(c.generators)


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
    lifted = _minimal_generators([(1,) + p for p in points], dim + 1)
    return Polytope(dim, tuple(v[1:] for v in lifted))


def _homog_dual_rays(p: Polytope):
    """Generators of {(c, y) : c + <y, v> >= 0 for every vertex v}."""
    constraints = [(1,) + v for v in p.vertices]
    return _dd_rays(p.dim + 1, constraints)


def polar(p: Polytope) -> Polytope:
    """The polar {y : <x, y> >= -1 for all x in p}; requires 0 interior."""
    rays = _homog_dual_rays(p)
    vertices = []
    for r in rays:
        c, y = r[0], r[1:]
        if c <= 0:
            raise ValueError("origin is not in the interior of the polytope")
        if any(x % c for x in y):
            raise ValueError("polar is not a lattice polytope")
        vertices.append(tuple(x // c for x in y))
    return Polytope(p.dim, tuple(sorted(set(vertices))))


def _facets(obj):
    """Irredundant supporting inequalities, each once, as (tight set, normal).

    The tight set indexes the generators or vertices on the hyperplane; the
    normal is primitive and points into the object.
    """
    if isinstance(obj, Cone):
        return [(frozenset(i for i, g in enumerate(obj.generators)
                           if dot(h, g) == 0), h)
                for h in dual_cone(obj).generators]
    facets = []
    for r in _homog_dual_rays(obj):
        c, y = r[0], r[1:]
        tight = frozenset(i for i, v in enumerate(obj.vertices)
                          if c + dot(y, v) == 0)
        if tight:  # nothing is tight when y == 0
            facets.append((tight, primitive(y)))
    return facets


def _face_dim(obj, indices) -> int:
    if isinstance(obj, Cone):
        return rank_int([obj.generators[i] for i in indices])
    pts = [obj.vertices[i] for i in indices]
    v0 = pts[0]
    return rank_int([tuple(a - b for a, b in zip(v, v0)) for v in pts[1:]])


def faces(obj) -> tuple[Face, ...]:
    """All faces of a cone or polytope, including the improper face.

    For a strongly convex cone the apex {0} appears with an empty index set;
    the empty face of a polytope is not enumerated.
    """
    return _face_lattice(obj, _facets(obj))


def _face_lattice(obj, facets) -> tuple[Face, ...]:
    """The faces of obj: intersections of the facets' tight index sets."""
    points = obj.generators if isinstance(obj, Cone) else obj.vertices
    universe = frozenset(range(len(points)))
    family = {universe}
    queue = [universe]
    while queue:
        s = queue.pop()
        for tight, _ in facets:
            t = s & tight
            if t not in family:
                if isinstance(obj, Cone) or t:
                    family.add(t)
                    queue.append(t)
    result = []
    for s in family:
        idx = tuple(sorted(s))
        d = _face_dim(obj, idx) if idx else 0
        result.append(Face(obj, idx, d))
    result.sort(key=lambda f: (f.dim, f.indices))
    return tuple(result)


def face_cone(face: Face) -> Cone:
    """A face of a cone, as a cone (faces are generated by the tight generators)."""
    if not isinstance(face.of, Cone):
        raise ValueError("face_cone expects a face of a cone")
    gens = [face.of.generators[i] for i in face.indices]
    return Cone(face.of.dim, tuple(sorted(gens)))


def make_fan(cones, dim: int | None = None) -> Fan:
    """Canonicalise a cone collection into a Fan (sort and deduplicate)."""
    cones = list(cones)
    if dim is None:
        if not cones:
            raise ValueError("ambient dimension required for an empty fan")
        dim = cones[0].dim
    uniq = {c.generators: c for c in cones}
    return Fan(dim, tuple(uniq[k] for k in sorted(uniq)))


def fan_from_maximal(maximal) -> Fan:
    """The fan generated by maximal cones together with all their faces."""
    cones = []
    for c in maximal:
        for f in faces(c):
            cones.append(face_cone(f))
    return make_fan(cones, maximal[0].dim if maximal else None)


def normal_fan(p: Polytope) -> Fan:
    """Fan of outer normal cones N(F) over the nonempty faces F of p."""
    if p.rank != p.dim:
        raise ValueError("polytope is not full-dimensional")
    facets = _facets(p)
    cones = []
    for f in _face_lattice(p, facets):
        # the outer normals of the facets containing F are distinct and are
        # the extreme rays of N(F): no redundancy check is needed
        fs = frozenset(f.indices)
        outer = sorted(tuple(-x for x in inner) for tight, inner in facets
                       if fs <= tight)
        cones.append(Cone(p.dim, tuple(outer)))
    return make_fan(cones, p.dim)


def intersect_cones(a: Cone, b: Cone) -> Cone:
    """Intersection of two cones, via their halfspace descriptions."""
    if a.dim != b.dim:
        raise ValueError("cone dimension mismatch")
    constraints = list(dual_cone(a).generators) + list(dual_cone(b).generators)
    return Cone(a.dim, tuple(_dd_rays(a.dim, constraints)))


def validate_fan(fan: Fan) -> None:
    """Check fan invariants exactly; raises ValueError on violation.

    Every face of every cone must be in the fan, and the intersection of any
    two cones must be a face of each.  Intended for tests on small fans.
    """
    present = {c.generators for c in fan.cones}
    face_sets = {}
    for c in fan.cones:
        fcs = {face_cone(f).generators for f in faces(c)}
        face_sets[c.generators] = fcs
        missing = fcs - present
        if missing:
            raise ValueError(f"fan is not closed under faces: missing {missing}")
    for a, b in combinations(fan.cones, 2):
        inter = intersect_cones(a, b)
        if inter.generators not in face_sets[a.generators] or \
                inter.generators not in face_sets[b.generators]:
            raise ValueError(
                f"intersection of {a.generators} and {b.generators} "
                "is not a common face")
