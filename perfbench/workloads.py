"""Seeded operation lists for the three workloads.

A workload is a sequence of passes.  Pass p of a run draws its inputs from
``random.Random(f"{workload}:{seed}:{p}")``, so a seed fixes every input, and
every pass holds the same verbs on the same input sizes in the same order.
An operation is a CLI argument list plus a check that takes the parsed
output document and returns True only when the output is correct.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import oracles


class Op:
    __slots__ = ("kind", "argv", "check")

    def __init__(self, kind, argv, check):
        self.kind = kind
        self.argv = argv
        self.check = check


def _js(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _vecs(doc_list):
    return [tuple(int(x) for x in v) for v in doc_list]


def _unit(m, i, s=1):
    return tuple(s * int(j == i) for j in range(m))


def cube(m):
    return sorted(product((-1, 1), repeat=m))


def cross(m):
    return sorted(_unit(m, i, s) for i in range(m) for s in (1, -1))


def _fan_doc(dim, cones):
    uniq = sorted(set(tuple(sorted(c)) for c in cones))
    return {"dim": dim, "cones": [{"dim": dim, "generators": [list(g) for g in c]}
                                  for c in uniq]}


def orthant_fan(m):
    cones = []
    for k in range(m + 1):
        for axes in combinations(range(m), k):
            for signs in product((1, -1), repeat=k):
                cones.append([_unit(m, a, s) for a, s in zip(axes, signs)])
    return _fan_doc(m, cones)


def cube_face_fan(m):
    """Cones over the proper faces of the cube: the normal fan of the cross-polytope."""
    cones = [[]]
    for k in range(1, m + 1):
        for axes in combinations(range(m), k):
            for signs in product((1, -1), repeat=k):
                cones.append([v for v in cube(m)
                              if all(v[a] == s for a, s in zip(axes, signs))])
    return _fan_doc(m, cones)


def projective_fan(n):
    minus = tuple(-1 for _ in range(n))
    maximal = [[_unit(n, i) for i in range(n)]]
    for i in range(n):
        maximal.append([_unit(n, j) for j in range(n) if j != i] + [minus])
    cones = [list(s) for c in maximal for k in range(n + 1)
             for s in combinations(c, k)]
    return _fan_doc(n, cones)


def _equal(expected):
    return lambda doc: doc == expected


# ---------------------------------------------------------------- polyhedral

def _check_vertices(expected):
    exp = [list(v) for v in sorted(expected)]
    return lambda doc: doc["vertices"] == exp


def _check_polytope_faces(points):
    def check(doc):
        vertices, faces = oracles.polytope_faces(points)
        got = [(tuple(f["indices"]), f["dim"]) for f in doc["faces"]]
        return (doc["object"] == "polytope" and _vecs(doc["vertices"]) == vertices
                and got == sorted(got, key=lambda f: (f[1], f[0]))
                and len(got) == len(faces) and set(got) == faces)
    return check


def _check_cube_faces(m):
    """A face of the cube fixes the signs of some coordinates; dim = free ones."""
    vertices = cube(m)
    faces = []
    for k in range(m + 1):
        for axes in combinations(range(m), k):
            for signs in product((1, -1), repeat=k):
                idx = [i for i, v in enumerate(vertices)
                       if all(v[a] == s for a, s in zip(axes, signs))]
                faces.append({"indices": idx, "dim": m - k})
    faces.sort(key=lambda f: (f["dim"], f["indices"]))
    return _equal({"object": "polytope", "vertices": [list(v) for v in vertices],
                   "faces": faces})


def _extreme_rays(vectors):
    gens = sorted(set(oracles.primitive(v) for v in vectors))
    facets = oracles.cone_facets(gens)
    keep = []
    for i, g in enumerate(gens):
        face = set(range(len(gens)))
        for _, tight in facets:
            if i in tight:
                face &= tight
        if oracles.rank([gens[j] for j in face]) == 1:
            keep.append(g)
    return keep


def _check_cone_faces(vectors):
    def check(doc):
        gens = _extreme_rays(vectors)
        faces = oracles.cone_faces(gens)
        got = [(tuple(f["indices"]), f["dim"]) for f in doc["faces"]]
        return (doc["object"] == "cone" and _vecs(doc["generators"]) == gens
                and len(got) == len(faces) and set(got) == faces)
    return check


def _check_dual(vectors):
    def check(doc):
        return (doc["dim"] == len(vectors[0])
                and _vecs(doc["generators"]) == oracles.dual_generators(
                    _extreme_rays(vectors)))
    return check


def _check_atlas(fan_doc):
    """Charts are dual bases of the maximal cones; transitions glue coordinates."""
    def check(doc):
        if doc["fan"] != fan_doc:
            return False
        n = fan_doc["dim"]
        maximal = [_vecs(c["generators"]) for c in fan_doc["cones"]
                   if len(c["generators"]) == n]
        charts = doc["charts"]
        if [_vecs(ch["cone"]["generators"]) for ch in charts] != maximal:
            return False
        coords = [_vecs(ch["coordinates"]) for ch in charts]
        for gens, us in zip(maximal, coords):
            if us != sorted(us) or len(us) != n:
                return False
            pairing = [[oracles.dot(u, g) for g in gens] for u in us]
            if sorted(map(sorted, pairing)) != sorted(
                    sorted(int(i == j) for j in range(n)) for i in range(n)):
                return False
            if any(sum(row) != 1 for row in pairing) or \
                    any(sum(col) != 1 for col in zip(*pairing)):
                return False
        adjacent = [(i, j) for i in range(len(maximal)) for j in range(len(maximal))
                    if i != j and len(set(maximal[i]) & set(maximal[j])) == n - 1]
        if [(t["from"], t["to"]) for t in doc["transitions"]] != adjacent:
            return False
        for t in doc["transitions"]:
            src, dst = coords[t["from"]], coords[t["to"]]
            for row, target in zip(_vecs(t["matrix"]), dst):
                combo = tuple(sum(r * u[c] for r, u in zip(row, src)) for c in range(n))
                if combo != target:
                    return False
        return True
    return check


SPHERE6 = [p for p in product(range(-3, 4), repeat=4) if sum(x * x for x in p) == 6]


def _random_polytope(rng, d, n):
    """n lattice points: on the 4-d sphere |x|^2 = 6 (all extreme), else in a box."""
    while True:
        if d == 4:
            pts = rng.sample(SPHERE6, n)
        else:
            pts = list({tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)})
        if oracles.affine_dim(pts) == d:
            return [list(p) for p in pts]


def _random_cone(rng, d, n, r):
    """n vectors with positive last coordinate (so pointed), spanning Z^d."""
    while True:
        gens = [[rng.randint(-r, r) for _ in range(d - 1)] + [rng.randint(1, r)]
                for _ in range(n)]
        if oracles.rank(gens) == d:
            return gens


def polyhedral(rng):
    ops = []
    for m in (3, 4, 5):
        ops.append(Op("normal-fan", ["normal-fan", "--polytope",
                                     _js({"dim": m, "vertices": cube(m)})],
                      _equal(orthant_fan(m))))
        ops.append(Op("normal-fan", ["normal-fan", "--polytope",
                                     _js({"dim": m, "vertices": cross(m)})],
                      _equal(cube_face_fan(m))))
        ops.append(Op("polar", ["polar", "--polytope", _js({"dim": m, "vertices": cube(m)})],
                      _check_vertices(cross(m))))
        ops.append(Op("polar", ["polar", "--polytope", _js({"dim": m, "vertices": cross(m)})],
                      _check_vertices(cube(m))))
    # the 5-cube's polar and faces cost the same (one double description of
    # the cube); four of them per pass put p90 on that plateau
    for m in (3, 4, 5, 5):
        pts = [list(v) for v in cube(m)]
        rng.shuffle(pts)
        ops.append(Op("faces", ["faces", "--polytope", _js({"dim": m, "vertices": pts})],
                      _check_cube_faces(m)))
    pts = [list(v) for v in cube(5)]
    rng.shuffle(pts)
    ops.append(Op("polar", ["polar", "--polytope", _js({"dim": 5, "vertices": pts})],
                  _check_vertices(cross(5))))
    for d, n in ((3, 6), (3, 6), (3, 7), (3, 7), (4, 9), (4, 10)):
        pts = _random_polytope(rng, d, n)
        ops.append(Op("faces", ["faces", "--polytope", _js({"dim": d, "vertices": pts})],
                      _check_polytope_faces(pts)))
    for d, n in ((3, 4), (3, 5), (3, 6), (4, 5), (4, 6)) * 2:
        gens = _random_cone(rng, d, n, 3)
        ops.append(Op("faces", ["faces", "--cone", _js({"dim": d, "generators": gens})],
                      _check_cone_faces(gens)))
        gens = _random_cone(rng, d, n, 3)
        ops.append(Op("dual", ["dual", "--cone", _js({"dim": d, "generators": gens})],
                      _check_dual(gens)))
    for m in (3, 4):
        ops.append(Op("atlas", ["atlas", "--qubits", str(m)], _check_atlas(orthant_fan(m))))
    for n in (2, 3, 4):
        ops.append(Op("atlas", ["atlas", "--projective", str(n)],
                      _check_atlas(projective_fan(n))))
    for m in (3, 4, 5, 6):
        ops.append(Op("qubit-fan", ["qubit-fan", "--m", str(m)], _equal(orthant_fan(m))))
    return ops


# -------------------------------------------------------------- separability

# rational unit vectors: Pythagorean tuples over their hypotenuse
_UNIT = {2: [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25)],
         3: [(1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9)],
         4: [(1, 1, 1, 1, 2), (2, 4, 5, 6, 9), (1, 2, 2, 4, 5)]}


def _frac_str(x):
    return str(Fraction(x))


def _state_doc(shape, amps):
    """amps: index -> (re, im), exact (Fraction/int) or float parts."""
    entries = []
    for idx in sorted(amps):
        re, im = amps[idx]
        if isinstance(re, float) or isinstance(im, float):
            entries.append({"index": list(idx), "re": float(re), "im": float(im)})
        else:
            entries.append({"index": list(idx), "re": _frac_str(re), "im": _frac_str(im)})
    return {"shape": list(shape), "amplitudes": entries}


def _rand_rational(rng):
    """A nonzero rational p/q with 1 <= |p| <= 6 and q in {2, 3}."""
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 6), rng.choice((2, 3)))


def _exact_locals(rng, shape):
    """Local vectors whose entries all have nonzero real and imaginary parts."""
    return [[(_rand_rational(rng), _rand_rational(rng)) for _ in range(n)]
            for n in shape]


def _unit_locals(rng, shape):
    """Normalised exact local vectors: a Pythagorean tuple with random signs,
    times a unit complex rational, so every entry is genuinely complex."""
    out = []
    for n in shape:
        *parts, hyp = rng.choice(_UNIT[n])
        a, b, c = rng.choice(_UNIT[2])
        phase = (Fraction(a, c), Fraction(rng.choice((1, -1)) * b, c))
        out.append([oracles.cmul((Fraction(rng.choice((1, -1)) * p, hyp), 0), phase)
                    for p in parts])
    return out


def _float_locals(rng, shape):
    out = []
    for n in shape:
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        norm = math.sqrt(sum(abs(z) ** 2 for z in v))
        out.append([(z.real / norm, z.imag / norm) for z in v])
    return out


def _part(x):
    return Fraction(x) if isinstance(x, str) else x


def _witness_amps(doc):
    return oracles.tensor([[(_part(a["re"]), _part(a["im"])) for a in v]
                           for v in doc["witness"]["locals"]])


def _check_separable_exact(amps):
    def check(doc):
        return (doc["separable"] is True and doc["maxViolation"] == 0
                and doc["worstMinor"] is None and _witness_amps(doc) == amps)
    return check


def _check_separable_float(amps):
    peak = max(abs(complex(*v)) for v in amps.values())

    def check(doc):
        if doc["separable"] is not True or doc["worstMinor"] is not None:
            return False
        got = _witness_amps(doc)
        return all(abs(complex(*got.get(i, (0, 0))) - complex(*v)) <= 1e-9 * peak
                   for i, v in amps.items())
    return check


def _minor(amps, mode, k, l):
    """The exchange minor a_k a_l - a_k2 a_l2, exact until the final conversion."""
    k2 = k[:mode] + (l[mode],) + k[mode + 1:]
    l2 = l[:mode] + (k[mode],) + l[mode + 1:]
    a, b, c, d = (amps.get(i, (0, 0)) for i in (k, l, k2, l2))
    left, right = oracles.cmul(a, b), oracles.cmul(c, d)
    return complex(float(left[0] - right[0]), float(left[1] - right[1]))


def _certificate(amps, shape):
    """The largest of a few exchange minors per mode: a lower bound on the worst."""
    best = 0.0
    for mode in range(len(shape)):
        others = list(product(*(range(n) for j, n in enumerate(shape) if j != mode)))
        for c, c2 in combinations(others[:6], 2):
            k = c[:mode] + (0,) + c[mode:]
            l = c2[:mode] + (1,) + c2[mode:]
            best = max(best, abs(_minor(amps, mode, k, l)))
    return best


def _check_entangled(amps, shape, known):
    def check(doc):
        w = doc["worstMinor"]
        if doc["separable"] is not False or doc["witness"] is not None or w is None:
            return False
        mode, k, l = w["mode"], tuple(w["k"]), tuple(w["l"])
        if not (0 <= mode < len(shape) and k[mode] < l[mode]
                and k[:mode] + k[mode + 1:] != l[:mode] + l[mode + 1:]):
            return False
        value = _minor(amps, mode, k, l)
        reported = complex(w["value"]["re"], w["value"]["im"])
        return (abs(value - reported) <= 1e-9 * abs(value)
                and abs(doc["maxViolation"] - abs(value)) <= 1e-9 * abs(value)
                and doc["maxViolation"] >= known * (1 - 1e-9))
    return check


def _check_concurrence(expected):
    return lambda doc: abs(doc["concurrence"] - expected) <= 1e-9


def _sep_op(shape, amps, check):
    return Op("check-separable", ["check-separable", _js(_state_doc(shape, amps))], check)


def _conc_op(shape, amps, expected):
    return Op("concurrence", ["concurrence", _js(_state_doc(shape, amps))],
              _check_concurrence(expected))


def _random_integer_state(rng, shape):
    while True:
        amps = {idx: (rng.choice([x for x in range(-9, 10) if x]), 0)
                for idx in product(*(range(n) for n in shape))}
        known = _certificate(amps, shape)
        if known:
            return amps, known


def _random_float_state(rng, shape):
    while True:
        amps = {idx: (rng.gauss(0, 1), rng.gauss(0, 1))
                for idx in product(*(range(n) for n in shape))}
        norm = math.sqrt(sum(a * a + b * b for a, b in amps.values()))
        amps = {i: (a / norm, b / norm) for i, (a, b) in amps.items()}
        peak = max(abs(complex(*v)) for v in amps.values())
        known = _certificate(amps, shape)
        if known > 1e-3 * peak * peak:
            return amps, known


def separability(rng):
    ops = []
    r2 = 1 / math.sqrt(2)
    for m in (4, 5, 6, 7, 7):
        shape = (2,) * m
        amps = oracles.tensor(_exact_locals(rng, shape))
        ops.append(_sep_op(shape, amps, _check_separable_exact(amps)))
        ghz = {(0,) * m: (1, 0), (1,) * m: (1, 0)}
        ops.append(_sep_op(shape, ghz, _check_entangled(ghz, shape, 1)))
        w = {_unit(m, i, 1): (1, 0) for i in range(m)}
        ops.append(_sep_op(shape, w, _check_entangled(w, shape, 1)))
        amps, known = _random_integer_state(rng, shape)
        ops.append(_sep_op(shape, amps, _check_entangled(amps, shape, known)))
        amps, known = _random_float_state(rng, shape)
        ops.append(_sep_op(shape, amps, _check_entangled(amps, shape, known)))
        amps = oracles.tensor(_float_locals(rng, shape))
        ops.append(_sep_op(shape, amps, _check_separable_float(amps)))
        for _ in range(2 if m == 6 else 1):
            ops.append(_conc_op(shape, {(0,) * m: (r2, 0.0), (1,) * m: (r2, 0.0)},
                                math.sqrt(m)))
            wf = 1 / math.sqrt(m)
            ops.append(_conc_op(shape, {_unit(m, i, 1): (wf, 0.0) for i in range(m)},
                                math.sqrt(2 * (m - 1) / m)))
        ops.append(_conc_op(shape, oracles.tensor(_unit_locals(rng, shape)), 0.0))
        z = [{"re": _frac_str(_rand_rational(rng)), "im": _frac_str(_rand_rational(rng))}
             for _ in range(m)]
        ops.append(Op("verify-param", ["verify-param", "--m", str(m), "--z", _js(z)],
                      _equal({"m": m, "onVariety": True})))
    # the cheap mixed-shape ops balance the ops above the two repeated
    # 6-qubit concurrences, so the median falls on those four equal ops
    for shape in ((2, 2, 3), (3, 2, 4), (3, 3, 3)):
        amps = oracles.tensor(_exact_locals(rng, shape))
        ops.append(_sep_op(shape, amps, _check_separable_exact(amps)))
        amps, known = _random_integer_state(rng, shape)
        ops.append(_sep_op(shape, amps, _check_entangled(amps, shape, known)))
        amps, known = _random_float_state(rng, shape)
        ops.append(_sep_op(shape, amps, _check_entangled(amps, shape, known)))
        amps = oracles.tensor(_float_locals(rng, shape))
        ops.append(_sep_op(shape, amps, _check_separable_float(amps)))
        ops.append(_conc_op(shape, amps, 0.0))
        ops.append(_conc_op(shape, oracles.tensor(_unit_locals(rng, shape)), 0.0))
    return ops


def scaled_states(rng):
    """Exact separable states scaled by 10^400 and 10^-400.

    Scaling never changes separability, but at the seed commit both exit 2:
    the float conversion in is_separable overflows or underflows.  They are
    reported on their own line, outside the counted operations.
    """
    ops = []
    for scale in (Fraction(10) ** 400, Fraction(1, 10 ** 400)):
        locs = _exact_locals(rng, (2, 2, 2))
        locs[0] = [(re * scale, im * scale) for re, im in locs[0]]
        amps = oracles.tensor(locs)
        ops.append(_sep_op((2, 2, 2), amps, _check_separable_exact(amps)))
    return ops


# --------------------------------------------------------------- enumeration

def _check_hilbert(gens):
    def check(doc):
        basis = _vecs(doc["generators"])
        return basis == sorted(basis) and oracles.check_hilbert_basis(gens, basis)
    return check


def _check_binomials(exponents, degree, point):
    """Canonical, sound (vanish at a torus point) and complete binomial list."""
    values = [oracles.evaluate(point, a) for a in exponents]

    def check(doc):
        gens = [(tuple(g["nu"]), tuple(g["mu"])) for g in doc["generators"]]
        if doc["degreeBound"] != degree or len(set(gens)) != len(gens):
            return False
        if _vecs(doc["map"]["exponents"]) != [tuple(a) for a in exponents]:
            return False
        if gens != sorted(gens, key=lambda g: (sum(g[0]), g[0], g[1])):
            return False
        for nu, mu in gens:
            if not (nu > mu and sum(nu) == sum(mu) <= degree
                    and not any(a and b for a, b in zip(nu, mu))):
                return False
            if oracles.image(exponents, nu) != oracles.image(exponents, mu):
                return False
            if oracles.evaluate(values, nu) != oracles.evaluate(values, mu):
                return False
        return len(gens) == oracles.relation_count(exponents, degree)
    return check


def _torus_point(rng, dim):
    return [rng.choice((1, -1)) * rng.randint(2, 9) for _ in range(dim)]


def _check_minors(shape):
    def check(doc):
        if doc["shape"] != list(shape):
            return False
        keys = set()
        last_mode = 0
        for mnr in doc["minors"]:
            mode, k, l = mnr["mode"], tuple(mnr["k"]), tuple(mnr["l"])
            if mode < last_mode or not k[mode] < l[mode]:
                return False
            if k[:mode] + k[mode + 1:] == l[:mode] + l[mode + 1:]:
                return False
            last_mode = mode
            k2 = k[:mode] + (l[mode],) + k[mode + 1:]
            l2 = l[:mode] + (k[mode],) + l[mode + 1:]
            keys.add(frozenset((frozenset((k, l)), frozenset((k2, l2)))))
        return len(keys) == len(doc["minors"]) == oracles.minor_count(shape)
    return check


def _simplicial_cone(rng, lo, hi):
    while True:
        gens = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        if lo <= abs(_det3(gens)) <= hi:
            return gens


def _det3(a):
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def enumeration(rng):
    ops = []
    for lo, hi in ((3, 10), (20, 40), (60, 100), (200, 240)):
        k = rng.randint(lo, hi)
        gens = [[1, 0], [1, k]]
        expected = {"cone": {"dim": 2, "generators": gens},
                    "generators": [[1, i] for i in range(k + 1)]}
        ops.append(Op("hilbert-basis", ["hilbert-basis", "--cone",
                                        _js({"dim": 2, "generators": gens})],
                      _equal(expected)))
    # two draws of each random 3-d cone: the median falls among them, so more
    # draws per pass steady it
    cones = [_simplicial_cone(rng, lo, hi)
             for lo, hi in ((2, 10), (11, 30), (31, 50)) * 2]
    for a in (rng.randint(40, 60), rng.randint(110, 130)):
        cones.append([[1, 0, 0], [0, 1, 0], [a, a + 1, 1]])
    cones += [_random_cone(rng, 3, n, 3) for n in (4, 5) * 2]
    cones.append(_random_cone(rng, 4, 5, 2))
    for gens in cones:
        ops.append(Op("hilbert-basis", ["hilbert-basis", "--cone",
                                        _js({"dim": len(gens[0]), "generators": gens})],
                      _check_hilbert(gens)))
    # two heavier listings (degree-20 curve) above four equal ones
    # (degree-16 curve) put p90 on the plateau the four form; degrees 12-14
    # sit above the random cones, so the median falls among those cones
    for d in (6, 10, 12, 13, 14, 16, 16, 16, 16, 20, 20):
        curve = [[d - i, i] for i in range(d + 1)]
        ops.append(Op("toric-ideal", ["toric-ideal", "--map", _js(curve), "--degree", "3"],
                      _check_binomials([tuple(a) for a in curve], 3, _torus_point(rng, 2))))
    for m, degree in ((3, 2), (3, 3), (4, 2), (4, 3)):
        exps = [list(e) for e in product((0, 1), repeat=m)]
        rng.shuffle(exps)
        homog = [tuple(e) + (1,) for e in exps]
        ops.append(Op("projective-relations",
                      ["projective-relations", "--exponents", _js(exps),
                       "--degree", str(degree)],
                      _check_binomials(homog, degree, _torus_point(rng, m + 1))))
    for shape in ((2, 2, 2), (2, 2, 2, 2), (2,) * 5, (2,) * 6, (2,) * 7,
                  (3, 2, 4), (3, 3, 3)):
        ops.append(Op("segre-minors", ["segre-minors", "--shape", _js(list(shape))],
                      _check_minors(shape)))
    for m in (3, 4, 5, 6, 7, 8):
        ops.append(Op("param", ["param", "--m", str(m)],
                      _equal({"m": m, "exponents": [list(e) for e in
                                                    product((0, 1), repeat=m)]})))
    return ops


WORKLOADS = {"polyhedral": polyhedral, "separability": separability,
             "enumeration": enumeration}


def make_pass(workload, seed, index):
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{index}"))
