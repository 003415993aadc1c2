"""JSON encodings for every object the CLI reads or writes.

Integers beyond the 53-bit safe range are serialized as decimal strings;
exact rationals travel as "p/q" strings, floating values as JSON numbers.
Emitted documents are canonical: sorted keys, fixed list orders.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction

from .geometry import Cone, Fan, Polytope, make_fan, polytope_hull, pos_hull
from .monoid import MonoidGenerators
from .qubit import ChartAtlas
from .rationals import ComplexRational
from .segre import (MinorSpec, ProductState, PureState, SeparabilityResult,
                    minor_blocks)
from .toric_ideal import BinomialIdeal, MonomialMap

_SAFE = 2 ** 53
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           allow_nan=False).encode


def decode_int(x) -> int:
    if isinstance(x, bool):
        raise ValueError("expected an integer, got a boolean")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        return int(x)
    raise ValueError(f"expected an integer, got {x!r}")


def _digits(x: int) -> str:
    """str(x), written by Decimal beyond 2^53: Python 3.10.7 and later
    refuse str() of an int past 4,300 digits, Decimal's text has no limit."""
    return str(x) if abs(x) <= _SAFE else str(Decimal(x))


def _vector_out(v):
    return [x if abs(x) <= _SAFE else _digits(x) for x in v]


def vector_from_json(v) -> tuple[int, ...]:
    """A JSON list of integers, each an int or a decimal string."""
    if not isinstance(v, list):
        raise ValueError(f"expected a list of integers, got {v!r}")
    return tuple(map(decode_int, v))


def _list_in(data: dict, field: str) -> list:
    """data[field], which must be a JSON list; a missing field is empty."""
    value = data.get(field, [])
    if not isinstance(value, list):
        raise ValueError(f"{field!r} must be a JSON list, got {value!r}")
    return value


def cone_to_json(c: Cone) -> dict:
    return {"dim": c.dim, "generators": [_vector_out(g) for g in c.generators]}


def cone_from_json(data) -> Cone:
    if not isinstance(data, dict) or "dim" not in data:
        raise ValueError("cone JSON needs 'dim' and 'generators'")
    dim = decode_int(data["dim"])
    gens = [vector_from_json(g) for g in _list_in(data, "generators")]
    return pos_hull(gens, dim)


def polytope_to_json(p: Polytope) -> dict:
    return {"dim": p.dim, "vertices": [_vector_out(v) for v in p.vertices]}


def polytope_from_json(data) -> Polytope:
    if not isinstance(data, dict) or "dim" not in data or "vertices" not in data:
        raise ValueError("polytope JSON needs 'dim' and 'vertices'")
    dim = decode_int(data["dim"])
    return polytope_hull(map(vector_from_json, _list_in(data, "vertices")), dim)


def fan_to_json(f: Fan) -> dict:
    return {"dim": f.dim, "cones": [cone_to_json(c) for c in f.cones]}


def fan_from_json(data) -> Fan:
    if not isinstance(data, dict) or "dim" not in data or "cones" not in data:
        raise ValueError("fan JSON needs 'dim' and 'cones'")
    dim = decode_int(data["dim"])
    return make_fan([cone_from_json(c) for c in _list_in(data, "cones")], dim)


def monoid_to_json(m: MonoidGenerators) -> dict:
    return {"cone": cone_to_json(m.cone),
            "generators": [_vector_out(g) for g in m.generators]}


def map_to_json(m: MonomialMap) -> dict:
    return {"dim": m.dim, "exponents": [_vector_out(a) for a in m.exponents]}


def map_from_json(data) -> MonomialMap:
    """A list of exponent vectors, or {'dim':..,'exponents':..} where the
    dimension may be left out when there is an exponent vector to read it."""
    if isinstance(data, list):
        data = {"exponents": data}
    if not isinstance(data, dict) or "exponents" not in data:
        raise ValueError("monomial map JSON must be a list of exponent vectors "
                         "or {'dim':..,'exponents':..}")
    exponents = tuple(vector_from_json(a) for a in _list_in(data, "exponents"))
    if "dim" in data:
        return MonomialMap(decode_int(data["dim"]), exponents)
    if not exponents:
        raise ValueError("monomial map needs at least one exponent vector")
    return MonomialMap(len(exponents[0]), exponents)


def ideal_to_json(ideal: BinomialIdeal) -> dict:
    # a monomial is shared by many binomials: encode each exponent tuple once
    vectors = [_vector_out(e) for e in ideal.monomials]
    return {"map": map_to_json(ideal.map),
            "degreeBound": ideal.degree_bound,
            "generators": [{"nu": vectors[i], "mu": vectors[j]}
                           for i, j in ideal.pairs]}


def _int_text(x: int) -> str:
    """The canonical text of one integer, by the rule of ``_vector_out``."""
    return _encode(x if abs(x) <= _SAFE else _digits(x))


class _Texts(dict):
    """The canonical text of each distinct integer vector, and of each
    distinct integer, encoded once per document: a vector's text is joined
    from those of its integers.  A table refers to these texts, so a
    repeated entry costs no string of its own."""

    def __missing__(self, key):
        text = _int_text(key) if isinstance(key, int) else self.vector(key)
        self[key] = text
        return text

    def vector(self, v) -> str:
        """The text of v, not kept: for a vector that is met once."""
        return "[" + ",".join(map(self.__getitem__, v)) + "]"

    def join(self, vectors) -> str:
        return ",".join([self[v] for v in vectors])


def _close(parts: list[str], tail: str) -> list[str]:
    """End a table whose items each end in ',': drop the last ',', add tail."""
    parts[-1] = parts[-1].removesuffix(",")
    parts.append(tail)
    return parts


def ideal_dumps(ideal: BinomialIdeal) -> list[str]:
    """``canonical_dumps(ideal_to_json(ideal))`` as str parts."""
    # the monomials are distinct: their texts need no cache of their own
    vectors = list(map(_Texts().vector, ideal.monomials))
    heads = ['{"mu":' + t + ',"nu":' for t in vectors]
    tails = [t + "}," for t in vectors]
    parts = [f'{{"degreeBound":{_encode(ideal.degree_bound)},"generators":[']
    for i, j in ideal.pairs:
        parts += heads[j], tails[i]
    return _close(parts, f'],"map":{_encode(map_to_json(ideal.map))}}}\n')


def _fan_parts(fan: Fan, texts: _Texts, parts: list[str]) -> list[str]:
    head = f'{{"dim":{fan.dim},"generators":['
    rays = [texts[r] for r in fan.rays]
    parts.append('{"cones":[')
    for t in fan.indices:
        parts += head, ",".join([rays[i] for i in t]), "]},"
    return _close(parts, f'],"dim":{fan.dim}}}')


def fan_dumps(fan: Fan) -> list[str]:
    """``canonical_dumps(fan_to_json(fan))`` as str parts."""
    return _fan_parts(fan, _Texts(), []) + ["\n"]


def atlas_dumps(atlas: ChartAtlas) -> list[str]:
    """``canonical_dumps(atlas_to_json(atlas))`` as str parts."""
    texts, parts = _Texts(), ['{"charts":[']
    for ch in atlas.charts:
        parts += (f'{{"cone":{{"dim":{ch.cone.dim},"generators":[',
                  texts.join(ch.cone.generators), ']},"coordinates":[',
                  texts.join(ch.coordinates), "]},")
    _fan_parts(atlas.fan, texts, _close(parts, '],"fan":'))
    parts.append(',"transitions":[')
    for i, j, mat in atlas.transitions:
        parts += f'{{"from":{i},"matrix":[', texts.join(mat), f'],"to":{j}}},'
    return _close(parts, "]}\n")


def segre_minors_dumps(shape) -> list[str]:
    """``canonical_dumps`` of ``{"minors": [minor_to_json(m) for m in
    segre_minors(shape)], "shape": list(shape)}`` as str parts."""
    texts, parts = _Texts(), ['{"minors":[']
    for mode, ks, ls, partners in minor_blocks(shape):
        l_texts = [f'{texts[l]},"mode":{mode}}},' for l in ls]
        for k, js in zip(ks, partners):
            k_text = f'{{"k":{texts[k]},"l":'
            for j in js:
                parts += k_text, l_texts[j]
    return _close(parts, f'],"shape":{_encode(list(shape))}}}\n')


def _fraction_text(q: Fraction) -> str:
    """str(q), its parts written by ``_digits``."""
    num, den = map(_digits, q.as_integer_ratio())
    return num if den == "1" else f"{num}/{den}"


def _amplitude_out(value) -> dict:
    if isinstance(value, ComplexRational):
        return {"re": _fraction_text(value.re), "im": _fraction_text(value.im)}
    if isinstance(value, (int, Fraction)):
        return {"re": _fraction_text(Fraction(value)), "im": "0"}
    z = complex(value)
    return {"re": z.real + 0.0, "im": z.imag + 0.0}  # -0.0 + 0.0 is 0.0


def _fraction_in(x) -> Fraction:
    """Fraction(x), a string read by the grammar of Python 3.10 on every
    version: 3.11 added '_' between digits, 3.12 spaces beside the '/'."""
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        if "_" in x or slash and (num[-1:].isspace() or den[:1].isspace()):
            raise ValueError(f"Invalid literal for Fraction: {x!r}")
    return Fraction(x)


def _part_in(x):
    """An amplitude part: an exact (numerator, denominator) pair, or a
    finite float."""
    if isinstance(x, str):
        # a plain ASCII [-]digits[/digits] needs no Fraction; every other
        # string is read, or refused, by _fraction_in alone
        num, slash, den = x.partition("/")
        if x.isascii() and num.removeprefix("-").isdigit() and \
                (den.isdigit() or not slash) and int(den or 1):
            num, den = int(num), int(den or 1)
            g = math.gcd(num, den)
            return num // g, den // g
        return _fraction_in(x).as_integer_ratio()
    if isinstance(x, bool):
        raise ValueError("amplitude parts must be numbers or 'p/q' strings")
    if isinstance(x, int):
        return x, 1
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"amplitude parts must be finite, got {x!r}")
        return x
    raise ValueError(f"bad amplitude part {x!r}")


def state_to_json(s: PureState) -> dict:
    entries = []
    for idx in sorted(s.amplitudes):
        entry = {"index": list(idx)}
        entry.update(_amplitude_out(s.amplitudes[idx]))
        entries.append(entry)
    return {"shape": list(s.shape), "amplitudes": entries}


def state_from_json(data) -> PureState:
    """Parse a state's shape, and each amplitude's index and parts (re, im):
    an exact part as an int ratio (x, p), a float part as the float.  The
    reader only parses; ``PureState.from_parts`` checks the shape and the
    indices and builds the table, exact only when every part is exact."""
    if not isinstance(data, dict) or "shape" not in data or "amplitudes" not in data:
        raise ValueError("state JSON needs 'shape' and 'amplitudes'")
    shape = vector_from_json(data["shape"])
    parts = {}
    for entry in _list_in(data, "amplitudes"):
        if not isinstance(entry, dict):
            raise ValueError(f"'amplitudes' entries must be JSON objects, "
                             f"got {entry!r}")
        if "index" not in entry:
            raise ValueError(f"'amplitudes' entries need an 'index', "
                             f"got {entry!r}")
        idx = vector_from_json(entry["index"])
        if idx in parts:
            raise ValueError(f"duplicate amplitude index {idx}")
        parts[idx] = _part_in(entry.get("re", 0)), _part_in(entry.get("im", 0))
    return PureState.from_parts(shape, parts)


def product_state_to_json(p: ProductState) -> dict:
    return {"locals": [[_amplitude_out(x) for x in v] for v in p.locals]}


def minor_to_json(minor: MinorSpec) -> dict:
    return {"mode": minor.mode, "k": list(minor.k), "l": list(minor.l)}


def separability_to_json(r: SeparabilityResult) -> dict:
    if not math.isfinite(r.max_violation):
        raise ValueError(f"maxViolation is {r.max_violation}, beyond the float range; "
                         "scaling the state by a power of two keeps the verdict")
    worst = None if r.worst_minor is None else {
        **minor_to_json(r.worst_minor), "value": _amplitude_out(r.worst_value)}
    witness = None if r.witness is None else product_state_to_json(r.witness)
    return {"separable": r.separable, "maxViolation": r.max_violation,
            "witness": witness, "worstMinor": worst}


def atlas_to_json(atlas: ChartAtlas) -> dict:
    return {
        "fan": fan_to_json(atlas.fan),
        "charts": [{"cone": cone_to_json(ch.cone),
                    "coordinates": [_vector_out(c) for c in ch.coordinates]}
                   for ch in atlas.charts],
        "transitions": [{"from": i, "to": j,
                         "matrix": [_vector_out(row) for row in mat]}
                        for i, j, mat in atlas.transitions],
    }


def parameterization_to_json(exponents) -> dict:
    return {"m": len(exponents[0]), "exponents": [list(e) for e in exponents]}


def _rational_part_in(x) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise ValueError("torus coordinates must be exact: use 'p/q' strings")
    if isinstance(x, (int, str)):
        return _fraction_in(x)
    raise ValueError(f"bad exact rational {x!r}")


def torus_point_from_json(data):
    """A list of nonzero exact complex rationals: 'p/q' or {'re':..,'im':..}."""
    if not isinstance(data, list):
        raise ValueError("torus point must be a JSON list")
    point = []
    for entry in data:
        if isinstance(entry, dict):
            point.append(ComplexRational(_rational_part_in(entry.get("re", 0)),
                                         _rational_part_in(entry.get("im", 0))))
        else:
            point.append(ComplexRational(_rational_part_in(entry)))
    return tuple(point)


def canonical_dumps(obj) -> str:
    return _encode(obj) + "\n"
