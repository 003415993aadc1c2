"""Multipartite pure states, the Segre map, minor ideals, and separability."""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, filterfalse, product

from .rationals import ComplexRational


def _integer(n, name: str) -> int:
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{name} {n!r} is not an integer") from None


def check_shape(shape) -> tuple[int, ...]:
    shape = tuple(_integer(n, "local dimension") for n in shape)
    if len(shape) < 1:
        raise ValueError("a system needs at least one party")
    if any(n < 2 for n in shape):
        raise ValueError("every local dimension must be at least 2")
    return shape


class PureState:
    """Amplitude tensor over a system shape; zero entries are omitted.

    Amplitude values may be exact (ints, Fractions, ComplexRational) or
    floating (any other, read by complex()).  A state is one table of its
    nonzero amplitudes, built by ``_build`` from their parts: Gaussian
    integers {index: (x, y)} standing for (x + iy) / D over one denominator
    D, or {index: complex}.  ``amplitudes`` reads that table when first
    asked for: an exact value as a Fraction if it is real, else a
    ComplexRational, a floating one as a complex, whatever types it was given.
    """

    def __init__(self, shape, amplitudes):
        self.shape, self._table, self._d = _build(shape, {
            tuple(_integer(a, "index entry") for a in i): _parts(v)
            for i, v in dict(amplitudes).items()})

    @classmethod
    def from_parts(cls, shape, parts) -> "PureState":
        """The state of the amplitude parts {index: (re, im)}, indices int
        tuples, each part an exact int ratio (x, p) with p > 0 or a float:
        checked and built as the constructor builds its values' parts."""
        state = cls.__new__(cls)
        state.shape, state._table, state._d = _build(shape, parts)
        return state

    @cached_property
    def amplitudes(self) -> dict:
        d = self._d
        return self._table if d is None else {
            i: _exact_value(x, y, d) for i, (x, y) in self._table.items()}

    def __eq__(self, other):
        """Equal values are equal: a float part reads as the dyadic rational
        it is."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.shape != other.shape:
            return False
        if self._d is None and other._d is None:
            return self._table == other._table
        (s, d), (t, e) = _gaussian(self), _gaussian(other)
        return s.keys() == t.keys() and all(
            x * e == t[i][0] * d and y * e == t[i][1] * d
            for i, (x, y) in s.items())

    def __repr__(self):
        return f"PureState(shape={self.shape!r}, amplitudes={self.amplitudes!r})"

    def amplitude(self, index):
        return self.amplitudes.get(tuple(index), 0)

    def norm_squared(self) -> float:
        """sum |a|^2 over the amplitudes, in floats: math.inf above their
        range.  An exact |a| is sqrt(|a|^2), with |a|^2 rounded once."""
        try:
            if self._d is None:
                return sum(abs(v) ** 2 for v in self._table.values())
            d2 = self._d * self._d
            return sum(math.sqrt((x * x + y * y) / d2) ** 2
                       for x, y in self._table.values())
        except OverflowError:
            return math.inf


@dataclass
class ProductState:
    """One local amplitude vector per party, each nonzero."""

    locals: tuple[tuple, ...]

    def __init__(self, locals):
        vecs = tuple(tuple(v) for v in locals)
        if not vecs:
            raise ValueError("a product state needs at least one party")
        for v in vecs:
            if len(v) < 2:
                raise ValueError("every local vector needs dimension >= 2")
            if not any(x for x in v):
                raise ValueError("local vectors must be nonzero")
        self.locals = vecs

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.locals)


@dataclass(frozen=True)
class MinorSpec:
    """A two-by-two minor exchanging coordinate `mode` between indices k and l.

    The minor is  a_k a_l - a_(k<-l_mode) a_(l<-k_mode);  k and l agree in no
    canonical relation except k[mode] < l[mode] and complements distinct.
    """

    mode: int
    k: tuple[int, ...]
    l: tuple[int, ...]

    def swapped(self):
        """The two partner indices with the mode coordinate exchanged."""
        k2 = self.k[:self.mode] + (self.l[self.mode],) + self.k[self.mode + 1:]
        l2 = self.l[:self.mode] + (self.k[self.mode],) + self.l[self.mode + 1:]
        return k2, l2

    def key(self):
        """Canonical identity of the binomial (orderless in every slot)."""
        k2, l2 = self.swapped()
        return frozenset((frozenset((self.k, self.l)), frozenset((k2, l2))))


def segre_map(p: ProductState) -> PureState:
    """Amplitude at (i_1,...,i_m) equals the product of local amplitudes.

    Products are built by shared prefixes, so each index costs about two
    multiplications instead of m.  Exact locals are multiplied as Gaussian
    integers: party j over the lcm q_j of its denominators, the state over
    D = prod_j q_j, and held as built.  Otherwise every local is rounded to
    complex floats, the arithmetic the state is held in.
    """
    locs = [[_parts(x) for x in v] for v in p.locals]
    if any(isinstance(x, float) for v in locs for parts in v for x in parts):
        prods = _prefix_products([list(enumerate(map(_complex, v))) for v in locs],
                                 1, operator.mul)
        return PureState.from_parts(p.shape, {i: (z.real, z.imag) for i, z in prods})
    tables = [_gaussian_integers(dict(enumerate(v))) for v in locs]
    state = PureState.__new__(PureState)
    state.shape, state._d = p.shape, math.prod(q for _, q in tables)
    state._table = dict(_prefix_products([g.items() for g, _ in tables],
                                         (1, 0), _gmul))
    return state


def _parts(value) -> tuple:
    """An amplitude value as its parts (re, im): an int, Fraction or
    ComplexRational as exact int ratios (x, p), any other value read by
    ``complex()`` as two floats."""
    if isinstance(value, (int, Fraction)):
        return value.as_integer_ratio(), (0, 1)
    if isinstance(value, ComplexRational):
        return value.re.as_integer_ratio(), value.im.as_integer_ratio()
    z = complex(value)
    return z.real, z.imag


def _complex(parts) -> complex:
    """Parts (re, im) as a complex float, an exact part rounded once."""
    return complex(*(x if isinstance(x, float) else x[0] / x[1] for x in parts))


def _gaussian_integers(ratios: dict):
    """Complex rationals {key: ((x, p), (y, q))}, standing for x / p + iy / q,
    as the nonzero Gaussian integers {key: (X, Y)} standing for (X + iY) / D,
    and D: the lcm of every p and q."""
    d = math.lcm(*(n for (_, p), (_, q) in ratios.values() for n in (p, q)))
    return {i: (x * (d // p), y * (d // q))
            for i, ((x, p), (y, q)) in ratios.items() if x or y}, d


def _build(shape, parts) -> tuple:
    """The shape, table and D of the state of parts {index: (re, im)}: the
    exact parts of a float state (one float part makes it one) are rounded
    once and the first part that is not finite refused; the shape, then
    every index is checked; zeros are dropped, an empty table refused, the
    rest Gaussian integers over their lcm D."""
    floating = any(isinstance(x, float) for v in parts.values() for x in v)
    if floating:
        parts = {i: _complex(v) for i, v in parts.items()}
        for z in filterfalse(cmath.isfinite, parts.values()):
            x = z.imag if math.isfinite(z.real) else z.real
            raise ValueError(f"amplitude parts must be finite, got {x!r}")
    shape = check_shape(shape)
    ranges = [range(n) for n in shape]
    for idx in parts:
        if len(idx) != len(shape) or not all(map(operator.contains, ranges, idx)):
            raise ValueError(f"index {idx} out of range for shape {shape}")
    table = {i: v for i, v in parts.items()
             if (v if floating else v[0][0] or v[1][0])}
    if not table:
        raise ValueError("state must have at least one nonzero amplitude")
    return (shape, table, None) if floating else (shape, *_gaussian_integers(table))


def _prefix_products(vectors, one, mul) -> list:
    """[(index, product)] over every choice of one (a, x) item per vector,
    in order, each product ((one * x_1) * x_2) * ... built on its prefix's."""
    prods = [((), one)]
    for v in vectors:
        prods = [(i + (a,), mul(u, x)) for i, u in prods for a, x in v]
    return prods


def minor_blocks(shape):
    """The minors of ``segre_minors`` in order, as blocks (mode, ks, ls,
    partners), the minors (mode, ks[i], ls[j]) for j in partners[i]: per
    mode and local pair a < b, ks and ls insert a and b into the index
    tuples of the other modes.  A minor of two modes s < j (index pairs
    differing in two slots) is kept under s: mode j skips the pairs
    differing in one other slot s < j only."""
    shape = check_shape(shape)
    for mode, n in enumerate(shape):
        others = shape[:mode] + shape[mode + 1:]
        complements = list(product(*map(range, others)))
        strides = _strides(others)
        partners = []
        for i, c in enumerate(complements):
            skip = {i + d * strides[s]
                    for s in range(mode) for d in range(1, others[s] - c[s])}
            partners.append([j for j in range(i + 1, len(complements))
                             if j not in skip])
        for a, b in combinations(range(n), 2):
            yield (mode, [c[:mode] + (a,) + c[mode:] for c in complements],
                   [c[:mode] + (b,) + c[mode:] for c in complements], partners)


def segre_minors(shape) -> tuple[MinorSpec, ...]:
    """The complete duplicate-free list of nontrivial minors for a shape,
    ordered by (mode, local index pair, complement pair)."""
    return tuple(MinorSpec(mode, k, ls[j])
                 for mode, ks, ls, partners in minor_blocks(shape)
                 for k, js in zip(ks, partners) for j in js)


def minor_value(state: PureState, minor: MinorSpec):
    """Evaluate the minor; exact when the amplitudes are exact."""
    k2, l2 = minor.swapped()
    return (state.amplitude(minor.k) * state.amplitude(minor.l)
            - state.amplitude(k2) * state.amplitude(l2))


@dataclass
class SeparabilityResult:
    separable: bool
    max_violation: float
    witness: ProductState | None
    worst_minor: MinorSpec | None
    worst_value: complex | None = None

    def __bool__(self):
        return self.separable


def is_separable(state: PureState, tol: float = 1e-10) -> SeparabilityResult:
    """Verdict: all minors vanish up to tol * (max |amplitude|)^2.

    On a separable verdict the witness product state is reconstructed from
    the rows of the tensor through its largest-magnitude amplitude; on a
    non-separable verdict the maximal violating minor is reported: the
    first largest as a float in ``segre_minors`` order, found by scanning
    the nonzero columns of every flattening, less the rows that cannot beat
    the largest so far (all but tens per flattening of a dense entangled
    state, none of a float product state), and the only minor built as a
    ``MinorSpec``.  Only the given amplitudes are read, never a dense
    tensor.  An exact state is decided on its Gaussian integers over one
    denominator: with P its peak amplitude and R_j the slot-j rows through
    P, it is rank one exactly when T[i] P^(m-1) = prod_j R_j[i_j] for every
    index i; otherwise its minors are scanned in exact integers, and only
    the report builds rationals.  Scaling a state never changes
    the verdict, also for states beyond float range; their reported minor
    magnitudes are rounded to floats (infinite above the float range).
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    # a state whose peak |a|^2 lies outside float range is decided on
    # state / 2^k, which has the same relative verdict, and scaled back
    table, d = state._table, state._d
    if d is not None:
        k = _gaussian_shift(table, d)
        if k < 0:
            table = {i: (x << -k, y << -k) for i, (x, y) in table.items()}
        r = _gaussian_verdict(state.shape, table, d << max(k, 0), tol, k)
    else:
        k = _float_range_shift(state)
        if k:
            # as PureState does, drop the amplitudes the shift takes to zero
            table = {i: w for i, v in table.items()
                     if (w := _times_power_of_two(v, -k))}
        r = _float_verdict(state.shape, table, tol, k)
    if k == 0:
        return r
    if r.worst_value is not None:
        r.worst_value = _times_power_of_two(r.worst_value, 2 * k)
    r.max_violation = _ldexp(r.max_violation, 2 * k)
    return r


def _float_range_shift(state: PureState) -> int:
    """0 for a float state inside the window below, else the k that brings
    the largest part of state / 2^k near 1.  The largest part c = f 2^e,
    1/2 <= f < 1, bounds the peak P by 2^(e-1) <= |P| < 2^(e+1); the window
    keeps |P|^2 and the witness scale P^(m-1) of m parties normal floats:
    -510 <= e <= 510, (e - 1)(m - 1) >= -1022, (e + 1)(m - 1) <= 1023."""
    e = math.frexp(max(max(abs(z.real), abs(z.imag))
                       for z in state._table.values()))[1]
    m = len(state.shape)
    return 0 if -510 <= e <= 510 and (e - 1) * (m - 1) >= -1022 and \
        (e + 1) * (m - 1) <= 1023 else e


def _gaussian_shift(table, d) -> int:
    """0 when the peak |a|^2 = n / D^2 of Gaussian integers is a normal
    float whose double, the largest possible minor, is still finite, i.e.
    2^-1022 <= n / D^2 < 2^1023; else the k that brings the peak |a|^2 of
    state / 2^k near 1."""
    n, d2 = max(x * x + y * y for x, y in table.values()), d * d
    if d2 <= n << 1022 and n < d2 << 1023:
        return 0
    g = math.gcd(n, d2)
    return ((n // g).bit_length() - (d2 // g).bit_length()) // 2


def _times_power_of_two(x, e: int) -> complex:
    """x * 2^e, rounded to complex floats."""
    return complex(_ldexp(x.real, e), _ldexp(x.imag, e))


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, infinite where that exceeds the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _float_verdict(shape, table, tol, k) -> SeparabilityResult:
    """The verdict on complex floats {index: value}, a state shifted by 2^-k."""
    peak, p = max((abs(v), i) for i, v in table.items())
    top, where = _first_max(shape, table, _float_abs, 0, lambda v: abs(v) + 1e-323)
    if top <= tol * peak * peak:
        rows = _rows(shape, table, p, 0j)
        return SeparabilityResult(True, top, ProductState(
            _float_witness(rows, table[p], k)), None)
    minor = MinorSpec(*where)
    a, b, c, e = _corners(table, minor, 0)
    value = complex(a * b - c * e)
    return SeparabilityResult(False, abs(value), None, minor, value)


def _float_witness(rows, peak, k) -> list[list]:
    """The rows through the peak P of a state shifted by 2^-k, the first
    divided by P^(m-1) and scaled back by 2^k, while that row is finite and
    zero only where it was.  Else each later row is divided by P, the same
    products with no power of P formed, and the first row scaled back is
    the state's own."""
    if len(rows) > 1:
        try:
            scale = peak ** (len(rows) - 1)
            first = [_times_power_of_two(x / scale, k) for x in rows[0]]
            if all(math.isfinite(y.real) and math.isfinite(y.imag) and
                   (y or not x) for x, y in zip(rows[0], first)):
                return [first] + rows[1:]
        except (OverflowError, ZeroDivisionError):
            pass
    return [[_times_power_of_two(x, k) for x in rows[0]]] + \
        [[x / peak for x in row] for row in rows[1:]]


def _gaussian_verdict(shape, table, d, tol, k) -> SeparabilityResult:
    """The verdict on Gaussian integers {index: (x, y)}, each nonzero and
    standing for (x + iy) / d, a state shifted by 2^-k."""
    d2 = d * d
    # the peak of the witness: |a| rounded as sqrt(float(|a|^2)), the last
    # largest in index order
    peak, p = max((math.sqrt((x * x + y * y) / d2), i)
                  for i, (x, y) in table.items())
    rows, g = _rows(shape, table, p, (0, 0)), (1, 0)
    for _ in rows[1:]:
        g = _gmul(g, table[p])
    rank_one = _rank_one(table, rows, g)
    top, where = (0.0, None) if rank_one else _first_max(
        shape, table, _exact_abs(d2), (0, 0),
        lambda v: math.sqrt((v[0] * v[0] + v[1] * v[1]) / d2 + 5e-324))
    # at tol 0 the verdict is exact: a state that is not rank one has a
    # nonzero minor, even one too small for a float
    if rank_one or tol and top <= tol * peak * peak:
        # the witness divides the first row by P^(m-1): with g = (dP)^(m-1),
        # its entry r / d becomes r d^(m-2) / g = r conj(g) d^(m-2) / |g|^2
        locs = [[(x, y, d) for x, y in row] for row in rows]
        if len(rows) > 1:
            s, n = d ** (len(rows) - 2), g[0] * g[0] + g[1] * g[1]
            locs[0] = [(x * s, y * s, n) for x, y in
                       (_gmul(r, (g[0], -g[1])) for r in rows[0])]
        # the first row times 2^k is the witness of the unshifted state
        locs[0] = [(x << k, y << k, q) if k > 0 else (x, y, q << -k)
                   for x, y, q in locs[0]]
        return SeparabilityResult(True, top, ProductState(
            [_exact_value(x, y, q) for x, y, q in loc] for loc in locs), None)
    if top == 0:
        # every minor rounds to float 0: report the first exactly nonzero one
        where = _first_max(shape, table, _exact_nonzero, (0, 0))[1]
    minor = MinorSpec(*where)
    a, b, c, e = _corners(table, minor, (0, 0))
    (x, y), (u, v) = _gmul(a, b), _gmul(c, e)
    value = complex((x - u) / d2, (y - v) / d2)
    return SeparabilityResult(False, abs(value), None, minor, value)


def _rows(shape, table, p, zero) -> list[list]:
    """The slot-j rows R_j of the table through index p, j < m."""
    return [[table.get(p[:j] + (i,) + p[j + 1:], zero) for i in range(n)]
            for j, n in enumerate(shape)]


def _corners(table, minor, zero):
    """T[k], T[l], T[k2], T[l2] of the minor."""
    return [table.get(i, zero) for i in (minor.k, minor.l) + minor.swapped()]


def _exact_value(x: int, y: int, d: int):
    """(x + iy) / d: a Fraction if y is 0, else a ComplexRational."""
    return ComplexRational(Fraction(x, d), Fraction(y, d)) if y else Fraction(x, d)


def _gmul(u, v):
    """The product of two Gaussian integers (x, y) standing for x + iy."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _rank_one(table, rows, g) -> bool:
    """T[i] g == prod_j R_j[i_j] for every index i, where g = P^(m-1) and
    the rows R_j run through the entry P != 0.

    A rank-one T = v_1 x ... x v_m has R_j[a] = v_j[a] P / v_j[p_j], so its
    row products are T[i] P^m / P; conversely the identity writes T as the
    product of the rows, the first divided by g.  Both sides have degree m,
    so a common denominator cancels.  The products are nonzero exactly on
    the product of the rows' supports, so that product must have as many
    indices as T has entries, and the identity is checked on it alone.
    """
    supports = [[(a, v) for a, v in enumerate(row) if v != (0, 0)] for row in rows]
    if math.prod(map(len, supports)) != len(table):
        return False
    return all(_gmul(table.get(i, (0, 0)), g) == u
               for i, u in _prefix_products(supports, (1, 0), _gmul))


def _strides(shape) -> list[int]:
    """Row-major strides: the flat offset of an index is sum(i_j * stride_j)."""
    strides = [1] * len(shape)
    for j in range(len(shape) - 2, -1, -1):
        strides[j] = strides[j + 1] * shape[j + 1]
    return strides


def _gaussian(state: PureState):
    """The amplitudes as Gaussian integers {index: (x, y)} standing for
    (x + iy) / D, and D: the table an exact state holds.  A float part is a
    dyadic rational, so a floating state is read exactly this way too."""
    if state._d is not None:
        return state._table, state._d
    return _gaussian_integers({i: (v.real.as_integer_ratio(),
                                  v.imag.as_integer_ratio())
                              for i, v in state._table.items()})


def _columns(table, j, n, zero) -> dict:
    """The mode-j flattening by its nonzero columns: each complement (an
    index with slot j removed) maps to its n entries, ``zero`` if missing."""
    cols = {}
    for i, v in table.items():
        cols.setdefault(i[:j] + i[j + 1:], [zero] * n)[i[j]] = v
    return cols


def _first_max(shape, table, values, zero, magnitude=None):
    """The first largest minor key and its (mode, k, l), or (0.0, None).

    Every mode j and local pair a < b takes rows ra, rb of the mode-j
    flattening; values(ra[i], rb[i], ra[i+1:], rb[i+1:]) lists the keys of
    the minors ra[i] rb[i2] - rb[i] ra[i2], i < i2.  This scans the canonical
    minors in their order, plus the ones ``segre_minors`` skips under mode j
    as already listed under an earlier mode s; such a duplicate has the same
    two products, so its key equals the earlier one and, under strict >,
    never replaces it.  Only the columns nonzero in row a or row b are
    walked, in complement order: the minors of the others vanish.  Bool
    keys stop at the first True, which nothing replaces.  Given a float
    ``magnitude`` never below |v| beyond rounding (a subnormal |v| or |v|^2
    may round down by an ulp, which the callers add back), row i is skipped
    while best >= 2^-1000 exceeds (|ra[i]| max |rb[i2]| + |rb[i]| max
    |ra[i2]|)(1 + 2^-40) over i2 > i: each of its minors has |x q - y p| <=
    |x||q| + |y||p|, and the margin covers the rounding of key and bound
    above underflow, so its keys never replace best, and the report is the
    full scan's.  A pair costs O(nnz) per row evaluated: a few on a dense
    entangled state, all on a float product state, whose minors are at
    rounding level.
    """
    best, where = 0.0, None
    for j, n in enumerate(shape):
        columns = sorted(_columns(table, j, n, zero).items())
        for a, b in combinations(range(n), 2):
            kept = [(c, col[a], col[b]) for c, col in columns
                    if col[a] != zero or col[b] != zero]
            ra, rb = [u for _, u, _ in kept], [v for _, _, v in kept]
            if magnitude:
                ma, mb = list(map(magnitude, ra)), list(map(magnitude, rb))
                sa, sb = (list(accumulate(m[::-1], max))[::-1] for m in (ma, mb))
            for i in range(len(kept) - 1):
                if magnitude and best >= 2.0 ** -1000 and best > (
                        ma[i] * sb[i + 1] + mb[i] * sa[i + 1]) * (1 + 2.0 ** -40):
                    continue
                keys = values(ra[i], rb[i], ra[i + 1:], rb[i + 1:])
                top = max(keys)
                if where is None or top > best:
                    c, c2 = kept[i][0], kept[i + 1 + keys.index(top)][0]
                    best = top
                    where = (j, c[:j] + (a,) + c[j:], c2[:j] + (b,) + c2[j:])
                    if top is True:
                        return best, where
    return best, where


def _float_abs(x, y, ps, qs):
    return [abs(x * q - y * p) for p, q in zip(ps, qs)]


def _exact_abs(d2):
    """Float magnitudes of Gaussian minors over d2: int / int rounds once,
    so each is abs(complex(minor)) of the exact minor."""
    def values(g, h, ps, qs):
        (x1, y1), (x3, y3) = g, h
        return [abs(complex((x1 * x2 - y1 * y2 - x3 * x4 + y3 * y4) / d2,
                            (x1 * y2 + y1 * x2 - x3 * y4 - y3 * x4) / d2))
                for (x4, y4), (x2, y2) in zip(ps, qs)]
    return values


def _exact_nonzero(g, h, ps, qs):
    (x1, y1), (x3, y3) = g, h
    return [x1 * x2 - y1 * y2 != x3 * x4 - y3 * y4
            or x1 * y2 + y1 * x2 != x3 * y4 + y3 * x4
            for (x4, y4), (x2, y2) in zip(ps, qs)]


def concurrence(state: PureState, weights=None) -> float:
    """2 * sqrt(sum of weighted squared minor magnitudes); needs a normalized state.

    The norm must be within 1e-9 of 1, checked exactly on the amplitudes
    read as Gaussian integers over one denominator.  Default weight is 1 per
    canonical minor, which reproduces the standard two-qubit concurrence
    2|a00 a11 - a01 a10|; the default is the exact sum over the given
    amplitudes (float parts read as the dyadic rationals they are), rounded
    once.  Custom weights must be finite and nonnegative and are summed in
    floating point minor by minor.
    """
    table, d = _gaussian(state)
    # in integers, so that no part of an exact state need fit a float
    norm2, d2 = sum(x * x + y * y for x, y in table.values()), d * d
    if abs(norm2 - d2) * 10 ** 9 > d2:
        raise ValueError("state is not normalized: "
                         f"sum |amp|^2 = {state.norm_squared()}")
    if weights is None:
        return _sqrt_ratio(4 * _minor_norm2(state.shape, table), d ** 4)
    # counted before the minors are listed, which may be exponentially many
    count = _minor_count(state.shape)
    if len(weights) != count:
        raise ValueError(f"expected {count} weights, got {len(weights)}")
    if not all(0 <= w < math.inf for w in weights):
        raise ValueError("weights must be finite and nonnegative")
    # minor (mode, ks[i], ls[j]) is T[ks[i]] T[ls[j]] - T[ls[i]] T[ks[j]]
    if state._d is not None:
        values, zero = _exact_abs(d * d), (0, 0)
    else:
        values, zero, table = _float_abs, 0j, state._table
    total, weights = 0.0, iter(weights)
    for _, ks, ls, partners in minor_blocks(state.shape):
        t = [table.get(idx, zero) for idx in ks]
        u = [table.get(idx, zero) for idx in ls]
        for i, js in enumerate(partners):
            vs = values(t[i], u[i], [t[j] for j in js], [u[j] for j in js])
            for v, w in zip(vs, weights):
                total += w * v ** 2
    return 2.0 * math.sqrt(total)


def _minor_count(shape) -> int:
    """len(segre_minors(shape)): C(n, 2) C(N / n, 2) minors of each mode of
    dimension n, N = prod(shape), less the C(n_s, 2) C(n_j, 2) N / (n_s n_j)
    minors of the (s, j) slices, which two modes share."""
    size = math.prod(shape)
    return sum(math.comb(n, 2) * math.comb(size // n, 2) for n in shape) - \
        sum(math.comb(a, 2) * math.comb(b, 2) * size // (a * b)
            for a, b in combinations(shape, 2))


def _minor_norm2(shape, table) -> int:
    """Sum of |minor|^2 over the canonical minors of Gaussian integers.

    By Cauchy-Binet the 2x2 minors of a matrix M have squared norms summing
    to e2(M M^H) = sum_{a<b} G_aa G_bb - |G_ab|^2, a sum over the nonzero
    columns of M.  Summed over the flattenings this counts twice each minor
    of two modes s < j, i.e. each 2x2 minor of an (s, j) slice with the
    other slots fixed: of two mode-s columns whose complements differ in
    slot j only.  Those are subtracted once.
    """
    total = 0
    for s, n in enumerate(shape):
        cols = _columns(table, s, n, (0, 0))
        rows = list(zip(*cols.values()))
        norms = [sum(x * x + y * y for x, y in row) for row in rows]
        # the column pairs p, q of every (s, j + 1) slice: the complement
        # of q is that of p with slot j larger by dv
        pairs = [(p, q) for j in range(s, len(shape) - 1)
                 for dv in range(1, shape[j + 1]) for c, p in cols.items()
                 if c[j] + dv < shape[j + 1]
                 and (q := cols.get(c[:j] + (c[j] + dv,) + c[j + 1:]))]
        for a, b in combinations(range(n), 2):
            ab = list(zip(rows[a], rows[b]))
            re = sum(xa * xb + ya * yb for (xa, ya), (xb, yb) in ab)
            im = sum(ya * xb - xa * yb for (xa, ya), (xb, yb) in ab)
            total += norms[a] * norms[b] - re * re - im * im
            # the slice minor p[a] q[b] - q[a] p[b] of columns p, q
            total -= sum(
                (ax * bx - ay * by - cx * dx + cy * dy) ** 2
                + (ax * by + ay * bx - cx * dy - cy * dx) ** 2
                for (ax, ay), (bx, by), (cx, cy), (dx, dy) in
                ((p[a], q[b], q[a], p[b]) for p, q in pairs))
    return total


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded, for ints num >= 0 and den > 0.

    The integer square root carries at least 59 bits and a sticky low bit
    for any inexact remainder, so its one int / int division by a power of
    two rounds as the exact root would.
    """
    e = max(0, (120 - num.bit_length() + den.bit_length()) // 2 + 1)
    q, rem = divmod(num << 2 * e, den)
    r = math.isqrt(q)
    if rem or r * r != q:
        r |= 1
    return r / (1 << e)


@dataclass(frozen=True)
class PublishedGenerator:
    """One entry of the published three-qubit generator list g1..g12."""

    label: str
    lhs: tuple[tuple[int, ...], tuple[int, ...]]
    rhs: tuple[tuple[int, ...], tuple[int, ...]]
    minor: MinorSpec | None
    discrepancy: str | None


# the published g1..g12 binomials, as (index pair, index pair)
_PUBLISHED_G = (
    (((0, 0, 0), (1, 1, 0)), ((0, 1, 0), (1, 0, 0))),
    (((0, 0, 1), (1, 1, 1)), ((0, 1, 1), (1, 0, 1))),
    (((0, 0, 1), (1, 0, 1)), ((0, 0, 1), (1, 0, 0))),
    (((0, 1, 0), (1, 1, 1)), ((0, 1, 1), (1, 1, 0))),
    (((0, 0, 0), (0, 1, 1)), ((0, 0, 1), (0, 1, 0))),
    (((1, 0, 0), (1, 1, 1)), ((1, 0, 1), (1, 1, 0))),
    (((0, 0, 0), (1, 1, 1)), ((0, 0, 1), (1, 1, 0))),
    (((0, 0, 0), (1, 1, 1)), ((0, 1, 0), (1, 0, 1))),
    (((0, 0, 0), (1, 1, 1)), ((0, 1, 1), (1, 0, 0))),
    (((0, 0, 1), (1, 1, 0)), ((0, 1, 0), (1, 0, 1))),
    (((0, 1, 0), (1, 0, 1)), ((0, 1, 1), (1, 0, 0))),
    (((0, 1, 0), (1, 0, 1)), ((0, 1, 1), (1, 0, 0))),
)


def three_qubit_generators() -> tuple[PublishedGenerator, ...]:
    """The published g1..g12 list matched against the canonical minor set.

    Entries whose printed binomial is not a valid exchange minor, or which
    repeat an earlier entry verbatim, carry a discrepancy note instead of
    being silently repaired.
    """
    by_key = {minor.key(): minor for minor in segre_minors((2, 2, 2))}
    out = []
    used = {}
    for pos, (lhs, rhs) in enumerate(_PUBLISHED_G, start=1):
        label = f"g{pos}"
        key = frozenset((frozenset(lhs), frozenset(rhs)))
        minor = by_key.get(key)
        if minor is None:
            out.append(PublishedGenerator(
                label, lhs, rhs, None,
                "printed binomial is not a two-by-two exchange minor"))
            continue
        if key in used:
            out.append(PublishedGenerator(
                label, lhs, rhs, minor,
                f"printed binomial repeats {used[key]} verbatim"))
            continue
        used[key] = label
        out.append(PublishedGenerator(label, lhs, rhs, minor, None))
    return tuple(out)
