"""Multipartite pure states, the Segre map, minor ideals, and separability."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .rationals import ComplexRational, magnitude


def check_shape(shape) -> tuple[int, ...]:
    shape = tuple(int(n) for n in shape)
    if len(shape) < 1:
        raise ValueError("a system needs at least one party")
    if any(n < 2 for n in shape):
        raise ValueError("every local dimension must be at least 2")
    return shape


@dataclass
class PureState:
    """Amplitude tensor over a system shape; zero entries are omitted.

    Amplitude values may be exact (ints, Fractions, ComplexRational) or
    floating (float, complex); operations state which arithmetic they use.
    """

    shape: tuple[int, ...]
    amplitudes: dict

    def __init__(self, shape, amplitudes):
        self.shape = check_shape(shape)
        cleaned = {}
        for idx, value in dict(amplitudes).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != len(self.shape) or \
                    any(not 0 <= i < n for i, n in zip(idx, self.shape)):
                raise ValueError(f"index {idx} out of range for shape {self.shape}")
            if value:
                cleaned[idx] = value
        if not cleaned:
            raise ValueError("state must have at least one nonzero amplitude")
        self.amplitudes = cleaned

    def amplitude(self, index):
        return self.amplitudes.get(tuple(index), 0)

    def indices(self):
        return product(*(range(n) for n in self.shape))

    def norm_squared(self) -> float:
        return sum(magnitude(v) ** 2 for v in self.amplitudes.values())

    def scaled(self, factor) -> "PureState":
        return PureState(self.shape,
                         {i: factor * v for i, v in self.amplitudes.items()})


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
    """Amplitude at (i_1,...,i_m) equals the product of local amplitudes."""
    amps = {}
    for idx in product(*(range(len(v)) for v in p.locals)):
        value = 1
        for v, i in zip(p.locals, idx):
            value = value * v[i]
        if value:
            amps[idx] = value
    return PureState(p.shape, amps)


def segre_minors(shape) -> tuple[MinorSpec, ...]:
    """The complete duplicate-free list of nontrivial minors for a shape.

    Ordered by (mode, local index pair, complement pair).  A minor of two
    modes s < j (index pairs differing in exactly two slots) is kept under s:
    mode j skips the complement pairs that differ in one slot only, s < j.
    """
    shape = check_shape(shape)
    m = len(shape)
    minors = []
    for mode in range(m):
        others = [n for j, n in enumerate(shape) if j != mode]
        complements = sorted(product(*(range(n) for n in others)))
        pairs = []
        for c, c2 in combinations(complements, 2):
            diff = [s for s in range(m - 1) if c[s] != c2[s]]
            if not (len(diff) == 1 and diff[0] < mode):
                pairs.append((c, c2))
        for a, b in combinations(range(shape[mode]), 2):
            for c, c2 in pairs:
                minors.append(MinorSpec(mode, c[:mode] + (a,) + c[mode:],
                                        c2[:mode] + (b,) + c2[mode:]))
    return tuple(minors)


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
    non-separable verdict the maximal violating minor is reported.  Scaling
    a state never changes the verdict, also for exact states beyond float
    range; their reported minor magnitudes are rounded to floats (infinite
    above the float range).
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    k = _float_range_shift(state)
    if k == 0:
        return _float_verdict(state, tol)
    # an exact state whose peak |a|^2 lies outside float range is decided on
    # state / 2^k, which has the same relative verdict, and scaled back
    r = _float_verdict(state.scaled(Fraction(2) ** -k), tol)
    if r.witness is not None:
        first = tuple(x * Fraction(2) ** k for x in r.witness.locals[0])
        r.witness = ProductState((first,) + r.witness.locals[1:])
    if r.worst_value is not None:
        r.worst_value = complex(_ldexp(r.worst_value.real, 2 * k),
                                _ldexp(r.worst_value.imag, 2 * k))
    r.max_violation = _ldexp(r.max_violation, 2 * k)
    return r


# the peak |a|^2 of an exact state decided as it is: a normal float whose
# double, the largest possible minor, is still finite
_FLOAT_SAFE = (Fraction(2) ** -1022, Fraction(2) ** 1023)


def _float_range_shift(state: PureState) -> int:
    """0, or for an exact state whose peak |a|^2 lies outside _FLOAT_SAFE
    the k that brings the peak |a|^2 of state / 2^k near 1."""
    if not _is_exact(state):
        return 0
    peak2 = max(v.magnitude_squared() if isinstance(v, ComplexRational)
                else Fraction(v) ** 2 for v in state.amplitudes.values())
    if _FLOAT_SAFE[0] <= peak2 < _FLOAT_SAFE[1]:
        return 0
    return (peak2.numerator.bit_length() - peak2.denominator.bit_length()) // 2


def _is_exact(state: PureState) -> bool:
    return all(isinstance(v, (int, Fraction, ComplexRational))
               for v in state.amplitudes.values())


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, infinite where that exceeds the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _float_verdict(state: PureState, tol: float) -> SeparabilityResult:
    peak = max(magnitude(v) for v in state.amplitudes.values())
    if peak == 0:
        raise ValueError("state is zero")
    if _is_exact(state):
        # exactly the rank-one tensors, on which every minor vanishes, are
        # rebuilt by their witness
        witness = _witness(state)
        if segre_map(witness).amplitudes == state.amplitudes:
            return SeparabilityResult(True, 0.0, witness, None)
    # the first largest minor as a float; if every float is 0, the first
    # exactly nonzero one
    minor, value, raw = max(
        ((minor, complex(raw), raw) for minor in segre_minors(state.shape)
         for raw in (minor_value(state, minor),)),
        key=lambda t: (abs(t[1]), bool(t[2])), default=(None, 0j, 0))
    # at tol 0 the verdict is exact: a nonzero minor too small for a float
    # still rules out separability
    if abs(value) <= tol * peak * peak and not (tol == 0 and raw):
        return SeparabilityResult(True, abs(value), _witness(state), None)
    return SeparabilityResult(False, abs(value), None, minor, value)


def _witness(state: PureState) -> ProductState:
    """Product state agreeing with the tensor when all minors vanish."""
    peak_idx = max(state.amplitudes,
                   key=lambda i: (magnitude(state.amplitudes[i]), i))
    peak = state.amplitudes[peak_idx]
    locs = []
    for j, n in enumerate(state.shape):
        row = tuple(
            state.amplitude(peak_idx[:j] + (i,) + peak_idx[j + 1:])
            for i in range(n))
        locs.append(row)
    m = len(state.shape)
    if m > 1:
        scale = peak ** (m - 1)
        locs[0] = tuple(_exact_div(x, scale) for x in locs[0])
    return ProductState(locs)


def _exact_div(x, scale):
    if isinstance(x, int) and isinstance(scale, int):
        return Fraction(x, scale)
    return x / scale


def concurrence(state: PureState, weights=None) -> float:
    """2 * sqrt(sum of weighted squared minor magnitudes); needs a normalized state.

    Default weight is 1 per canonical minor, which reproduces the standard
    two-qubit concurrence 2|a00 a11 - a01 a10|; weights must be finite and
    nonnegative.
    """
    norm2 = state.norm_squared()
    if abs(norm2 - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized: sum |amp|^2 = {norm2}")
    minors = segre_minors(state.shape)
    if weights is None:
        weights = [1.0] * len(minors)
    elif len(weights) != len(minors):
        raise ValueError(f"expected {len(minors)} weights, got {len(weights)}")
    elif not all(0 <= w < math.inf for w in weights):
        raise ValueError("weights must be finite and nonnegative")
    total = 0.0
    for w, minor in zip(weights, minors):
        total += w * abs(complex(minor_value(state, minor))) ** 2
    return 2.0 * math.sqrt(total)


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
