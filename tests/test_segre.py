"""Segre map, minor ideal, separability, and the minor-norm concurrence."""

import cmath
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

import oracles
from conftest import random_complex_rational, random_product_state
import qtoric.segre as segre
from qtoric import jsonio
from qtoric import (ProductState, PureState, concurrence, is_separable,
                    minor_value, segre_map, segre_minors,
                    three_qubit_generators)
from qtoric.rationals import ComplexRational

SQ2 = 1 / math.sqrt(2)
# the value types a state holds exactly
EXACT = (int, Fraction, ComplexRational)


def bell():
    return PureState((2, 2), {(0, 0): SQ2, (1, 1): SQ2})


def ghz():
    return PureState((2, 2, 2), {(0, 0, 0): SQ2, (1, 1, 1): SQ2})


def to_array(state: PureState) -> np.ndarray:
    out = np.zeros(state.shape, dtype=complex)
    for idx, value in state.amplitudes.items():
        out[idx] = complex(value)
    return out


_small = hs.fractions(-3, 3, max_denominator=4)
_exact_entries = hs.one_of(hs.integers(-3, 3), _small,
                           hs.builds(ComplexRational, _small, _small))
# local amplitudes, zeros included: exact values alone, or exact values
# mixed with floats
LOCAL_ENTRIES = (
    _exact_entries,
    hs.one_of(_exact_entries, hs.floats(-1e3, 1e3),
              hs.complex_numbers(max_magnitude=1e3)))


class TestSegreMap:
    def test_basis_product(self):
        st = segre_map(ProductState(((1, 0), (1, 0))))
        assert st.amplitudes == {(0, 0): 1}

    def test_uniform_product(self):
        st = segre_map(ProductState(((1, 1), (1, 1))))
        assert st.amplitudes == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}

    def test_direct_multiplication(self):
        st = segre_map(ProductState(((1, 2), (3, 4))))
        assert st.amplitudes == {(0, 0): 3, (0, 1): 4, (1, 0): 6, (1, 1): 8}

    def test_zero_local_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            ProductState(((0, 0), (1, 0)))

    @given(hs.lists(hs.integers(2, 3), min_size=1, max_size=4).flatmap(
        lambda shape: hs.one_of(*(
            hs.tuples(*(hs.lists(entry, min_size=n, max_size=n).filter(any)
                        for n in shape))
            for entry in LOCAL_ENTRIES))))
    def test_matches_indexwise_product(self, locs):
        # same values and key order, zero products omitted; exact locals
        # mixing int, Fraction and ComplexRational are multiplied as Gaussian
        # integers over one denominator, and with a floating local every
        # local is multiplied as a complex float
        exact = all(isinstance(x, EXACT) for v in locs for x in v)
        expected = oracles.segre_product(
            locs if exact else [[complex(x) for x in v] for v in locs])
        if not expected:
            with pytest.raises(ValueError, match="nonzero amplitude"):
                segre_map(ProductState(locs))
            return
        st = segre_map(ProductState(locs))
        assert list(st.amplitudes.items()) == list(expected.items())
        if exact:
            table, d = segre._gaussian(st)
            assert st._d is not None and list(table) == list(expected)
            assert all(oracles._exact_parts(expected[i]) ==
                       (Fraction(x, d), Fraction(y, d))
                       for i, (x, y) in table.items())
        else:
            assert all(type(v) is complex for v in st.amplitudes.values())


def times(state, factor):
    """The state times factor: exactly when both are exact, else in complex
    floats."""
    exact = state._d is not None and isinstance(factor, EXACT)
    return PureState(state.shape, {
        i: factor * v if exact else complex(factor) * complex(v)
        for i, v in state.amplitudes.items()})


def _view_types(st):
    return {i: type(v) for i, v in st.amplitudes.items()}


class TestOneDescription:
    """A state holds its table alone; ``amplitudes`` reads it by one rule:
    a real exact value as a Fraction, another exact one as a
    ComplexRational, a floating one as a complex."""

    @given(hs.lists(hs.integers(2, 3), min_size=1, max_size=3).flatmap(
        lambda shape: hs.tuples(*(
            hs.lists(_exact_entries, min_size=n, max_size=n).filter(any)
            for n in shape))))
    def test_equal_states_read_alike(self, locs):
        shape, amps = tuple(map(len, locs)), oracles.segre_product(locs)
        parts = {i: oracles._exact_parts(v) for i, v in amps.items()}
        doc = {"shape": list(shape), "amplitudes": [
            {"index": list(i), "re": str(re), "im": str(im)}
            for i, (re, im) in parts.items()]}
        states = [PureState(shape, amps), jsonio.state_from_json(doc),
                  segre_map(ProductState(locs)),
                  PureState.from_parts(shape, {
                      i: tuple(x.as_integer_ratio() for x in p)
                      for i, p in parts.items()})]
        assert all(sorted(vars(st)) == ["_d", "_table", "shape"]
                   for st in states)
        assert all(st.amplitudes == amps for st in states)
        types = {i: ComplexRational if im else Fraction
                 for i, (_, im) in parts.items()}
        assert all(_view_types(st) == types for st in states)

    def test_equal_float_states_read_alike(self):
        locs = ((0.6, 0.8j), (1, 0.5))
        amps = oracles.segre_product(
            [[complex(x) for x in v] for v in locs])
        doc = {"shape": [2, 2], "amplitudes": [
            {"index": list(i), "re": v.real, "im": v.imag}
            for i, v in amps.items()]}
        states = [PureState((2, 2), amps), jsonio.state_from_json(doc),
                  segre_map(ProductState(locs))]
        assert all(sorted(vars(st)) == ["_d", "_table", "shape"]
                   for st in states)
        assert all(st.amplitudes == amps and
                   set(_view_types(st).values()) == {complex}
                   for st in states)

    def test_equality_reads_the_amplitudes(self):
        exact = PureState((2, 2), {(0, 0): Fraction(1, 2),
                                   (1, 1): Fraction(-3, 4)})
        assert exact == PureState((2, 2), {(0, 0): 0.5, (1, 1): -0.75})
        assert exact != PureState((4,), {(0,): Fraction(1, 2),
                                         (3,): Fraction(-3, 4)})
        assert exact != PureState((2, 2), {(0, 0): Fraction(1, 2),
                                           (1, 1): Fraction(3, 4)})
        assert exact.__eq__(3) is NotImplemented
        # equal values are equal, whether or not a value is real
        gaussian = PureState((2,), {(0,): ComplexRational(1, 1)})
        assert gaussian == PureState((2,), {(0,): 1 + 1j})
        third = PureState((2,), {(0,): ComplexRational(Fraction(1, 3), 1)})
        assert third != PureState((2,), {(0,): complex(1 / 3, 1)})
        # segre_map holds D = 2 * 3, not the least denominator 3
        locs = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(2, 3), Fraction(4, 3))]
        image = segre_map(ProductState(locs))
        rebuilt = PureState(image.shape, oracles.segre_product(locs))
        assert image._d != rebuilt._d and image == rebuilt
        # a part that is not finite makes no state to compare
        for bad in (math.inf, math.nan, complex(1, math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                PureState((2,), {(0,): bad})
        # equality reads the held tables, not the amplitudes view
        assert all("amplitudes" not in st.__dict__
                   for st in (exact, gaussian, third, image, rebuilt))

    @pytest.mark.parametrize("exact, floating, equal", [
        (Fraction(1, 2), 0.5, True),
        (ComplexRational(1, 1), 1 + 1j, True),
        (ComplexRational(Fraction(1, 3), 1), complex(1 / 3, 1), False),
        (Fraction(1, 2), math.inf, None),
        (Fraction(1, 2), complex(math.nan, 0), None),
    ], ids=["real", "gaussian", "third", "inf", "nan"])
    def test_equality_reads_the_same_either_way_round(self, exact, floating,
                                                       equal):
        a = PureState((2,), {(1,): exact})
        if equal is None:
            # a part that is not finite is refused, so equals nothing
            with pytest.raises(ValueError, match="must be finite"):
                PureState((2,), {(1,): floating})
            return
        b = PureState((2,), {(1,): floating})
        assert (a == b) is (b == a) is equal
        assert (a != b) is (b != a) is (not equal)
        # the same value at another index is another state
        assert a != PureState((2,), {(0,): floating}) != a

    def test_minor_of_exact_beside_float_value(self):
        st = PureState((2, 2), {(0, 0): ComplexRational(Fraction(1, 2)),
                                (1, 1): 0.5})
        value = minor_value(st, segre_minors((2, 2))[0])
        assert value == 0.25 and type(value) is complex

    def test_segre_map_of_complex_rational_beside_float(self):
        st = segre_map(ProductState(
            [(1, ComplexRational(Fraction(1, 2), Fraction(1, 3))), (1, 0.5)]))
        assert st.amplitudes == {(0, 0): 1, (0, 1): 0.5,
                                 (1, 0): complex(0.5, 1 / 3),
                                 (1, 1): complex(0.25, 1 / 6)}
        assert set(_view_types(st).values()) == {complex}

    def test_segre_map_of_fraction_beside_float(self):
        st = segre_map(ProductState([(Fraction(1, 2), 1), (1, 0.5)]))
        assert st.amplitudes == {(0, 0): 0.5, (0, 1): 0.25, (1, 0): 1,
                                 (1, 1): 0.5}
        assert set(_view_types(st).values()) == {complex}

    @given(hs.sampled_from([(2,), (3,), (2, 2), (2, 3)]).flatmap(
        lambda shape: hs.tuples(hs.just(shape), hs.dictionaries(
            # now and then one slot past the shape: an index out of range
            hs.one_of(*[indices(shape)] * 4, indices(tuple(n + 1 for n in shape))),
            MIXED_VALUES, min_size=1, max_size=5))))
    @example(((2,), {(0,): 1.0, (1,): Fraction(1, 10 ** 400)}))
    def test_constructor_and_reader_build_alike(self, case):
        # one builder: the values and the document of the same amplitudes
        # give the same table over the same denominator, or the same error
        shape, values = case
        doc = {"shape": list(shape), "amplitudes": [
            {"index": list(i), **_document_parts(v)} for i, v in values.items()]}
        built = [_built(lambda: PureState(shape, values)),
                 _built(lambda: jsonio.state_from_json(doc))]
        if isinstance(built[0], tuple):
            assert built[0] == built[1]
            return
        st, read = built
        assert st.shape == read.shape and st._d == read._d
        assert list(st._table.items()) == list(read._table.items())
        assert st == read


# amplitude values of every kind, zeros included, and exact values that
# round to 0 or overflow beside a float
MIXED_VALUES = hs.one_of(
    _exact_entries, hs.just(0.0), hs.just(Fraction(0)),
    hs.floats(-1e3, 1e3), hs.complex_numbers(max_magnitude=1e3),
    hs.sampled_from([Fraction(1, 10 ** 400), ComplexRational(0, 10 ** 400),
                     Fraction(-10 ** 400, 3)]))


def _document_parts(value):
    """The JSON parts of an amplitude value: exact parts as 'p/q' strings,
    float parts as numbers."""
    if isinstance(value, (int, Fraction, ComplexRational)):
        return dict(zip(("re", "im"), map(str, oracles._exact_parts(value))))
    z = complex(value)
    return {"re": z.real, "im": z.imag}


def _built(make):
    """make(), or the type and message of the error it raises."""
    try:
        return make()
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestSegreMinors:
    def test_two_qubit_single_minor(self):
        minors = segre_minors((2, 2))
        assert len(minors) == 1
        m = minors[0]
        assert (m.k, m.l) == ((0, 0), (1, 1))
        assert m.swapped() == ((1, 0), (0, 1))

    def test_three_qubit_count(self):
        # 18 raw mode-minors (one per mode and complement pair) collapse to 12
        shape = (2, 2, 2)
        raw = 0
        for j in range(3):
            complements = 4  # {0,1}^2 choices for the other two slots
            raw += complements * (complements - 1) // 2
        assert raw == 18
        assert len(segre_minors(shape)) == 12

    def test_single_party_empty(self):
        assert segre_minors((2,)) == ()

    def test_counts_against_brute_force(self):
        for shape in [(2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2), (3, 4),
                      (2, 2, 3), (2, 2, 2, 2)]:
            got = {m.key() for m in segre_minors(shape)}
            assert len(got) == len(segre_minors(shape))
            assert got == _brute_force_minor_keys(shape)
            assert segre._minor_count(shape) == len(segre_minors(shape))

    def test_no_identically_zero_minors(self, rng):
        for shape in [(2, 2), (2, 2, 2), (2, 3)]:
            for minor in segre_minors(shape):
                k2, l2 = minor.swapped()
                assert {minor.k, minor.l} != {k2, l2}


class TestSeparability:
    def test_segre_images_are_separable(self, rng):
        for shape in [(2, 2), (2, 2, 2), (2, 3)]:
            for _ in range(10):
                st = segre_map(random_product_state(rng, shape))
                verdict = is_separable(st, tol=1e-10)
                assert verdict.separable
                assert verdict.witness is not None

    def test_bell_state_violation(self):
        verdict = is_separable(bell(), tol=1e-10)
        assert not verdict.separable
        assert verdict.worst_minor is not None
        assert abs(verdict.max_violation - 0.5) < 1e-12

    def test_ghz_violation(self):
        verdict = is_separable(ghz(), tol=1e-10)
        assert not verdict.separable
        assert abs(verdict.max_violation - 0.5) < 1e-12
        k2, l2 = verdict.worst_minor.swapped()
        assert {verdict.worst_minor.k, verdict.worst_minor.l} == \
            {(0, 0, 0), (1, 1, 1)}

    def test_witness_reconstructs_state_exactly(self, rng):
        for shape in [(2, 2), (2, 2, 2), (3, 3)]:
            st = segre_map(random_product_state(rng, shape))
            verdict = is_separable(st, tol=0.0)
            assert verdict.separable
            rebuilt = segre_map(verdict.witness)
            assert rebuilt.amplitudes == st.amplitudes

    def test_random_entangled_states_detected(self, rng):
        for shape in [(2, 2), (2, 2, 2)]:
            found = 0
            while found < 100:
                amps = {idx: complex(rng.gauss(0, 1), rng.gauss(0, 1))
                        for idx in product(*(range(n) for n in shape))}
                st = PureState(shape, amps)
                norm = math.sqrt(st.norm_squared())
                st = times(st, 1 / norm)
                if oracles.best_rank_one_residual(to_array(st)) <= 0.1:
                    continue
                found += 1
                assert not is_separable(st, tol=1e-8).separable

    def test_scaling_invariance_of_verdict(self, rng):
        st = segre_map(random_product_state(rng, (2, 2, 2)))
        ent = ghz()
        for factor in (3, Fraction(1, 7)):
            assert is_separable(times(st, factor), tol=1e-10).separable
        for factor in (5.0, 0.01):
            assert not is_separable(times(ent, factor), tol=1e-10).separable

    def test_minors_scale_quadratically(self, rng):
        amps = {idx: random_complex_rational(rng)
                for idx in product((0, 1), repeat=3)}
        st = PureState((2, 2, 2), amps)
        scaled = times(st, Fraction(3))
        for minor in segre_minors((2, 2, 2)):
            assert minor_value(scaled, minor) == 9 * minor_value(st, minor)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            is_separable(bell(), tol=-1.0)

    def test_zero_tolerance_is_exact_below_float_underflow(self):
        tiny = ComplexRational(Fraction(1, 10 ** 400))
        one = ComplexRational(Fraction(1))
        st = PureState((2, 2), {(0, 0): one, (0, 1): one,
                                (1, 0): one, (1, 1): one + tiny})
        verdict = is_separable(st, tol=0.0)
        assert not verdict.separable
        assert verdict.worst_minor is not None
        # the violation is real but far below float resolution
        assert verdict.max_violation == 0.0
        assert is_separable(st, tol=1e-10).separable

    @pytest.mark.parametrize("factor", [Fraction(10) ** 400,
                                        Fraction(1, 10 ** 400)],
                             ids=["1e400", "1e-400"])
    def test_exact_verdict_survives_scaling_beyond_float_range(self, rng,
                                                               factor):
        st = times(segre_map(random_product_state(rng, (2, 2, 2))), factor)
        verdict = is_separable(st)
        assert verdict.separable
        assert verdict.max_violation == 0.0
        assert segre_map(verdict.witness).amplitudes == st.amplitudes
        one = ComplexRational(Fraction(1))
        ent = times(PureState((2, 2), {(0, 0): one, (1, 1): one}), factor)
        verdict = is_separable(ent)
        assert not verdict.separable
        assert (verdict.worst_minor.k, verdict.worst_minor.l) == \
            ((0, 0), (1, 1))
        # the minor, factor^2, rounds to a float: infinite above its range,
        # zero below it
        assert verdict.max_violation == (math.inf if factor > 1 else 0.0)
        tiny = ComplexRational(Fraction(1, 10 ** 400))
        near = times(PureState((2, 2), {(0, 0): one, (0, 1): one, (1, 0): one,
                                        (1, 1): one + tiny}), factor)
        assert not is_separable(near, tol=0.0).separable
        assert is_separable(near, tol=1e-10).separable

    @pytest.mark.parametrize("e", [-700, 700])
    def test_float_verdict_survives_scaling_beyond_float_range(self, e):
        # at 2^-700 every product of two amplitudes underflows to 0, at
        # 2^700 it overflows; the verdict is decided on a copy near 1
        def scaled(st):
            return PureState(st.shape, {i: complex(v) * 2.0 ** e
                                        for i, v in st.amplitudes.items()})
        for st in (bell(), ghz()):
            verdict = is_separable(scaled(st), tol=0.0)
            assert not verdict.separable
            assert verdict.worst_minor == is_separable(st).worst_minor
            assert verdict.max_violation == (math.inf if e > 0 else 0.0)
        locs = ((0.6, 0.8j), (SQ2, -SQ2), (0.28, 0.96))
        st = scaled(segre_map(ProductState(locs)))
        verdict = is_separable(st)
        assert verdict.separable and verdict.max_violation == 0.0
        rebuilt = segre_map(verdict.witness)
        for idx, v in st.amplitudes.items():
            assert abs(complex(rebuilt.amplitude(idx)) - v) <= 1e-12 * abs(v)

    @pytest.mark.parametrize(
        "m, value", [(4, 1e-120), (40, 1e-10), (5, 1e100)],
        ids=["4q-1e-120", "40q-1e-10", "5q-1e100"])
    def test_float_witness_scale_beyond_float_range(self, m, value):
        # the peak amplitude P is in range, but the P^(m-1) the witness
        # divides by underflows or overflows unless the state is shifted
        verdict = is_separable(PureState((2,) * m, {(0,) * m: value}))
        assert verdict.separable and verdict.max_violation == 0.0
        # entry by entry: segre_map of 40 parties enumerates 2^40 prefixes
        locs = verdict.witness.locals
        assert all(v[1] == 0 for v in locs)
        rebuilt = math.prod(complex(v[0]) for v in locs)
        assert abs(rebuilt - value) <= 1e-15 * value

    @pytest.mark.parametrize("m", [2, 40, 1025, 1080, 3000])
    @pytest.mark.parametrize(
        "value", [1.0, 0.5, 1.4, 0.9 + 0.9j, 1e-300, 1e300, 1e-120,
                  complex(math.ldexp(1.8, -600), math.ldexp(1.8, -600))],
        ids=["1", "0.5", "1.4", "0.9+0.9j", "1e-300", "1e300", "1e-120",
             "1.8(1+j)2^-600"])
    def test_float_witness_past_the_power_range(self, m, value):
        # the first row divided by P^(m-1) and scaled back by 2^k leaves the
        # float range from about 1,025 parties; P^(m-1) itself underflows
        # from about 1,076, or overflows; at 1.8(1+j)2^-600 on 3,000 parties
        # the divided first row underflows to zero
        verdict = is_separable(PureState((2,) * m, {(0,) * m: value}))
        assert verdict.separable
        locs = verdict.witness.locals
        assert all(cmath.isfinite(x) for v in locs for x in v)
        # entry by entry: segre_map would enumerate 2^m prefixes
        rebuilt = math.prod(v[0] for v in locs)
        assert abs(rebuilt - value) <= 1e-12 * abs(value)

    def test_float_witness_writes_zeros_as_floats(self):
        verdict = is_separable(PureState((2, 2), {(0, 0): 1.0}))
        assert [[type(x) for x in v] for v in verdict.witness.locals] == \
            [[complex, complex]] * 2

    @pytest.mark.parametrize("build, message", [
        (lambda: segre.check_shape(()), "a system needs at least one party"),
        (lambda: ProductState([]), "a product state needs at least one party"),
        (lambda: ProductState([(1,)]),
         "every local vector needs dimension >= 2"),
        (lambda: ProductState([(1, 0), (0, 0)]), "local vectors must be nonzero"),
    ], ids=["empty-shape", "no-party", "short-local", "zero-local"])
    def test_shape_messages(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("build, entry", [
        (lambda: segre_minors((2.5, 2)), "2.5"),
        (lambda: PureState((2.9, 2), {(1, 1): 1}), "2.9"),
        (lambda: segre.check_shape(("3", 2)), "'3'"),
    ], ids=["minors", "state", "string"])
    def test_non_integer_local_dimension_refused(self, build, entry):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == f"local dimension {entry} is not an integer"

    def test_numpy_local_dimensions_pass(self):
        shape = segre.check_shape((np.int64(3), np.int32(2)))
        assert shape == (3, 2) and all(type(n) is int for n in shape)

    @pytest.mark.parametrize("index, entry", [
        ((1.7, 0.2), "1.7"), (("1", 0), "'1'"),
    ], ids=["float", "string"])
    def test_non_integer_index_refused(self, index, entry):
        # both were once truncated to the index (1, 0)
        with pytest.raises(ValueError) as info:
            PureState((2, 2), {index: 1})
        assert str(info.value) == f"index entry {entry} is not an integer"

    def test_numpy_index_entries_pass(self):
        st = PureState((2, 3), {(np.int64(1), np.int32(2)): 1})
        assert st.amplitudes == {(1, 2): 1}
        assert all(type(a) is int for a in next(iter(st.amplitudes)))

    def test_result_truth_is_the_verdict(self):
        assert is_separable(segre_map(ProductState([(1, 2), (3, 4)])))
        assert not is_separable(bell())

    @pytest.mark.parametrize("call, part", [
        # once separable=True with max_violation inf, and a nan witness
        (lambda: is_separable(PureState((2, 2), {(0, 0): math.inf,
                                                 (1, 1): 1.0})), "inf"),
        # once max_violation nan
        (lambda: is_separable(PureState((2, 2), {(0, 0): math.nan,
                                                 (1, 1): 1.0})), "nan"),
        # once "cannot convert NaN to integer ratio"
        (lambda: concurrence(PureState((2, 2), {(0, 0): math.nan,
                                                (1, 1): 1.0})), "nan"),
        # once an amplitude of inf: 1e200 * 1e200 overflows a float
        (lambda: segre_map(ProductState([(1e200, 1.0), (1e200, 1.0)])), "inf"),
        (lambda: PureState((2, 2), {(0, 0): 1.0, (1, 1): complex(1, -math.inf)}),
         "-inf"),
        # an exact part beside them, and the real part reported first
        (lambda: PureState.from_parts((2, 2), {(0, 0): ((1, 2), 0.0),
                                              (1, 1): (math.nan, math.inf)}),
         "nan"),
    ], ids=["separable-inf", "separable-nan", "concurrence-nan", "segre-map",
            "imaginary-inf", "from-parts"])
    def test_non_finite_part_refused(self, call, part):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"amplitude parts must be finite, got {part}"

    def test_zero_state_unconstructible(self):
        with pytest.raises(ValueError, match="nonzero"):
            PureState((2, 2), {})

    def test_single_party_always_separable(self):
        st = PureState((3,), {(0,): 0.6, (2,): 0.8})
        verdict = is_separable(st)
        assert verdict.separable
        assert verdict.witness.locals == ((0.6, 0, 0.8),)
        assert abs(concurrence(st)) == 0.0


def per_minor_concurrence(state, weights):
    """The weighted concurrence minor by minor: one MinorSpec and one
    minor_value call per canonical minor, in the library's number types."""
    total = 0.0
    for w, minor in zip(weights, segre_minors(state.shape)):
        total += w * abs(complex(minor_value(state, minor))) ** 2
    return 2.0 * math.sqrt(total)


def refuse_per_minor(*args, **kwargs):
    raise AssertionError("a minor was built or evaluated one by one")


class TestConcurrence:
    def test_bell_state(self):
        assert abs(concurrence(bell()) - 1.0) < 1e-12

    def test_product_state(self):
        locs = ((0.6, 0.8), (SQ2, SQ2))
        st = segre_map(ProductState(locs))
        assert abs(concurrence(st)) < 1e-12

    def test_ghz_default_weights(self):
        assert abs(concurrence(ghz()) - math.sqrt(3)) < 1e-12

    def test_w_state_default_weights(self):
        # three minors of magnitude 1/3 survive, so C = 2 * sqrt(3/9)
        s3 = 1 / math.sqrt(3)
        w = PureState((2, 2, 2),
                      {(0, 0, 1): s3, (0, 1, 0): s3, (1, 0, 0): s3})
        assert abs(concurrence(w) - 2 / math.sqrt(3)) < 1e-12
        assert not is_separable(w).separable

    def test_custom_weights(self):
        minors = segre_minors((2, 2, 2))
        weights = [0.0] * len(minors)
        assert concurrence(ghz(), weights) == 0.0
        with pytest.raises(ValueError, match="weights"):
            concurrence(ghz(), [1.0])
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="weights"):
                concurrence(ghz(), [bad] + [1.0] * (len(minors) - 1))

    @given(hs.sampled_from([(2, 2), (2, 2, 2), (3, 3), (2, 5), (2, 3, 4),
                            (2, 2, 2, 3)]).flatmap(lambda shape: hs.one_of(
               exact_unit_states(shape),
               hs.one_of(float_states(shape), sparse_states(shape)).filter(
                   lambda st: st.norm_squared() > 1e-300).map(normalized))),
           hs.randoms(use_true_random=False))
    def test_weighted_sum_matches_the_per_minor_loop(self, st, rng):
        weights = [rng.choice((0.0, rng.random(), rng.randint(1, 9)))
                   for _ in segre_minors(st.shape)]
        expected = per_minor_concurrence(st, weights)
        # no minor is built or evaluated one by one
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(segre.MinorSpec, "__init__", refuse_per_minor)
            mp.setattr(segre, "minor_value", refuse_per_minor)
            assert concurrence(st, weights) == expected

    def test_weighted_mixed_state_reads_as_complex(self, rng):
        # exact and float values in one library state: the per-minor loop
        # raised TypeError multiplying a ComplexRational by a complex
        amps = {(0, 0, 0): ComplexRational(Fraction(3, 10)),
                (0, 1, 1): ComplexRational(0, Fraction(2, 5)),
                (1, 0, 1): 0.3 + 0.4j, (1, 1, 0): Fraction(-1, 2),
                (1, 1, 1): 0.5}
        mixed = PureState((2, 2, 2), amps)
        floating = PureState((2, 2, 2),
                             {i: complex(v) for i, v in amps.items()})
        weights = [rng.random() for _ in segre_minors((2, 2, 2))]
        assert concurrence(mixed, weights) == concurrence(floating, weights) \
            == per_minor_concurrence(floating, weights)
        assert concurrence(mixed, weights) > 0

    def test_weight_count_checked_before_listing(self, monkeypatch):
        # 40 qubits have about 10^26 minors: listing them never ends
        def boom(shape):
            raise AssertionError("minors listed before the weight count")
        monkeypatch.setattr(segre, "minor_blocks", boom)
        with pytest.raises(ValueError, match=r"expected \d+ weights, got 1"):
            concurrence(star(40, ComplexRational(Fraction(1, 2))), [1.0])

    def test_unnormalized_rejected(self):
        st = PureState((2, 2), {(0, 0): 1.0, (1, 1): 1.0})
        with pytest.raises(ValueError, match="normalized"):
            concurrence(st)

    def test_local_phase_invariance(self, rng):
        amps = {idx: complex(rng.gauss(0, 1), rng.gauss(0, 1))
                for idx in product((0, 1), repeat=2)}
        st = PureState((2, 2), amps)
        st = times(st, 1 / math.sqrt(st.norm_squared()))
        base = concurrence(st)
        for theta1, theta2 in [(0.3, 1.2), (2.1, -0.7), (math.pi, 0.0)]:
            rotated = PureState((2, 2), {
                idx: v * cmath.exp(1j * (theta1 * idx[0] + theta2 * idx[1]))
                for idx, v in st.amplitudes.items()})
            assert abs(concurrence(rotated) - base) < 1e-12

    def test_two_qubit_closed_form(self, rng):
        for _ in range(10):
            amps = {idx: complex(rng.gauss(0, 1), rng.gauss(0, 1))
                    for idx in product((0, 1), repeat=2)}
            st = PureState((2, 2), amps)
            st = times(st, 1 / math.sqrt(st.norm_squared()))
            a, b, c, d = (st.amplitude(i) for i in
                          [(0, 0), (0, 1), (1, 0), (1, 1)])
            assert abs(concurrence(st) - 2 * abs(a * d - b * c)) < 1e-12


class TestNormSquared:
    @pytest.mark.parametrize("value, expected", [
        (ComplexRational(10 ** 400), math.inf),
        (ComplexRational(Fraction(1, 10 ** 400)), 0.0),
        (1e200, math.inf),
        (ComplexRational(Fraction(3, 5), Fraction(4, 5)), 1.0),
    ], ids=["1e400", "1e-400", "float-1e200", "in-range"])
    def test_rounds_to_the_float_range(self, value, expected):
        # above the float range the sum is inf, not an OverflowError
        assert PureState((2,), {(0,): value}).norm_squared() == expected


class TestExactMinorArithmetic:
    def test_minor_values_exact_zero_on_images(self, rng):
        for shape in [(2, 2), (2, 2, 2), (2, 3), (3, 3)]:
            minors = segre_minors(shape)
            for _ in range(25):
                st = segre_map(random_product_state(rng, shape))
                for minor in minors:
                    assert not minor_value(st, minor)

    def test_perturbation_breaks_every_index(self, rng):
        for shape in [(2, 2), (2, 2, 2)]:
            minors = segre_minors(shape)
            by_index = {}
            for minor in minors:
                k2, l2 = minor.swapped()
                for idx in (minor.k, minor.l, k2, l2):
                    by_index.setdefault(idx, minor)
            st = segre_map(random_product_state(rng, shape))
            for idx in product(*(range(n) for n in shape)):
                bumped = dict(st.amplitudes)
                bumped[idx] = bumped.get(idx, ComplexRational()) + 1
                perturbed = PureState(shape, bumped)
                assert minor_value(perturbed, by_index[idx])


# shapes of 1-4 parties, local dimensions 2-4, at most 48 amplitudes
shapes = hs.lists(hs.integers(2, 4), min_size=1, max_size=4).filter(
    lambda shape: math.prod(shape) <= 48)
rationals = hs.fractions(-3, 3, max_denominator=4)
exact_amplitudes = hs.one_of(hs.integers(-3, 3), rationals,
                             hs.builds(ComplexRational, rationals, rationals))


def product_images(shape, amplitudes=exact_amplitudes):
    return hs.tuples(*(hs.lists(amplitudes, min_size=n, max_size=n).filter(any)
                       for n in shape)).map(
        lambda locs: segre_map(ProductState(locs)))


def changed(state, idx, delta):
    amps = dict(state.amplitudes)
    amps[idx] = state.amplitude(idx) + delta
    return PureState(state.shape, amps) if any(amps.values()) else None


def indices(shape):
    return hs.tuples(*(hs.integers(0, n - 1) for n in shape))


def exact_states(shape):
    """Product states, product states with one amplitude changed, and
    tensors with zero entries."""
    size = math.prod(shape)
    sparse = hs.lists(hs.one_of(hs.just(0), exact_amplitudes),
                      min_size=size, max_size=size).filter(any).map(
        lambda vals: PureState(shape, dict(zip(product(
            *(range(n) for n in shape)), vals))))
    bumped = hs.tuples(product_images(shape), indices(shape),
                       exact_amplitudes.filter(bool)).map(
        lambda t: changed(*t)).filter(lambda st: st is not None)
    return hs.one_of(product_images(shape), bumped, sparse)


class TestExactMembership:
    """The witness identity and the lazy listing against the definitions."""

    @given(shapes)
    def test_minors_match_definitional_listing(self, shape):
        got = [(minor.mode, minor.k, minor.l) for minor in segre_minors(shape)]
        assert got == oracles.segre_minor_listing(shape)

    @given(shapes.flatmap(exact_states))
    def test_exact_verdict_is_all_minors_vanishing(self, st):
        minors = segre_minors(st.shape)
        vanish = all(not minor_value(st, minor) for minor in minors)
        verdict = is_separable(st, 0)
        assert verdict.separable == vanish
        if vanish:
            assert segre_map(verdict.witness).amplitudes == st.amplitudes
        else:
            values = [abs(complex(minor_value(st, minor))) for minor in minors]
            assert verdict.max_violation == max(values)
            assert verdict.worst_minor == minors[values.index(max(values))]

    @given(shapes.filter(lambda shape: len(shape) > 1).flatmap(
        lambda shape: hs.tuples(
            product_images(shape, exact_amplitudes.filter(bool)),
            indices(shape), exact_amplitudes.filter(bool))))
    def test_underflowing_violation_reports_first_nonzero_minor(self, case):
        image, idx, delta = case
        # every local amplitude is nonzero, so the change breaks rank one,
        # but each nonzero minor is about 10^-400 and rounds to float 0
        st = changed(image, idx, delta * Fraction(1, 10 ** 400))
        first = next(minor for minor in segre_minors(st.shape)
                     if minor_value(st, minor))
        verdict = is_separable(st, 0)
        assert not verdict.separable
        assert verdict.worst_minor == first
        assert verdict.max_violation == 0.0 and verdict.worst_value == 0


# the shapes of the rank-one identity: (n,), (2, 3), (3, 2, 4), 2^m for m <= 6
gaussian_shapes = hs.one_of(
    hs.integers(2, 6).map(lambda n: (n,)),
    hs.sampled_from([(2, 3), (3, 2, 4)] + [(2,) * m for m in range(2, 7)]))


def rank_one_cases(shape):
    """Rank-one tensors whose local vectors have zeros, the same with one
    entry changed, each possibly scaled by 10^400 or 10^-400."""
    images = product_images(shape, hs.one_of(hs.just(0), exact_amplitudes))
    bumped = hs.tuples(images, indices(shape),
                       exact_amplitudes.filter(bool)).map(
        lambda t: changed(*t)).filter(lambda st: st is not None)
    return hs.tuples(hs.one_of(images, bumped), hs.sampled_from(
        [1, Fraction(10) ** 400, Fraction(1, 10 ** 400)])).map(
        lambda t: times(t[0], t[1]))


class TestRankOneIdentity:
    """The Gaussian-integer identity T[i] P^(m-1) = prod_j R_j[i_j] against
    the witness identity of oracles, in rational arithmetic."""

    @given(gaussian_shapes.flatmap(rank_one_cases))
    def test_verdict_is_witness_identity(self, st):
        verdict = is_separable(st, 0)
        assert verdict.separable == oracles.rank_one_reference(st)
        if verdict.separable:
            assert verdict.max_violation == 0.0
            assert segre_map(verdict.witness).amplitudes == st.amplitudes

    def test_exact_verdict_runs_no_rational_arithmetic(self, monkeypatch,
                                                       rng):
        shape = (2,) * 6
        one = ComplexRational(1)
        states = [
            PureState(shape, {(0,) * 6: one, (1,) * 6: one}),
            PureState(shape, {idx: random_complex_rational(rng)
                              for idx in product((0, 1), repeat=6)}),
            segre_map(random_product_state(rng, shape))]

        def boom(*args):
            raise AssertionError("rational arithmetic on the verdict path")
        monkeypatch.setattr(segre, "segre_map", boom)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__complex__"):
            monkeypatch.setattr(ComplexRational, name, boom)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
                     "__float__"):
            monkeypatch.setattr(Fraction, name, boom)
        # the separable one builds its witness from Fraction(int, int) alone
        assert [is_separable(st).separable for st in states] == \
            [False, False, True]


# floating amplitudes; the small pool repeats values, so minors tie
float_pool = hs.sampled_from([1.0, -0.5, 0.25j, 0.3 - 0.4j, -1j, 0.1, 1e-30])
float_amplitudes = hs.one_of(float_pool, hs.complex_numbers(
    max_magnitude=4, allow_nan=False, allow_infinity=False))


def float_states(shape):
    size = math.prod(shape)
    return hs.lists(hs.one_of(hs.just(0), float_amplitudes),
                    min_size=size, max_size=size).filter(any).map(
        lambda vals: PureState(shape, dict(zip(product(
            *(range(n) for n in shape)), vals))))


def tie_states(shape):
    """GHZ, W and constant tensors with one entry doubled, exact or float."""
    m = len(shape)
    ghz = [(i,) * m for i in range(min(shape))]
    w = [tuple(int(s == j) for s in range(m)) for j in range(m)]
    flat = list(product(*(range(n) for n in shape)))

    def build(case):
        kind, value = case
        if kind == "flat":
            amps = {idx: value for idx in flat}
            amps[flat[-1]] = 2 * value
            return PureState(shape, amps)
        return PureState(shape, {idx: value for idx in
                                 (ghz if kind == "ghz" else w)})
    values = hs.one_of(exact_amplitudes.filter(bool), float_pool)
    return hs.tuples(hs.sampled_from(["ghz", "w", "flat"]), values).map(build)


def underflowing_states(shape):
    """Product images changed by about 10^-400 in one entry."""
    return hs.tuples(product_images(shape), indices(shape),
                     exact_amplitudes.filter(bool)).map(
        lambda t: changed(t[0], t[1], t[2] * Fraction(1, 10 ** 400))).filter(
        lambda st: st is not None)


def normalized(state):
    """The state in complex floats, scaled to norm 1."""
    root = math.sqrt(state.norm_squared())
    return PureState(state.shape, {idx: complex(v) / root
                                   for idx, v in state.amplitudes.items()})


# unit complex rationals, from Pythagorean triples
phases = hs.sampled_from([ComplexRational(1), ComplexRational(0, -1),
                          ComplexRational(Fraction(3, 5), Fraction(4, 5)),
                          ComplexRational(Fraction(-5, 13), Fraction(12, 13))])


def exact_unit_states(shape):
    """Exact normalized states: a rational point of the unit sphere (inverse
    stereographic projection of t), each entry times a unit phase."""
    size = math.prod(shape)

    def build(case):
        t, ph = case
        s2 = sum(x * x for x in t)
        coords = [2 * x / (s2 + 1) for x in t] + [(s2 - 1) / (s2 + 1)]
        return PureState(shape, {idx: c * p for idx, c, p in zip(
            product(*(range(n) for n in shape)), coords, ph)})
    return hs.tuples(hs.lists(hs.one_of(hs.just(Fraction(0)), rationals),
                              min_size=size - 1, max_size=size - 1),
                     hs.lists(phases, min_size=size, max_size=size)).map(build)


def sparse_states(shape):
    """1-4 nonzero entries, and GHZ or W states with a random phase per
    entry; exact or float."""
    m = len(shape)
    ghz = [(i,) * m for i in range(min(shape))]
    w = [tuple(int(s == j) for s in range(m)) for j in range(m)]
    float_phases = hs.floats(0, 2 * math.pi).map(lambda t: cmath.rect(1, t))

    def on(support, values):
        return hs.lists(values, min_size=len(support),
                        max_size=len(support)).map(
            lambda vals: PureState(shape, dict(zip(support, vals))))
    return hs.one_of(
        [hs.dictionaries(indices(shape), values, min_size=1, max_size=4).map(
            lambda amps: PureState(shape, amps)) for values in
         (exact_amplitudes.filter(bool), float_amplitudes.filter(bool))]
        + [on(support, values) for support in (ghz, w)
           for values in (phases, float_phases)])


def assert_nearest_root(c, q):
    """c is the float nearest sqrt(q): q lies between the squares of the
    midpoints to c's neighbours."""
    x = Fraction(c)
    lo = (x + Fraction(math.nextafter(c, 0))) / 2 if c else Fraction(0)
    hi = (x + Fraction(math.nextafter(c, math.inf))) / 2
    assert lo * lo <= q <= hi * hi


def exact_image(locs):
    """The Segre image of local vectors, each value read exactly."""
    return oracles.segre_product(
        [[ComplexRational(*oracles._exact_parts(x)) for x in v] for v in locs])


def assert_image(locs, expected, exact):
    """The Segre image of locs, read exactly, is the table expected of
    ComplexRationals: equal if exact, else within 1e-9 relative per entry."""
    image = exact_image(locs)
    if exact:
        assert image == expected
        return
    assert image.keys() == expected.keys()
    for i, v in expected.items():
        gap = image[i] - v
        assert (gap.re ** 2 + gap.im ** 2) * 10 ** 18 <= v.re ** 2 + v.im ** 2


def exact_amplitudes_of(st):
    return {i: ComplexRational(*oracles._exact_parts(v))
            for i, v in st.amplitudes.items()}


def assert_witness_image(st, locs, p=None):
    """The Segre image of the witness locs is that of the witness of st by
    definition, through the entry p (by default the peak), both read
    exactly, as ``assert_image`` compares them.  Of a rank-one state it is
    the state itself."""
    rows = oracles.witness(PureState(st.shape, exact_amplitudes_of(st)), p)
    assert_image(locs, exact_image([[ComplexRational(*x) for x in row]
                                    for row in rows]), st._d is not None)


def assert_matches_reference(st, tol, e=0):
    """The verdict on st 2^e against the reference on st, whose minors
    scale by 2^(2e); the reference reads them in floats, so it is given the
    state inside the float range, and the witness of st 2^e is checked by
    its Segre image."""
    ref = st
    if e:
        st = times(st, Fraction(2) ** e if st._d is not None else 2.0 ** e)
    verdict = is_separable(st, tol)
    n = oracles.peak_squared(ref)
    if not Fraction(2) ** -1022 <= n < Fraction(2) ** 1023:
        # the reference is given ref / 2^k, whose peak |a|^2 is near 1 and
        # whose minors scale by 2^(-2k); exactly, as the float states here
        # leave the range only below it, and scaling them up rounds nothing
        k = (n.numerator.bit_length() - n.denominator.bit_length()) // 2
        if ref._d is not None:
            ref = times(ref, Fraction(2) ** -k)
        else:
            # in two steps, as 2^-k passes the float range below 2^-1023
            ref = times(times(ref, 2.0 ** (-k // 2)), 2.0 ** (-k - -k // 2))
        e += k
    separable, minor, value, violation = \
        oracles.separability_reference(ref, tol)
    assert verdict.separable == separable
    assert verdict.max_violation == segre._ldexp(violation, 2 * e)
    if separable:
        assert verdict.worst_minor is None
        got = verdict.witness.locals
        if e:
            # the peak of st 2^e, whose magnitude rounds outside the range
            assert_witness_image(st, got, oracles.peak(ref))
            return
        # the float reference divides by a power of the peak, which
        # underflows outside the float range: it is read only inside
        if st._d is not None:
            assert [[oracles._exact_parts(x) for x in v]
                    for v in got] == oracles.witness(st)
        elif segre._float_range_shift(st) == 0:
            # (a float state decided on st / 2^k moves 2^k into its
            # first local vector)
            assert all(cmath.isclose(x, y, rel_tol=1e-12)
                       for v, u in zip(got, oracles.witness(st))
                       for x, y in zip(v, u))
    else:
        worst = verdict.worst_minor
        assert (worst.mode, worst.k, worst.l) == minor
        assert verdict.worst_value == segre._times_power_of_two(value, 2 * e)


def dense(shape, values):
    """The state with the given values at every index, in index order."""
    return PureState(shape, dict(zip(product(*map(range, shape)), values)))


# float parts 0 or of magnitude 2^-100 to 4: the products of a minor
# neither underflow nor overflow, so they scale exactly by powers of two
float_parts = hs.one_of(hs.just(0.0), hs.builds(
    lambda sign, x: sign * x, hs.sampled_from([-1.0, 1.0]),
    hs.floats(2.0 ** -100, 4.0)))
dense_values = [
    # Gaussian integers in [-2, 2]: many minors tie
    hs.tuples(hs.integers(-2, 2), hs.integers(-2, 2)).filter(any).map(
        lambda parts: ComplexRational(*parts)),
    hs.one_of(float_pool, hs.builds(complex, float_parts, float_parts)).filter(
        bool)]


def dense_states():
    """Every index present, at most 64 entries, all exact or all float."""
    def states(shape):
        size = math.prod(shape)
        return hs.one_of(*(hs.lists(v, min_size=size, max_size=size)
                           for v in dense_values)).map(
            lambda values: dense(shape, values))
    return hs.sampled_from([(2,) * m for m in range(2, 7)]
                           + [(3, 3), (2, 3, 2)]).flatmap(states)


def dense_qubits(m, kind):
    """A dense m-qubit state: float parts from gauss(0, 1), or Gaussian
    integer parts from [-9, 9] without 0."""
    rng = random.Random(7)
    nonzero = [k for k in range(-9, 10) if k]
    return dense((2,) * m, [
        complex(rng.gauss(0, 1), rng.gauss(0, 1)) if kind == "float" else
        ComplexRational(rng.choice(nonzero), rng.choice(nonzero))
        for _ in range(2 ** m)])


def scan_rows(monkeypatch, st):
    """is_separable(st, 0) and the number of rows its minor scans evaluated."""
    calls = []

    def counted(f):
        return lambda *args: calls.append(1) or f(*args)
    exact_abs = segre._exact_abs
    monkeypatch.setattr(segre, "_float_abs", counted(segre._float_abs))
    monkeypatch.setattr(segre, "_exact_nonzero", counted(segre._exact_nonzero))
    monkeypatch.setattr(segre, "_exact_abs", lambda d2: counted(exact_abs(d2)))
    return is_separable(st, 0), len(calls)


_below = random.Random(505)
# a last-row case: of these Gaussian integers the worst minor is the last
# canonical one of (2, 2, 2, 2), in the last row of mode 3 that holds one
_last_row = [(-1, 2), (-2, 0), (-2, 1), (0, -2), (-2, 2), (-1, -2), (0, -2),
             (-1, -1), (-1, -1), (2, -2), (2, 2), (2, 2), (-2, 1), (1, -2),
             (2, -1), (2, -1)]
_cluster = [(-1) ** (i[0] * i[1] + i[1] * i[2] + i[2] * i[3])
            for i in product((0, 1), repeat=4)]
SKIP_EDGES = {
    # minors near 2^-1010: a best below the floor skips nothing
    "below-floor": dense((2, 2, 2), [
        complex(_below.gauss(0, 1), _below.gauss(0, 1)) * 2.0 ** -505
        for _ in range(8)]),
    # every key is 0 or 2, tied across rows and modes
    "ties-exact": dense((2,) * 4, _cluster),
    "ties-float": dense((2,) * 4, map(float, _cluster)),
    "last-row-exact": dense((2,) * 4, [ComplexRational(*v) for v in _last_row]),
    "last-row-float": dense((2,) * 4, [complex(*v) for v in _last_row]),
    # three local pairs per qutrit mode
    "qutrits": dense((3, 3), [ComplexRational(k % 3 - 1, k % 4 - 2) or 5
                              for k in range(9)]),
    "qutrit-middle": dense((2, 3, 2), [complex(k % 5 - 2, k % 3) or 0.5
                                       for k in range(12)]),
    # mode 0: the minor x q - y p of row 1 has magnitude |x||q| + |y||p|,
    # its bound, but the two round apart, and the best of row 0 lies
    # strictly between them: without the margin row 1 would be skipped
    "rounding-margin": PureState((2, 2, 2), {
        (0, 0, 0): 1.8959175171112184, (1, 1, 0): 1.0,
        (0, 0, 1): -0.5255698632967751 + 0.23787182560087172j,
        (1, 0, 1): -0.3374142998768821 + 0.5446852044346395j,
        (0, 1, 0): -1.7092601809466348 - 1.1473526670459362j}),
    # a magnitude rounded below |v|, read as is, would skip a row holding
    # the worst minor: abs of the subnormal (1 + i) 2^-1074 rounds to
    # 2^-1074, and |a|^2 of a = 1 / q, about 1.4 2^-1074, to 2^-1074
    "subnormal-abs": PureState((2, 2, 2), {
        (0, 0, 1): 1.2 * 2.0 ** 26, (1, 0, 1): 2.0 ** 500,
        (1, 1, 0): complex(5e-324, 5e-324), (1, 1, 1): 2.0 ** -600}),
    "subnormal-square": PureState((2, 2, 2), {
        (0, 0, 0): Fraction(11, 10 * 2 ** 537),
        (0, 0, 1): Fraction(1, math.floor(2 ** 537 / 1.183)), (1, 1, 0): 1}),
}


class TestFastPaths:
    """The row-wise scan and the Cauchy-Binet sum against the per-minor
    definitions in oracles."""

    @given(shapes.flatmap(lambda shape: hs.one_of(
        exact_states(shape), float_states(shape), tie_states(shape),
        underflowing_states(shape), sparse_states(shape))),
        hs.sampled_from([0, 1e-10, 1e-3, 0.25]))
    def test_verdict_matches_reference(self, st, tol):
        assert_matches_reference(st, tol)

    @given(dense_states(), hs.sampled_from([0, 600, -600]))
    def test_dense_verdict_matches_reference(self, st, e):
        # times 2^600 or 2^-600 the state is decided on the shift path
        for tol in (0, 1e-10, 0.25):
            assert_matches_reference(st, tol, e)

    @pytest.mark.parametrize("st", list(SKIP_EDGES.values()),
                             ids=list(SKIP_EDGES))
    def test_skip_rule_edges_match_reference(self, st):
        for tol in (0, 1e-10, 0.25):
            assert_matches_reference(st, tol)

    @pytest.mark.parametrize("e", [600, -600])
    def test_shift_path_witness_rebuilds_product_states(self, rng, e):
        # times 2^600 or 2^-600 a product state of 1-4 parties is decided on
        # the shift path: its witness's Segre image is the state
        for _ in range(75):
            shape = tuple(rng.randint(2, 3) for _ in range(rng.randint(1, 4)))
            st = segre_map(random_product_state(rng, shape))
            for scaled in (times(st, Fraction(2) ** e),
                           times(st, 2.0 ** e)):
                verdict = is_separable(scaled)
                assert verdict.separable
                assert_image(verdict.witness.locals,
                             exact_amplitudes_of(scaled),
                             scaled._d is not None)

    def test_no_row_skipped_below_the_floor(self, monkeypatch):
        # minors near 2^-1010 stay below the 2^-1000 floor of a skip: all
        # 3 modes of 3 rows are evaluated
        verdict, rows = scan_rows(monkeypatch, SKIP_EDGES["below-floor"])
        assert not verdict.separable and rows == 9

    def test_dense_entangled_scan_skips_most_rows(self, monkeypatch):
        # 7 qubits: 7 modes of 63 rows, 441 for a full scan
        for st in (dense_qubits(7, "float"), dense_qubits(7, "gaussian")):
            verdict, rows = scan_rows(monkeypatch, st)
            assert not verdict.separable and rows < 100

    def test_nonzero_search_stops_at_first_nonzero_minor(self, monkeypatch):
        ones = PureState((2, 2, 2), dict.fromkeys(product((0, 1), repeat=3), 1))
        st = changed(ones, (0, 0, 0), Fraction(1, 10 ** 400))
        verdict, rows = scan_rows(monkeypatch, st)
        # all 9 rows of keys round to 0.0, then the first row of the
        # nonzero search holds the first nonzero minor
        assert rows == 9 + 1
        assert verdict.worst_minor == next(
            minor for minor in segre_minors(st.shape) if minor_value(st, minor))

    @given(hs.sampled_from([(3, 3), (2, 3, 4), (2, 2, 2, 3), (4, 4), (2, 5)])
           .flatmap(lambda shape: hs.one_of(
               exact_unit_states(shape),
               hs.one_of(float_states(shape), tie_states(shape)).filter(
                   lambda st: st.norm_squared() > 1e-300).map(normalized))))
    def test_concurrence_is_rounded_exact_sum(self, st):
        assert_nearest_root(concurrence(st), 4 * oracles.minor_norm2(st))


def star(m, value):
    """S_m: the value on |0...0>, |1...1>, |0...01> and |1...10>."""
    return PureState((2,) * m, {idx: value for idx in (
        (0,) * m, (1,) * m, (0,) * (m - 1) + (1,), (1,) * (m - 1) + (0,))})


def padded(state, k):
    """The state tensored with |0> on k more qubits."""
    return PureState(state.shape + (2,) * k,
                     {idx + (0,) * k: v for idx, v in state.amplitudes.items()})


class TestSparseScale:
    """The Segre layer reads the nonzero amplitudes only: a sparse state on
    40 qubits costs what it costs on a few."""

    @given(shapes.flatmap(sparse_states), hs.sampled_from([1, 5, 36]))
    @example(PureState((2,) * 4, {(0,) * 4: 9.756096581360554e-139 + 0j}), 1)
    def test_padding_with_zero_qubits_changes_nothing(self, st, k):
        big = padded(st, k)
        small, large = is_separable(st), is_separable(big)
        assert (large.separable, large.max_violation, large.worst_value) == \
            (small.separable, small.max_violation, small.worst_value)
        if not small.separable:
            w, v = small.worst_minor, large.worst_minor
            assert (v.mode, v.k, v.l) == (w.mode, w.k + (0,) * k,
                                          w.l + (0,) * k)
        if st.norm_squared() > 1e-300:
            unit = normalized(st)
            assert concurrence(padded(unit, k)) == concurrence(unit)

    @pytest.mark.parametrize("half", [ComplexRational(Fraction(1, 2)), 0.5],
                             ids=["exact", "float"])
    def test_forty_qubit_star_closed_forms(self, half):
        st = star(40, half)
        tracemalloc.start()
        try:
            verdict = is_separable(st)
            c = concurrence(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every nonzero minor is (1/2)^2; 156 of them give 4 * 156 / 16 = 39
        assert not verdict.separable and verdict.max_violation == 0.25
        worst = verdict.worst_minor
        assert (worst.mode, worst.k, worst.l) == \
            (0, (0,) * 40, (1,) * 39 + (0,))
        assert c == math.sqrt(39)
        assert peak < 2 ** 20

    def test_forty_qubit_ghz(self):
        st = PureState((2,) * 40, {(0,) * 40: SQ2, (1,) * 40: SQ2})
        tracemalloc.start()
        try:
            verdict = is_separable(st)
            c = concurrence(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not verdict.separable
        assert abs(verdict.max_violation - 0.5) < 1e-12
        assert abs(c - math.sqrt(40)) < 1e-12
        assert peak < 2 ** 20


class TestSqrtRatio:
    # m = 1 + 2^-53 is the midpoint between 1 and the next float up
    M2 = (2 ** 53 + 1) ** 2 * 2 ** 94  # m^2 * 2^200

    @pytest.mark.parametrize("offset, expected", [
        (1, 1 + 2 ** -52), (0, 1.0), (-1, 1.0)], ids=["above", "tie", "below"])
    def test_rounds_once_at_a_midpoint(self, offset, expected):
        # just above the midpoint the root rounds up, although its integer
        # square root alone is the midpoint itself, a tie that rounds down
        assert segre._sqrt_ratio(self.M2 + offset, 2 ** 200) == expected

    def test_small_and_zero(self):
        assert segre._sqrt_ratio(0, 7) == 0.0
        assert segre._sqrt_ratio(1, 4) == 0.5
        assert segre._sqrt_ratio(2, 1) == math.sqrt(2)


class TestMinorObjects:
    """Only the reported worst minor is built and evaluated one by one."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"MinorSpec": 0, "minor_value": 0}
        real_spec, real_value = segre.MinorSpec, segre.minor_value

        def spec(*args, **kwargs):
            counts["MinorSpec"] += 1
            return real_spec(*args, **kwargs)

        def value(*args, **kwargs):
            counts["minor_value"] += 1
            return real_value(*args, **kwargs)

        monkeypatch.setattr(segre, "MinorSpec", spec)
        monkeypatch.setattr(segre, "minor_value", value)
        return counts

    def test_default_concurrence_builds_none(self, counts, rng):
        amps = {idx: complex(rng.gauss(0, 1), rng.gauss(0, 1))
                for idx in product((0, 1), repeat=6)}
        concurrence(normalized(PureState((2,) * 6, amps)))
        assert counts == {"MinorSpec": 0, "minor_value": 0}

    def test_entangled_verdict_builds_at_most_one(self, counts, rng):
        shape = (2,) * 6
        exact = {idx: rng.randint(1, 9) for idx in product((0, 1), repeat=6)}
        floating = {idx: complex(rng.gauss(0, 1), rng.gauss(0, 1))
                    for idx in product((0, 1), repeat=6)}
        for amps in (exact, floating):
            counts.update(MinorSpec=0, minor_value=0)
            assert not is_separable(PureState(shape, amps)).separable
            assert counts["MinorSpec"] <= 1 and counts["minor_value"] <= 1

    def test_separable_exact_verdict_builds_none(self, counts, rng):
        st = segre_map(random_product_state(rng, (2,) * 6))
        assert is_separable(st, 0).separable
        assert counts == {"MinorSpec": 0, "minor_value": 0}


class TestThreeQubitGenerators:
    def test_ten_exact_matches_and_two_flags(self):
        gens = three_qubit_generators()
        assert len(gens) == 12
        clean = [g for g in gens if g.minor is not None and g.discrepancy is None]
        flagged = {g.label for g in gens if g.discrepancy is not None}
        assert len(clean) == 10
        assert flagged == {"g3", "g12"}

    def test_first_entry(self):
        g1 = three_qubit_generators()[0]
        assert g1.lhs == ((0, 0, 0), (1, 1, 0))
        assert g1.rhs == ((0, 1, 0), (1, 0, 0))
        assert g1.minor is not None
        assert g1.minor.key() == frozenset(
            (frozenset(g1.lhs), frozenset(g1.rhs)))

    def test_seventh_entry(self):
        g7 = three_qubit_generators()[6]
        assert g7.label == "g7"
        assert g7.lhs == ((0, 0, 0), (1, 1, 1))
        assert g7.rhs == ((0, 0, 1), (1, 1, 0))
        assert g7.discrepancy is None

    def test_g3_is_not_a_minor(self):
        g3 = three_qubit_generators()[2]
        assert g3.minor is None
        assert "not a two-by-two exchange minor" in g3.discrepancy

    def test_g12_repeats_g11(self):
        gens = three_qubit_generators()
        g11, g12 = gens[10], gens[11]
        assert g12.minor == g11.minor
        assert g11.discrepancy is None
        assert "repeats g11" in g12.discrepancy

    def test_matches_live_in_canonical_set(self):
        canon = {m.key() for m in segre_minors((2, 2, 2))}
        for g in three_qubit_generators():
            if g.minor is not None:
                assert g.minor.key() in canon


def _brute_force_minor_keys(shape):
    keys = set()
    indices = list(product(*(range(n) for n in shape)))
    for k, l in combinations(indices, 2):
        for j in range(len(shape)):
            if k[j] == l[j]:
                continue
            k2 = k[:j] + (l[j],) + k[j + 1:]
            l2 = l[:j] + (k[j],) + l[j + 1:]
            if {k, l} == {k2, l2}:
                continue
            keys.add(frozenset((frozenset((k, l)), frozenset((k2, l2)))))
    return keys
