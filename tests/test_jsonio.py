"""JSON round-trips and canonical serialization."""

import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

import oracles
from qtoric import (chart_atlas, make_fan, multiqubit_fan, multiqubit_polytope,
                    normal_fan, parameterization, polytope_hull, pos_hull,
                    projective_space_fan, segre_map, segre_minors,
                    toric_ideal_binomials, MonomialMap, ProductState,
                    PureState)
from qtoric import cli, jsonio, segre
from qtoric.rationals import ComplexRational
from qtoric.toric_ideal import Binomial, BinomialIdeal


class TestIntEncoding:
    def test_small_ints_stay_numbers(self):
        cone = pos_hull([(2 ** 53, 1), (-(2 ** 53), 1)])
        assert jsonio.cone_to_json(cone)["generators"] == [
            [-(2 ** 53), 1], [2 ** 53, 1]]

    def test_big_ints_become_strings(self):
        big = 2 ** 60 + 1
        cone = pos_hull([(2 ** 53 + 1, 1), (-(2 ** 53) - 1, 1)])
        assert jsonio.cone_to_json(cone)["generators"] == [
            [str(-(2 ** 53) - 1), 1], [str(2 ** 53 + 1), 1]]
        doc = jsonio.cone_to_json(pos_hull([(big, 1), (1, 0)]))
        assert doc["generators"] == [[1, 0], [str(big), 1]]
        assert jsonio.decode_int(str(big)) == big

    def test_booleans_rejected(self):
        with pytest.raises(ValueError):
            jsonio.decode_int(True)

    def test_vector_reads_ints_and_decimal_strings(self):
        big = 2 ** 60 + 1
        assert jsonio.vector_from_json([1, "-2", str(big)]) == (1, -2, big)
        assert jsonio.vector_from_json([]) == ()

    @pytest.mark.parametrize("data, message", [
        ({"a": 1}, "expected a list of integers, got {'a': 1}"),
        ("[1, 2]", "expected a list of integers, got '[1, 2]'"),
        ([1, True], "expected an integer, got a boolean"),
        ([1.0], "expected an integer, got 1.0"),
    ], ids=["dict", "string", "boolean", "float"])
    def test_vector_rejects(self, data, message):
        with pytest.raises(ValueError) as info:
            jsonio.vector_from_json(data)
        assert str(info.value) == message

    def test_big_generator_roundtrip(self):
        big = 2 ** 61 + 3
        cone = pos_hull([(big, 1), (1, 0)])
        doc = json.loads(jsonio.canonical_dumps(jsonio.cone_to_json(cone)))
        assert jsonio.cone_from_json(doc) == cone

    # one table's texts share their integers' texts, so a value met again in
    # another vector is read from the cache
    @given(hs.lists(hs.lists(
        hs.integers(-3, 3) | hs.sampled_from(
            [s * x for s in (1, -1) for x in (2 ** 53, 2 ** 53 + 1, 2 ** 60)]),
        max_size=25).map(tuple), max_size=8))
    def test_texts_equal_the_reference_encoder(self, vectors):
        texts = jsonio._Texts()
        for v in vectors:
            assert texts[v] == jsonio._encode(jsonio._vector_out(v))


class TestGeometryRoundTrips:
    def test_cone(self):
        c = pos_hull([(1, 0), (1, 2)])
        assert jsonio.cone_from_json(jsonio.cone_to_json(c)) == c

    def test_zero_cone(self):
        c = pos_hull([], dim=3)
        assert jsonio.cone_from_json(jsonio.cone_to_json(c)) == c

    def test_polytope(self):
        p = multiqubit_polytope(3)
        assert jsonio.polytope_from_json(jsonio.polytope_to_json(p)) == p

    def test_fan(self):
        f = multiqubit_fan(2)
        assert jsonio.fan_from_json(jsonio.fan_to_json(f)) == f

    def test_input_canonicalized(self):
        doc = {"dim": 2, "generators": [[2, 0], [1, 2], [1, 1]]}
        assert jsonio.cone_from_json(doc) == pos_hull([(1, 0), (1, 2)])

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            jsonio.cone_from_json({"generators": [[1, 0]]})
        with pytest.raises(ValueError):
            jsonio.polytope_from_json({"dim": 2})

    def test_fan_cone_of_another_dimension_rejected(self):
        # also when an equal cone of the right dimension follows it
        zero = [{"dim": 3, "generators": []}, {"dim": 2, "generators": []}]
        with pytest.raises(ValueError, match="cone dimension mismatch"):
            jsonio.fan_from_json({"dim": 2, "cones": zero})


class TestIdealAndMapJson:
    def test_map_accepts_bare_list(self):
        m = jsonio.map_from_json([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert m == MonomialMap(2, ((0, 0), (1, 0), (0, 1), (1, 1)))

    def test_ideal_document(self):
        m = MonomialMap(2, ((0, 0), (1, 0), (0, 1), (1, 1)))
        doc = jsonio.ideal_to_json(toric_ideal_binomials(m, 2))
        assert doc["degreeBound"] == 2
        assert doc["generators"] == [{"nu": [1, 0, 0, 1], "mu": [0, 1, 1, 0]}]


@hs.composite
def monomial_maps(draw):
    """Up to six exponent vectors in Z^1..Z^3: Laurent (negative) entries,
    repeats, so that some maps have relations and some have none, and
    entries beyond 2^53 that the encoding writes as strings."""
    dim = draw(hs.integers(1, 3))
    entry = hs.integers(-2, 2) | hs.sampled_from([2 ** 53 + 1, -(2 ** 60)])
    vectors = draw(hs.lists(hs.tuples(*[entry] * dim), min_size=1, max_size=4))
    exps = vectors + draw(hs.lists(hs.sampled_from(vectors), max_size=2))
    return MonomialMap(dim, tuple(draw(hs.permutations(exps))))


class TestIdealDumps:
    @given(monomial_maps(), hs.integers(1, 3))
    def test_equals_the_dict_form(self, m, degree):
        ideal = toric_ideal_binomials(m, degree)
        assert "".join(jsonio.ideal_dumps(ideal)) == \
            jsonio.canonical_dumps(jsonio.ideal_to_json(ideal))
        sides = [(b.nu, b.mu) for b in ideal.generators]
        assert sides == sorted(sides, key=lambda g: (sum(g[0]), g))

    def test_empty_ideal(self):
        ideal = toric_ideal_binomials(MonomialMap(1, ((1,), (2 ** 60,))), 2)
        assert ideal.pairs == ()
        assert "".join(jsonio.ideal_dumps(ideal)) == \
            '{"degreeBound":2,"generators":[],"map":' \
            '{"dim":1,"exponents":[[1],["1152921504606846976"]]}}\n'

    def test_exponents_beyond_2_53(self):
        # 2^60 * 3 2^60 = (2^61)^2: the map's entries are written as strings
        m = MonomialMap(1, ((2 ** 60,), (2 ** 61,), (3 * 2 ** 60,)))
        ideal = BinomialIdeal(m, 2)
        assert ideal.generators == (Binomial((1, 0, 1), (0, 2, 0)),)
        text = "".join(jsonio.ideal_dumps(ideal))
        assert text == jsonio.canonical_dumps(jsonio.ideal_to_json(ideal))
        assert f'"exponents":[["{2 ** 60}"],["{2 ** 61}"],["{3 * 2 ** 60}"]]' \
            in text

@hs.composite
def shapes(draw):
    """1-6 modes of local dimension 1-4, at most 128 entries; a dimension 1
    is rejected, and a single mode has no minors."""
    shape = []
    for _ in range(draw(hs.integers(1, 6))):
        shape.append(draw(hs.integers(1, min(4, 128 // math.prod(shape)))))
    return shape


class TestSegreMinorsDumps:
    @given(shapes())
    def test_equals_the_dict_form(self, shape):
        try:
            minors = segre_minors(shape)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                jsonio.segre_minors_dumps(shape)
            return
        doc = {"shape": shape,
               "minors": [jsonio.minor_to_json(minor) for minor in minors]}
        assert "".join(jsonio.segre_minors_dumps(shape)) == \
            jsonio.canonical_dumps(doc)

    def test_no_minors(self):
        assert "".join(jsonio.segre_minors_dumps([3])) == \
            '{"minors":[],"shape":[3]}\n'


@hs.composite
def polytopes(draw):
    """Full-dimensional lattice polytopes in Q^2..Q^4: a simplex and up to
    five more points."""
    dim = draw(hs.integers(2, 4))
    simplex = [(0,) * dim] + [tuple(2 * (i == j) for i in range(dim))
                              for j in range(dim)]
    points = draw(hs.lists(hs.tuples(*[hs.integers(-2, 2)] * dim),
                           max_size=5))
    return polytope_hull(simplex + points, dim)


@hs.composite
def fan_documents(draw):
    """Fan JSON of up to five cones in Z^1..Z^3 with entries beyond 2^53."""
    dim = draw(hs.integers(1, 3))
    entry = hs.integers(-2, 2) | hs.sampled_from([2 ** 53 + 1, -(2 ** 60)])
    generators = hs.lists(hs.lists(entry, min_size=dim, max_size=dim),
                          max_size=3)
    return {"dim": dim, "cones": [{"dim": dim, "generators": gens}
                                  for gens in draw(hs.lists(generators,
                                                            max_size=5))]}


def assert_fan_dumps(fan):
    assert "".join(jsonio.fan_dumps(fan)) == \
        jsonio.canonical_dumps(jsonio.fan_to_json(fan))


class TestFanAndAtlasDumps:
    @given(polytopes())
    def test_normal_fans(self, polytope):
        assert_fan_dumps(normal_fan(polytope))

    @given(fan_documents())
    def test_fans_read_from_json(self, doc):
        assert_fan_dumps(jsonio.fan_from_json(doc))

    def test_rays_beyond_2_53(self):
        fan = jsonio.fan_from_json({"dim": 2, "cones": [
            {"dim": 2, "generators": [[1, 2 ** 60], [0, 1]]}]})
        assert_fan_dumps(fan)
        assert f'[1,"{2 ** 60}"]' in "".join(jsonio.fan_dumps(fan))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_projective_fans_and_atlases(self, n):
        assert_fan_dumps(projective_space_fan(n))
        atlas = chart_atlas(projective_space_fan(n))
        assert "".join(jsonio.atlas_dumps(atlas)) == \
            jsonio.canonical_dumps(jsonio.atlas_to_json(atlas))

    @pytest.mark.parametrize("m", range(1, 5))
    def test_qubit_fans_and_atlases(self, m):
        assert_fan_dumps(multiqubit_fan(m))
        atlas = chart_atlas(multiqubit_fan(m))
        assert "".join(jsonio.atlas_dumps(atlas)) == \
            jsonio.canonical_dumps(jsonio.atlas_to_json(atlas))


class TestFanTable:
    """The ray table against the cones it describes."""

    def check(self, fan):
        for cone, t in zip(fan.cones, fan.indices, strict=True):
            assert cone.generators == tuple(fan.rays[i] for i in t)
        assert make_fan(fan.cones, fan.dim) == fan
        assert fan.maximal_cones() == oracles.maximal_cones(fan)

    @given(polytopes())
    def test_normal_fans(self, polytope):
        self.check(normal_fan(polytope))

    @given(fan_documents())
    def test_fans_read_from_json(self, doc):
        self.check(jsonio.fan_from_json(doc))


class TestStateJson:
    def test_exact_state_roundtrip(self):
        st = PureState((2, 2), {
            (0, 0): ComplexRational(Fraction(1, 2), Fraction(-3, 4)),
            (1, 1): ComplexRational(Fraction(5))})
        doc = json.loads(jsonio.canonical_dumps(jsonio.state_to_json(st)))
        back = jsonio.state_from_json(doc)
        assert back.amplitudes == st.amplitudes

    def test_float_state_roundtrip(self):
        st = PureState((2, 2), {(0, 0): 0.6, (1, 1): complex(0.0, 0.8)})
        back = jsonio.state_from_json(jsonio.state_to_json(st))
        assert back.amplitude((0, 0)) == complex(0.6)
        assert back.amplitude((1, 1)) == complex(0.0, 0.8)

    def test_mixed_exact_and_float_downgrades_to_float(self):
        doc = {"shape": [2, 2],
               "amplitudes": [{"index": [0, 0], "re": "1/2", "im": "0"},
                              {"index": [1, 1], "re": 0.5, "im": 0.0}]}
        st = jsonio.state_from_json(doc)
        assert all(isinstance(v, complex) for v in st.amplitudes.values())
        assert st.amplitude((0, 0)) == 0.5

    def test_string_rationals_parse_exact(self):
        doc = {"shape": [2, 2],
               "amplitudes": [{"index": [0, 0], "re": "1/3", "im": "0"},
                              {"index": [1, 1], "re": "-2", "im": "1/7"}]}
        st = jsonio.state_from_json(doc)
        assert st.amplitude((0, 0)) == ComplexRational(Fraction(1, 3))
        assert st.amplitude((1, 1)) == ComplexRational(Fraction(-2),
                                                       Fraction(1, 7))

    def test_duplicate_index_rejected(self):
        # a later entry used to overwrite an earlier one silently
        doc = {"shape": [2, 2],
               "amplitudes": [{"index": [0, 0], "re": "1"},
                              {"index": [1, 1], "re": "1"},
                              {"index": [1, 1], "re": "0"}]}
        with pytest.raises(ValueError,
                           match=r"^duplicate amplitude index \(1, 1\)$"):
            jsonio.state_from_json(doc)

    def test_product_state_document(self):
        ps = ProductState(((Fraction(1), Fraction(2)),
                           (Fraction(3), Fraction(4))))
        doc = jsonio.product_state_to_json(ps)
        assert doc == {"locals": [[{"re": "1", "im": "0"}, {"re": "2", "im": "0"}],
                                  [{"re": "3", "im": "0"}, {"re": "4", "im": "0"}]]}

    def test_separability_documents(self):
        witness = ProductState(((Fraction(1), Fraction(2)),))
        assert jsonio.separability_to_json(segre.SeparabilityResult(
            True, 0.0, witness, None)) == {
                "separable": True, "maxViolation": 0.0, "worstMinor": None,
                "witness": jsonio.product_state_to_json(witness)}
        minor = segre.MinorSpec(0, (0, 0), (1, 1))
        doc = jsonio.separability_to_json(segre.SeparabilityResult(
            False, 0.5, None, minor, ComplexRational(Fraction(1, 2), -1)))
        assert doc == {"separable": False, "maxViolation": 0.5,
                       "witness": None,
                       "worstMinor": {"mode": 0, "k": [0, 0], "l": [1, 1],
                                      "value": {"re": "1/2", "im": "-1"}}}

    def test_torus_point_rejects_floats(self):
        with pytest.raises(ValueError, match="exact"):
            jsonio.torus_point_from_json([0.5, 2])
        pt = jsonio.torus_point_from_json(["1/2", {"re": "2", "im": "-1/3"}])
        assert pt == (ComplexRational(Fraction(1, 2)),
                      ComplexRational(Fraction(2), Fraction(-1, 3)))


# amplitude parts: every branch of the reader, exact strings in and out of
# its plain ASCII form, malformed ones, and floats that underflow, round or
# overflow
_parts = hs.one_of(
    hs.integers(-10 ** 30, 10 ** 30), hs.just(10 ** 400),
    hs.fractions(max_denominator=10 ** 6).map(str),
    hs.tuples(hs.integers(-999, 999), hs.integers(0, 999)).map(
        lambda t: f"{t[0]:04d}/{t[1]}"),
    hs.sampled_from([" 1/2 ", "1_0/3", "+2", "1.5", "1e3", "-1e-3", "-0",
                     "0/5", "1/" + "0" * 3 + "7", "1e400", "-1e-400", "--2",
                     "-+2", "-", "1/", "/2", "1//2", "0x10", "\u0661/\u0662",
                     "1/00"]),
    hs.floats(allow_nan=False, allow_infinity=False),
    hs.sampled_from([0.0, -0.0, 5e-324, 1e308]))


@hs.composite
def state_documents(draw):
    shape = draw(hs.lists(hs.integers(2, 3), min_size=1, max_size=3))
    indices = draw(hs.lists(
        hs.tuples(*(hs.integers(0, n - 1) for n in shape)), unique=True,
        min_size=1, max_size=6))
    entries = []
    for idx in indices:
        entry = {"index": list(idx)}
        for key in ("re", "im"):
            if draw(hs.booleans()):
                entry[key] = draw(_parts)
        entries.append(entry)
    return {"shape": shape, "amplitudes": entries}


def _decoded(read, doc):
    try:
        return read(doc)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)


class TestStateDecoder:
    """The reader into one table against ``oracles.state_from_json``, the
    reader through Fraction and ComplexRational values."""

    @given(state_documents())
    @example({"shape": [2, 2], "amplitudes": [
        {"index": [0, 0], "re": "2/10"}, {"index": [1, 1], "re": "6/30"}]})
    def test_table_describes_the_oracle_state(self, doc):
        st, expected = (_decoded(read, doc) for read in
                        (jsonio.state_from_json, oracles.state_from_json))
        if not isinstance(expected, PureState):
            assert st == expected
            return
        assert st.shape == expected.shape
        assert st._d == expected._d
        assert (st._d is not None) == (expected._d is not None)
        if st._d is not None:
            table, d = segre._gaussian(st)
            assert list(table) == list(expected.amplitudes)
            assert all((Fraction(x, d), Fraction(y, d)) ==
                       oracles._exact_parts(expected.amplitudes[i])
                       for i, (x, y) in table.items())
        else:
            assert list(st.amplitudes.items()) == \
                list(expected.amplitudes.items())
            assert all(type(v) is complex for v in st.amplitudes.values())
        assert st.amplitudes == expected.amplitudes
        assert st.norm_squared() == expected.norm_squared()

    @pytest.mark.parametrize("text", [
        '{"shape":[2,2],"amplitudes":[{"index":[0,0],"re":%s},'
        '{"index":[1,1],"re":"1/3","im":"2"}]}' % part for part in (
            '" 1/2 "', '"1_0/3"', '"+2"', '"1.5"', '"1e3"', '"\u0663/4"',
            '"3/-4"', '"1/0"', '"1 /2"', '""', "true", "NaN", "Infinity",
            "[[1]]", "0.5")] + [
        '{"shape":[2,2],"amplitudes":[{"index":[1,1],"re":"1"},'
        '{"index":[1,1],"re":"1/2"}]}',
        '{"shape":[2,2],"amplitudes":[{"index":[0,1],"re":"1"},'
        '{"index":[0,2],"re":"1/2"}]}'],
        ids=["spaces", "underscore", "plus", "decimal", "exponent",
             "arabic-digit", "negative-denominator", "zero-denominator",
             "inner-space", "empty", "true", "nan", "infinity", "nested-list",
             "float", "duplicate-index", "out-of-range-index"])
    @pytest.mark.parametrize("verb", ["check-separable", "concurrence"])
    def test_cli_matches_the_oracle_reader(self, capsys, monkeypatch, verb,
                                           text):
        def run():
            code = cli.main([verb, text])
            return code, capsys.readouterr().out
        got = run()
        monkeypatch.setattr(jsonio, "state_from_json", oracles.state_from_json)
        assert got == run()


class TestAtlasAndParamJson:
    def test_atlas_document_shape(self):
        atlas = chart_atlas(projective_space_fan(1))
        doc = jsonio.atlas_to_json(atlas)
        assert len(doc["charts"]) == 2
        assert all(t["matrix"] == [[-1]] for t in doc["transitions"])

    def test_parameterization_document(self):
        doc = jsonio.parameterization_to_json(parameterization(2))
        assert doc == {"m": 2, "exponents": [[0, 0], [0, 1], [1, 0], [1, 1]]}


class TestCanonicalDumps:
    def test_sorted_keys_and_newline(self):
        text = jsonio.canonical_dumps({"b": 1, "a": [2, 3]})
        assert text == '{"a":[2,3],"b":1}\n'

    def test_serialize_parse_identity_on_emitted_documents(self):
        docs = [
            jsonio.cone_to_json(pos_hull([(1, 0), (1, 2)])),
            jsonio.fan_to_json(multiqubit_fan(2)),
            jsonio.state_to_json(segre_map(ProductState(((1, 2), (3, 4))))),
        ]
        for doc in docs:
            text = jsonio.canonical_dumps(doc)
            assert jsonio.canonical_dumps(json.loads(text)) == text
