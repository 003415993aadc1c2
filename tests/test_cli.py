"""CLI verbs: correctness, determinism, and exit codes."""

import argparse
import hashlib
import io
import itertools
import json
import math
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as hs

from qtoric import (Binomial, MinorSpec, cli, geometry, is_separable, jsonio,
                    linalg, qubit)
from qtoric.rationals import ComplexRational
from qtoric.segre import SeparabilityResult
from qtoric.cli import VERBS, build_parser, main

SQ2 = 1 / math.sqrt(2)

BELL = {"shape": [2, 2],
        "amplitudes": [{"index": [0, 0], "re": SQ2, "im": 0.0},
                       {"index": [1, 1], "re": SQ2, "im": 0.0}]}

PRODUCT_STATE = {"shape": [2, 2],
                 "amplitudes": [{"index": [0, 0], "re": "3", "im": "0"},
                                {"index": [0, 1], "re": "4", "im": "0"},
                                {"index": [1, 0], "re": "6", "im": "0"},
                                {"index": [1, 1], "re": "8", "im": "0"}]}

GHZ = {"shape": [2, 2, 2],
       "amplitudes": [{"index": [0, 0, 0], "re": SQ2, "im": 0.0},
                      {"index": [1, 1, 1], "re": SQ2, "im": 0.0}]}

NAN_STATE = '{"shape":[2,2],"amplitudes":[{"index":[0,0],"re":NaN}]}'

CUBE3 = {"dim": 3, "vertices": [[sx, sy, sz] for sx in (-1, 1)
                                for sy in (-1, 1) for sz in (-1, 1)]}


@hs.composite
def float_product_states(draw):
    """Float product states on 1-4 qubits, every amplitude listed, with
    negative, complex and signed-zero parts."""
    part = hs.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
    locs = [[complex(*draw(hs.tuples(part, part))) for _ in range(2)]
            for _ in range(draw(hs.integers(1, 4)))]
    amps = [{"index": list(i), "re": z.real, "im": z.imag}
            for i in itertools.product((0, 1), repeat=len(locs))
            for z in [math.prod(v[s] for v, s in zip(locs, i))]]
    assume(any(a["re"] or a["im"] for a in amps))
    return {"shape": [2] * len(locs), "amplitudes": amps}


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(BELL))
    return str(path)


class TestVerbs:
    def test_dual(self, capsys):
        code, out = run_cli(capsys, "dual", "--cone",
                            '{"dim":2,"generators":[[1,0],[1,2]]}')
        assert code == 0
        assert json.loads(out) == {"dim": 2, "generators": [[0, 1], [2, -1]]}

    def test_polar_cube_file(self, capsys, tmp_path):
        path = tmp_path / "cube3.json"
        path.write_text(json.dumps(CUBE3))
        code, out = run_cli(capsys, "polar", "--polytope", str(path))
        assert code == 0
        assert json.loads(out)["vertices"] == [
            [-1, 0, 0], [0, -1, 0], [0, 0, -1], [0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_faces(self, capsys):
        code, out = run_cli(capsys, "faces", "--cone",
                            '{"dim":2,"generators":[[1,0],[0,1]]}')
        assert code == 0
        doc = json.loads(out)
        assert doc["generators"] == [[0, 1], [1, 0]]
        assert doc["faces"] == [
            {"indices": [], "dim": 0}, {"indices": [0], "dim": 1},
            {"indices": [1], "dim": 1}, {"indices": [0, 1], "dim": 2}]

    def test_faces_indices_refer_to_canonical_vertices(self, capsys):
        # redundant input points are dropped; the echoed vertex list is the
        # one the face indices refer to
        code, out = run_cli(capsys, "faces", "--polytope",
                            '{"dim":1,"vertices":[[0],[1],[2]]}')
        assert code == 0
        doc = json.loads(out)
        assert doc["vertices"] == [[0], [2]]
        assert {tuple(f["indices"]) for f in doc["faces"]} == \
            {(0,), (1,), (0, 1)}

    def test_normal_fan(self, capsys):
        code, out = run_cli(capsys, "normal-fan", "--polytope",
                            '{"dim":1,"vertices":[[-1],[1]]}')
        assert code == 0
        assert json.loads(out) == {
            "dim": 1, "cones": [{"dim": 1, "generators": []},
                                {"dim": 1, "generators": [[-1]]},
                                {"dim": 1, "generators": [[1]]}]}

    def test_hilbert_basis(self, capsys):
        code, out = run_cli(capsys, "hilbert-basis", "--cone",
                            '{"dim":2,"generators":[[1,0],[1,2]]}')
        assert code == 0
        assert json.loads(out)["generators"] == [[1, 0], [1, 1], [1, 2]]

    def test_toric_ideal(self, capsys):
        code, out = run_cli(capsys, "toric-ideal", "--map",
                            "[[0,0],[1,0],[0,1],[1,1]]", "--degree", "2")
        assert code == 0
        assert json.loads(out)["generators"] == [
            {"mu": [0, 1, 1, 0], "nu": [1, 0, 0, 1]}]

    def test_projective_relations(self, capsys):
        code, out = run_cli(capsys, "projective-relations", "--exponents",
                            "[[0],[1],[2]]", "--degree", "2")
        assert code == 0
        assert json.loads(out)["generators"] == [
            {"mu": [0, 2, 0], "nu": [1, 0, 1]}]

    def test_segre_minors(self, capsys):
        code, out = run_cli(capsys, "segre-minors", "--shape", "[2,2,2]")
        assert code == 0
        assert len(json.loads(out)["minors"]) == 12

    def test_check_separable_bell(self, capsys, bell_file):
        code, out = run_cli(capsys, "check-separable", bell_file,
                            "--tol", "1e-10")
        assert code == 0
        doc = json.loads(out)
        assert doc["separable"] is False
        assert abs(doc["maxViolation"] - 0.5) < 1e-12
        assert doc["witness"] is None
        worst = doc["worstMinor"]
        assert (worst["mode"], worst["k"], worst["l"]) == (0, [0, 0], [1, 1])
        assert abs(worst["value"]["re"] - 0.5) < 1e-12
        assert abs(worst["value"]["im"]) < 1e-12

    def test_check_separable_product(self, capsys):
        code, out = run_cli(capsys, "check-separable",
                            json.dumps(PRODUCT_STATE))
        assert code == 0
        doc = json.loads(out)
        assert doc["separable"] is True
        assert doc["witness"] is not None

    def test_integers_past_the_str_limit(self, capsys):
        # Python 3.10.7 and later refuse str() of an int past 4,300 digits,
        # which these exact answers have
        def text(q):
            num, den = map(Decimal, Fraction(q).as_integer_ratio())
            return f"{num}" if den == 1 else f"{num}/{den}"

        a, b = 10 ** 3000 + 7, 10 ** 3000 + 13
        gens = [[a, 1, 0], [0, b, 1], [1, 0, a]]
        code, out = run_cli(capsys, "dual", "--cone", json.dumps(
            {"dim": 3, "generators": [list(map(str, g)) for g in gens]}))
        assert code == 0, out
        dual = geometry.dual_cone(geometry.pos_hull(gens, 3))
        assert max(abs(x) for g in dual.generators for x in g) > 10 ** 5000
        assert json.loads(out)["generators"] == \
            [[x if abs(x) <= 2 ** 53 else text(x) for x in g]
             for g in dual.generators]
        u, v = (10 ** 1500 + 3, 10 ** 1499 + 7), (10 ** 1500 + 11, 10 ** 1498 + 13)
        state = {"shape": [2, 2], "amplitudes": [
            {"index": [i, j], "re": str(u[i] * v[j])}
            for i in range(2) for j in range(2)]}
        code, out = run_cli(capsys, "check-separable", json.dumps(state))
        assert code == 0, out
        witness = is_separable(jsonio.state_from_json(state)).witness
        assert max(abs(getattr(z, "re", z).numerator)
                   for local in witness.locals for z in local) > 10 ** 4300
        assert json.loads(out)["witness"]["locals"] == [
            [{"re": text(getattr(z, "re", z)), "im": text(getattr(z, "im", 0))}
             for z in local] for local in witness.locals]

    def test_check_separable_mixed_amplitude_kinds(self, capsys):
        mixed = {"shape": [2, 2],
                 "amplitudes": [{"index": [0, 0], "re": "1/2", "im": "0"},
                                {"index": [1, 1], "re": 0.5, "im": 0.0}]}
        code, out = run_cli(capsys, "check-separable", json.dumps(mixed))
        assert code == 0
        assert json.loads(out)["separable"] is False

    def test_check_separable_beyond_float_range(self, capsys):
        for scale in (Fraction(10) ** 400, Fraction(1, 10 ** 400)):
            amps = [{**a, "re": str(int(a["re"]) * scale)}
                    for a in PRODUCT_STATE["amplitudes"]]
            code, out = run_cli(capsys, "check-separable", json.dumps(
                {"shape": [2, 2], "amplitudes": amps}))
            assert code == 0, out
            doc = json.loads(out)
            assert doc["separable"] is True
            assert doc["maxViolation"] == 0.0
            assert doc["witness"] is not None

    @pytest.mark.parametrize("amps, separable", [
        # an exact Bell pair: the minor 10^320 is beyond the float range
        ([([0, 0], str(10 ** 160)), ([1, 1], str(10 ** 160))], False),
        # separable at the default tolerance, with a witness, but its minor
        # of about 10^400 2^-40 is beyond the float range too
        ([([0, 0], 1e200), ([0, 1], 1e200), ([1, 0], 1e200),
          ([1, 1], 1e200 * (1 + 2.0 ** -40))], True),
    ], ids=["exact-bell", "float-product"])
    def test_check_separable_violation_beyond_float_range(self, capsys, amps,
                                                          separable):
        doc = {"shape": [2, 2],
               "amplitudes": [{"index": i, "re": re} for i, re in amps]}
        code, out = run_cli(capsys, "check-separable", json.dumps(doc))
        assert code == 2
        assert json.loads(out) == {"error": (
            "maxViolation is inf, beyond the float range; scaling the state "
            "by a power of two keeps the verdict")}
        verdict = is_separable(jsonio.state_from_json(doc))
        assert verdict.separable is separable
        assert verdict.max_violation == math.inf
        assert (verdict.witness is not None) is separable
        # the state over 2^600 is in range, with the same verdict
        halved = {"shape": [2, 2], "amplitudes": [
            {"index": i, "re": re / 2 ** 600 if isinstance(re, float)
             else str(Fraction(re) / 2 ** 600)} for i, re in amps]}
        code, out = run_cli(capsys, "check-separable", json.dumps(halved))
        assert code == 0
        assert json.loads(out)["separable"] is separable

    @pytest.mark.parametrize("verb", ["check-separable", "concurrence"])
    def test_duplicate_amplitude_index_rejected(self, capsys, verb):
        # without the check the Bell state below reads as |00>, separable
        state = ('{"shape":[2,2],"amplitudes":[{"index":[0,0],"re":"1"},'
                 '{"index":[1,1],"re":"1"},{"index":[1,1],"re":"0"}]}')
        code, out = run_cli(capsys, verb, state)
        assert code == 2
        assert json.loads(out) == {
            "error": "duplicate amplitude index (1, 1)"}

    @pytest.mark.parametrize("amps, expected", [
        ([("1e400", "0")], "inf"),
        ([("1e-400", "0")], "0.0"),
        ([("1/3", "0"), ("1/7", "2/9")], "0.18090199042579996"),
    ], ids=["1e400", "1e-400", "in-range"])
    def test_concurrence_exact_norm_message(self, capsys, amps, expected):
        # the norm of an exact state is checked in integers; 10^400 used to
        # exit 2 with a float overflow instead of this message
        state = {"shape": [2, 2], "amplitudes": [
            {"index": [i, i], "re": re, "im": im}
            for i, (re, im) in enumerate(amps)]}
        code, out = run_cli(capsys, "concurrence", json.dumps(state))
        assert code == 2
        assert json.loads(out) == {
            "error": f"state is not normalized: sum |amp|^2 = {expected}"}

    def test_concurrence(self, capsys, bell_file):
        code, out = run_cli(capsys, "concurrence", bell_file)
        assert code == 0
        assert abs(json.loads(out)["concurrence"] - 1.0) < 1e-12

    def test_qubit_fan_and_polytope(self, capsys):
        code, out = run_cli(capsys, "qubit-fan", "--m", "2")
        assert code == 0
        assert len(json.loads(out)["cones"]) == 9
        code, out = run_cli(capsys, "qubit-polytope", "--m", "2")
        assert code == 0
        assert json.loads(out)["vertices"] == [[-1, -1], [-1, 1], [1, -1], [1, 1]]

    def test_atlas(self, capsys):
        code, out = run_cli(capsys, "atlas", "--projective", "1")
        assert code == 0
        doc = json.loads(out)
        assert [t["matrix"] for t in doc["transitions"]] == [[[-1]], [[-1]]]
        code, out = run_cli(capsys, "atlas", "--qubits", "2")
        assert code == 0
        assert len(json.loads(out)["charts"]) == 4

    def test_atlas_from_fan_file(self, capsys, tmp_path):
        code, fan_doc = run_cli(capsys, "qubit-fan", "--m", "2")
        assert code == 0
        fan_file = tmp_path / "fan.json"
        fan_file.write_text(fan_doc)
        code, via_file = run_cli(capsys, "atlas", "--fan", str(fan_file))
        assert code == 0
        code, direct = run_cli(capsys, "atlas", "--qubits", "2")
        assert code == 0
        assert via_file == direct

    def test_atlas_needs_exactly_one_source(self, capsys):
        code, out = run_cli(capsys, "atlas")
        assert code == 2
        code, out = run_cli(capsys, "atlas", "--qubits", "2",
                            "--projective", "1")
        assert code == 2

    def test_param(self, capsys):
        code, out = run_cli(capsys, "param", "--m", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["exponents"][0] == [0, 0, 0]
        assert doc["exponents"][-1] == [1, 1, 1]

    def test_verify_param(self, capsys):
        code, out = run_cli(capsys, "verify-param", "--m", "2",
                            "--z", '["2","3"]')
        assert code == 0
        assert json.loads(out) == {"m": 2, "onVariety": True}

    def test_float_witness_writes_zeros_as_numbers(self, capsys):
        code, out = run_cli(capsys, "check-separable",
                            '{"shape":[2,2],"amplitudes":[{"index":[0,0],'
                            '"re":1.0,"im":0.0}]}')
        assert code == 0
        assert out == (
            '{"maxViolation":0.0,"separable":true,"witness":{"locals":['
            '[{"im":0.0,"re":1.0},{"im":0.0,"re":0.0}],'
            '[{"im":0.0,"re":1.0},{"im":0.0,"re":0.0}]]},"worstMinor":null}\n')

    @pytest.mark.parametrize("m", [1025, 1100])
    def test_float_witness_past_the_power_range(self, capsys, m):
        # the witness divided by P^(m-1) held inf, which JSON cannot carry,
        # and from about 1,076 parties P^(m-1) underflowed to 0
        state = {"shape": [2] * m,
                 "amplitudes": [{"index": [0] * m, "re": 1.0, "im": 0.0}]}
        code, out = run_cli(capsys, "check-separable", json.dumps(state))
        assert code == 0
        doc = json.loads(out)
        assert doc["separable"]
        assert doc["witness"]["locals"][0][0] == {"im": 0.0, "re": 1.0}
        assert doc["witness"]["locals"][1] == [{"im": 0.0, "re": 1.0},
                                               {"im": 0.0, "re": 0.0}]

    @given(float_product_states())
    @example({"shape": [2] * 1100, "amplitudes": [
        {"index": [0] * 1100, "re": -1.0, "im": 0.0}]})
    @example({"shape": [2, 2], "amplitudes": [
        {"index": [0, 0], "re": -1.0, "im": 0.0},
        {"index": [1, 0], "re": 0.5, "im": 0.0}]})
    def test_float_witness_writes_no_negative_zero(self, state):
        # dividing by a negative or complex peak turns zero parts into -0.0
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["check-separable", json.dumps(state)]) == 0
        assert not re.search(r"-0\.0(?!\d)", out.getvalue())
        doc = json.loads(out.getvalue())
        assert doc["separable"]
        amps = {tuple(a["index"]): complex(a["re"], a["im"])
                for a in state["amplitudes"] if a["re"] or a["im"]}
        rebuilt = {(): 1}
        for local in doc["witness"]["locals"]:
            rebuilt = {k + (i,): a * complex(x["re"], x["im"])
                       for k, a in rebuilt.items()
                       for i, x in enumerate(local) if x["re"] or x["im"]}
        peak = max(map(abs, amps.values()))
        for index in amps.keys() | rebuilt.keys():
            assert abs(amps.get(index, 0) - rebuilt.get(index, 0)) <= \
                1e-12 * peak, index

    def test_worst_value_writes_no_negative_zero(self, capsys, monkeypatch):
        worst = MinorSpec(0, (0, 0), (1, 1))
        monkeypatch.setattr(cli, "is_separable", lambda state, tol: (
            SeparabilityResult(False, 0.0, None, worst, complex(-0.0, -0.0))))
        code, out = run_cli(capsys, "check-separable", json.dumps(BELL))
        assert code == 0
        assert '"value":{"im":0.0,"re":0.0}' in out
        assert "-0.0" not in out

    @pytest.mark.parametrize("vertices", [[[0, 0], [1, 0]],
                                          [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                                          [[2, -1]]],
                             ids=["segment", "triangle", "point"])
    def test_normal_fan_of_lower_dimensional_polytope(self, capsys, vertices):
        polytope = {"dim": len(vertices[0]), "vertices": vertices}
        assert run_cli(capsys, "normal-fan", "--polytope",
                       json.dumps(polytope)) == \
            (2, '{"error":"polytope is not full-dimensional"}\n')

    def test_map_dict_form_matches_list_form(self, capsys):
        as_dict = run_cli(capsys, "toric-ideal", "--degree", "2", "--map",
                          '{"dim":2,"exponents":[[2,0],[1,1],[0,2]]}')
        as_list = run_cli(capsys, "toric-ideal", "--degree", "2", "--map",
                          "[[2,0],[1,1],[0,2]]")
        assert as_dict == as_list
        assert as_dict[0] == 0 and json.loads(as_dict[1])["generators"]

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO('{"dim":2,"generators":[[1,0],[0,1]]}'))
        code, out = run_cli(capsys, "dual", "--cone", "-")
        assert code == 0
        assert json.loads(out)["generators"] == [[0, 1], [1, 0]]


class TestOneDoubleDescription:
    """Each geometric verb runs one double description on a non-simplicial
    input: the hull's, kept by the object and read by the verb."""

    CONE4 = '{"dim":3,"generators":[[1,0,0],[0,1,0],[3,4,5],[2,-1,3]]}'

    @pytest.mark.parametrize("argv", [
        ("dual", "--cone", CONE4),
        ("faces", "--cone", CONE4),
        ("faces", "--polytope", json.dumps(CUBE3)),
        ("polar", "--polytope", json.dumps(CUBE3)),
        ("normal-fan", "--polytope", json.dumps(CUBE3)),
        ("hilbert-basis", "--cone", CONE4),
    ], ids=["dual", "faces-cone", "faces-polytope", "polar", "normal-fan",
            "hilbert-basis"])
    def test_one_per_op(self, capsys, argv):
        # counted by code object, under whatever name a module calls it
        from qtoric.geometry import _dd_rays
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is _dd_rays.__code__:
                calls.append(event)

        sys.setprofile(profile)
        try:
            code, _ = run_cli(capsys, *argv)
        finally:
            sys.setprofile(None)
        assert code == 0
        assert len(calls) == 1


class TestIdealVerbs:
    ARGV = [("toric-ideal", "--map", "[[3,0],[2,1],[1,2],[0,3]]", "--degree", "3"),
            ("projective-relations", "--exponents", "[[0,0],[1,0],[0,1],[1,1]]",
             "--degree", "2")]

    @pytest.mark.parametrize("argv", ARGV, ids=lambda a: a[0])
    def test_no_binomial_object_built(self, capsys, monkeypatch, argv):
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0 and json.loads(expected[1])["generators"]

        def refuse(self):
            raise AssertionError("a Binomial was built")

        monkeypatch.setattr(Binomial, "__post_init__", refuse)
        assert run_cli(capsys, *argv) == expected


class TestTableVerbs:
    FANS = [("qubit-fan", "--m", "3"), ("atlas", "--qubits", "2"),
            ("normal-fan", "--polytope",
             '{"dim":2,"vertices":[[0,0],[2,0],[0,1],[1,2]]}')]
    TABLES = [("segre-minors", "--shape", "[2,3,2]"), FANS[0],
              ("toric-ideal", "--map", "[[3,0],[2,1],[1,2],[0,3]]",
               "--degree", "3")]

    def test_segre_minors_builds_no_minor(self, capsys, monkeypatch):
        argv = self.TABLES[0]
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0 and json.loads(expected[1])["minors"]

        def refuse(self, *args):
            raise AssertionError("a MinorSpec was built")

        monkeypatch.setattr(MinorSpec, "__init__", refuse)
        assert run_cli(capsys, *argv) == expected

    # an exact entangled state, and an exact normalized entangled one: the
    # product (3/5, 4/5) x (3/5, 4i/5) with the sign of |11> flipped
    EXACT_STATES = [
        ("check-separable", json.dumps({"shape": [2, 2, 3], "amplitudes": [
            {"index": [0, 0, 0], "re": "1/2", "im": "-1/3"},
            {"index": [1, 1, 2], "re": "7"},
            {"index": [0, 1, 1], "im": "2/9"}]})),
        ("concurrence", json.dumps({"shape": [2, 2], "amplitudes": [
            {"index": [0, 0], "re": "9/25"}, {"index": [0, 1], "im": "12/25"},
            {"index": [1, 0], "re": "12/25"}, {"index": [1, 1], "im": "-16/25"}]}))]

    @pytest.mark.parametrize("argv", EXACT_STATES, ids=lambda a: a[0])
    def test_exact_state_builds_no_complex_rational(self, capsys, monkeypatch,
                                                    argv):
        # the state is read straight into Gaussian integers over one
        # denominator, and decided on them
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0 and "error" not in json.loads(expected[1])

        def refuse(self):
            raise AssertionError("a ComplexRational was built")

        monkeypatch.setattr(ComplexRational, "__post_init__", refuse)
        assert run_cli(capsys, *argv) == expected

    def test_verify_param_multiplies_no_complex_rational(self, capsys,
                                                          monkeypatch):
        argv = ("verify-param", "--m", "10", "--z",
                '["1/2","-3","2/3","5","-7/2","11","1/13","-17","19/3","23"]')
        expected = run_cli(capsys, *argv)
        assert expected == (0, '{"m":10,"onVariety":true}\n')

        def refuse(self, other):
            raise AssertionError("ComplexRational multiplication")

        monkeypatch.setattr(ComplexRational, "__mul__", refuse)
        monkeypatch.setattr(ComplexRational, "__rmul__", refuse)
        assert run_cli(capsys, *argv) == expected

    @pytest.mark.parametrize("factor, digest", [
        (Fraction(1, 10 ** 400),
         "9bd292706ff9d30d61b6bacbafd2d895eb61a88832eaab1be5baccd0bb00b7ac"),
        (Fraction(10 ** 400),
         "76338beca83c3b613c078eacad75c0acc20119166592368669d6c0bf1ba6e88b")],
        ids=["1e-400", "1e400"])
    def test_exact_witness_scaled_back_without_complex_rational_products(
            self, capsys, monkeypatch, factor, digest):
        # the product of (3/5, 4/5) with itself is decided on a copy shifted
        # by 2^-k; the witness's integer triples take the 2^k back
        loc = (Fraction(3, 5), Fraction(4, 5))
        state = json.dumps({"shape": [2, 2], "amplitudes": [
            {"index": [i, j], "re": str(loc[i] * loc[j] * factor)}
            for i in (0, 1) for j in (0, 1)]})
        expected = run_cli(capsys, "check-separable", state)
        assert expected[0] == 0
        assert hashlib.sha256(expected[1].encode()).hexdigest() == digest

        def refuse(self, other):
            raise AssertionError("ComplexRational multiplication")

        monkeypatch.setattr(ComplexRational, "__mul__", refuse)
        monkeypatch.setattr(ComplexRational, "__rmul__", refuse)
        assert run_cli(capsys, "check-separable", state) == expected

    @pytest.mark.parametrize("argv", FANS, ids=lambda a: a[0])
    def test_fans_build_no_cone_document(self, capsys, monkeypatch, argv):
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0

        def refuse(cone):
            raise AssertionError("a cone document was built")

        monkeypatch.setattr(jsonio, "cone_to_json", refuse)
        assert run_cli(capsys, *argv) == expected

    CUBE5 = json.dumps({"dim": 5, "vertices": [
        list(v) for v in itertools.product((-1, 1), repeat=5)]})

    @pytest.mark.parametrize("argv", [("qubit-fan", "--m", "5"),
                                      ("normal-fan", "--polytope", CUBE5)],
                             ids=lambda a: a[0])
    def test_fans_build_no_cone(self, capsys, monkeypatch, argv):
        def refuse(cone):
            raise AssertionError("a Cone was built")

        monkeypatch.setattr(geometry.Cone, "__post_init__", refuse)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        # the 5-cube's normal fan is the (CP^1)^5 fan, pinned to its bytes
        # from before the fan became a ray table
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "1e22fd20564109e73b887e73687a6de2ce527e5524e630f46681737bcec4852d"

    def test_atlas_ranks_only_the_maximal_cones(self, capsys, monkeypatch):
        calls = []
        eliminate = linalg._eliminate

        def counted(rows, n):
            calls.append(rows)
            return eliminate(rows, n)

        monkeypatch.setattr(linalg, "_eliminate", counted)
        assert run_cli(capsys, "atlas", "--qubits", "5")[0] == 0
        # at most one determinant per maximal cone, and the pivots and the
        # first simplicial cone of one double description
        assert len(calls) <= 2 ** 5 + 2

    def test_qubit_atlas_decides_no_chart(self, capsys, monkeypatch):
        # the determinants are those of the CP^1 fan and atlas, whatever m
        calls = []
        det_adj = linalg.det_adj

        def counted(rows):
            calls.append(rows)
            return det_adj(rows)

        monkeypatch.setattr(geometry, "det_adj", counted)
        monkeypatch.setattr(qubit, "det_adj", counted)
        counts = []
        for m in (2, 8):
            calls.clear()
            assert run_cli(capsys, "atlas", "--qubits", str(m))[0] == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("argv", [("qubit-fan", "--m", "5"),
                                      ("normal-fan", "--polytope", CUBE5)],
                             ids=lambda a: a[0])
    def test_fans_rank_no_polytope(self, capsys, monkeypatch, argv):
        # faces is what is left in geometry that ranks a polytope's faces
        def refuse(obj):
            raise AssertionError("a polytope was ranked")

        monkeypatch.setattr(geometry, "faces", refuse)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "1e22fd20564109e73b887e73687a6de2ce527e5524e630f46681737bcec4852d"

    @pytest.mark.parametrize("argv", TABLES, ids=lambda a: a[0])
    def test_error_mid_list_prints_only_the_error(self, capsys, monkeypatch,
                                                  argv):
        # a table's vectors are joined from the texts of their integers,
        # each integer encoded once
        encoded = []
        int_text = jsonio._int_text

        def fail_third(x):
            encoded.append(x)
            if len(encoded) == 3:
                raise ValueError("encoder failed")
            return int_text(x)

        monkeypatch.setattr(jsonio, "_int_text", fail_third)
        assert run_cli(capsys, *argv) == (2, '{"error":"encoder failed"}\n')
        assert len(encoded) == 3

    @pytest.mark.parametrize("argv", TABLES, ids=lambda a: a[0])
    def test_written_in_chunks(self, capsys, monkeypatch, argv):
        expected = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "_CHUNK", 7)
        assert run_cli(capsys, *argv) == expected


def _verb_argvs(verb):
    """Arguments the verb's parser accepts, spelt three ways: --opt value,
    --opt=value and abbreviated options; the values are read only by the
    verb's operation."""
    plain, equals, abbreviated = [], [], []
    for name, keywords in VERBS[verb][1]:
        value = {int: "2", float: "0.5"}.get(keywords.get("type"), "x")
        if name.startswith("--"):
            plain += [name, value]
            equals.append(f"{name}={value}")
            abbreviated += [name[:max(3, len(name) - 2)], value]
        else:
            for spelling in (plain, equals, abbreviated):
                spelling.append(value)
    return plain, equals, abbreviated


def _parse_errors(verb):
    """A missing required argument, a bad number, an unknown option, a stray
    positional, --opt=value and abbreviated options (each with a stray
    positional) and -h, where the verb has them."""
    rows = VERBS[verb][1]
    plain, equals, abbreviated = _verb_argvs(verb)
    cases = [[verb, *plain, "--bogus"], [verb, *plain, "extra"],
             [verb, *equals, "extra"], [verb, *abbreviated, "extra"],
             [verb, "-h"]]
    if any(k.get("required") or not n.startswith("-") for n, k in rows):
        cases.append([verb])
    typed = [n for n, k in rows if "type" in k]
    if typed:
        bad = list(plain)
        bad[bad.index(typed[0]) + 1] = "x"
        cases.append([verb, *bad])
    return cases


_GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def _respellings(argv):
    """A plain call spelt --opt=value, and with each option cut as in
    _verb_argvs (a one-letter option stays whole)."""
    options = {n for n, _ in VERBS[argv[0]][1] if n.startswith("--")}
    equals, abbreviated, tokens = [argv[0]], [argv[0]], iter(argv[1:])
    for token in tokens:
        if token in options:
            value = next(tokens)
            equals.append(f"{token}={value}")
            abbreviated += [token[:max(3, len(token) - 2)], value]
        else:
            equals.append(token)
            abbreviated.append(token)
    return equals, abbreviated


class TestProductPaths:
    """qubit-fan and atlas --qubits are products of CP^1 factors; the
    normal fan of the sign cube and chart_atlas of that fan, both generic,
    must print the same bytes."""

    @pytest.mark.parametrize("m", range(1, 6))
    def test_equal_to_the_generic_paths(self, capsys, m):
        cube = json.dumps({"dim": m, "vertices": [
            list(v) for v in itertools.product((-1, 1), repeat=m)]})
        fan = run_cli(capsys, "qubit-fan", "--m", str(m))
        assert fan[0] == 0
        assert run_cli(capsys, "normal-fan", "--polytope", cube) == fan
        atlas = run_cli(capsys, "atlas", "--qubits", str(m))
        assert atlas[0] == 0
        assert run_cli(capsys, "atlas", "--fan", fan[1]) == atlas


class TestParser:
    TOP = [[], ["nope"], ["dual", "--cone", "x", "extra"], ["param", "--m", "x"],
           ["toric-ideal", "-h"], ["-h"]]
    ERRORS = TOP + [argv for verb in VERBS for argv in _parse_errors(verb)]

    @pytest.mark.parametrize("argv", ERRORS, ids=str)
    def test_reused_parser_reports_like_a_fresh_one(self, capsys, argv):
        """main reports like a fresh whole parser; earlier calls leave no trace."""
        for other in self.TOP + [a for a in self.ERRORS if a[:1] == argv[:1]]:
            main(other)
        run_cli(capsys, "dual", "--cone", "[[1,0],[1,2]]")
        code = main(argv)
        got = code, capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert got == (exc.value.code, capsys.readouterr())
        assert got[1].out or got[1].err

    @pytest.mark.parametrize("verb", VERBS)
    def test_plain_args_parse_like_the_whole_parser(self, verb):
        """The plain spelling is read from the row; --opt=value, abbreviated
        options and repeats are left to the whole parser."""
        plain, *others = _verb_argvs(verb)
        whole = build_parser().parse_args([verb, *plain])
        args = cli._plain_args(verb, plain)
        assert vars(whole) == {**vars(args), "verb": verb}
        for rest in others:
            if rest != plain:
                assert cli._plain_args(verb, rest) is None
        # argparse converts every repeat, so a bad first value is an error
        assert cli._plain_args(verb, plain + plain) is None

    @pytest.mark.parametrize("verb", VERBS)
    @given(data=hs.data())
    def test_plain_args_agree_with_the_whole_parser(self, verb, data):
        """Any argv the row reads as plain, the whole parser reads alike."""
        names = [n for n, _ in VERBS[verb][1] if n.startswith("--")]
        values = ["-", "-1", "", "--", "-h", "--help", " -x", "nan", "0", "2",
                  "1e-3", "[[1,0],[1,2]]", '{"dim":2,"generators":[[1,0]]}']
        words = names + [n[:4] for n in names] + values + [
            f"{n}={v}" for n in names for v in ("2", "nan", "-1", "[2,2]")]
        argv = data.draw(hs.lists(hs.sampled_from(words), max_size=6))
        plain = cli._plain_args(verb, argv)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                whole = vars(build_parser().parse_args([verb, *argv]))
        except SystemExit:
            assert plain is None
            return
        if plain is not None:
            assert whole.pop("verb") == verb
            assert whole.keys() == vars(plain).keys()
            for key, value in vars(plain).items():  # nan equals nan here
                other = whole[key]
                assert value == other or value != value and other != other

    @pytest.mark.parametrize("argv", [e["argv"] for e in _GOLDEN], ids=str)
    def test_fallback_spellings_print_the_same(self, capsys, argv):
        """--opt=value and abbreviated options reach the whole parser and
        print what the plain spelling prints."""
        expected = run_cli(capsys, *argv)
        for spelt in _respellings(argv):
            assert run_cli(capsys, *spelt) == expected

    def test_plain_call_builds_no_parser(self, capsys, monkeypatch):
        """A plain valid call of each verb builds no parser; the same call
        spelt --opt=value builds the whole parser and nothing else."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        whole = ["qtoric"] + [f"qtoric {verb}" for verb in VERBS]
        calls = {e["argv"][0]: e["argv"] for e in reversed(_GOLDEN)}
        calls["concurrence"] = calls["concurrence"] + ["--weights", "[1]"]
        for verb, argv in calls.items():
            assert run_cli(capsys, *argv)[0] == 0 and built == [], argv
            equals = _respellings(argv)[0]
            assert run_cli(capsys, *equals)[0] == 0 and built == whole, equals
            built.clear()


class TestExitCodes:
    def test_unknown_verb_rejected(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_malformed_json(self, capsys):
        code, out = run_cli(capsys, "dual", "--cone", "{not json")
        assert code == 2
        assert "error" in json.loads(out)

    def test_missing_file(self, capsys):
        code, out = run_cli(capsys, "dual", "--cone", "no-such-file.json")
        assert code == 2
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("arg", ["", "   ", "nofile"], ids=repr)
    def test_blank_input_is_neither_file_nor_json(self, capsys, monkeypatch,
                                                  tmp_path, arg):
        monkeypatch.chdir(tmp_path)
        message = f"input {arg!r} is neither a file nor inline JSON"
        assert run_cli(capsys, "dual", "--cone", arg) == \
            (2, jsonio.canonical_dumps({"error": message}))

    @pytest.mark.parametrize("opener", ["[", '{"a":'], ids=["array", "object"])
    @pytest.mark.parametrize("source", ["inline", "file", "stdin"])
    def test_deep_nesting_is_malformed_input(self, capsys, monkeypatch,
                                             tmp_path, source, opener):
        # the decoder runs out of stack, which is the input's fault; the
        # depth is past the C recursion limit of Python 3.12 and later,
        # which guards the decoder there in place of sys.getrecursionlimit()
        text = opener * 100_000
        path = tmp_path / "deep.json"
        path.write_text(text)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        arg = {"inline": text, "file": str(path), "stdin": "-"}[source]
        message = "input JSON is nested too deeply"
        assert run_cli(capsys, "dual", "--cone", arg) == \
            (2, jsonio.canonical_dumps({"error": message}))

    def test_precondition_violation(self, capsys):
        code, out = run_cli(capsys, "polar", "--polytope",
                            '{"dim":1,"vertices":[[0],[2]]}')
        assert code == 2
        assert "interior" in json.loads(out)["error"]

    def test_faces_needs_exactly_one_input(self, capsys):
        code, out = run_cli(capsys, "faces")
        assert code == 2
        code, out = run_cli(
            capsys, "faces", "--cone", '{"dim":1,"generators":[[1]]}',
            "--polytope", '{"dim":1,"vertices":[[0],[1]]}')
        assert code == 2

    def test_hilbert_basis_non_pointed(self, capsys):
        code, out = run_cli(capsys, "hilbert-basis", "--cone",
                            '{"dim":2,"generators":[[1,0],[-1,0]]}')
        assert code == 2
        assert "strongly convex" in json.loads(out)["error"]

    @pytest.mark.parametrize("argv, message", [
        (("dual", "--cone", '{"dim":2.5,"generators":[[1,0]]}'),
         "expected an integer, got 2.5"),
        (("atlas", "--fan", '{"dim":2}'), "fan JSON needs 'dim' and 'cones'"),
        (("check-separable", '{"shape":[2,2]}'),
         "state JSON needs 'shape' and 'amplitudes'"),
        (("toric-ideal", "--map", "[]", "--degree", "2"),
         "monomial map needs at least one exponent vector"),
        (("check-separable",
          '{"shape":[2],"amplitudes":[{"index":[0],"re":true}]}'),
         "amplitude parts must be numbers or 'p/q' strings"),
        (("check-separable",
          '{"shape":[2],"amplitudes":[{"index":[0],"re":[1]}]}'),
         "bad amplitude part [1]"),
        (("verify-param", "--m", "1", "--z", "[[1]]"), "bad exact rational [1]"),
        (("verify-param", "--m", "1", "--z", "{}"),
         "torus point must be a JSON list"),
        (("polar", "--polytope", '{"dim":2,"vertices":[[1,0],[1]]}'),
         "dimension mismatch among input points"),
        (("projective-relations", "--exponents", "{}", "--degree", "2"),
         "--exponents must be a JSON list of integer vectors"),
        # a number is not a vector, nor a JSON object the list of its keys
        (("projective-relations", "--exponents", "[5]", "--degree", "2"),
         "expected a list of integers, got 5"),
        (("segre-minors", "--shape", '{"2": 0, "3": 0}'),
         "expected a list of integers, got {'2': 0, '3': 0}"),
        (("check-separable", '{"shape":{"2":0,"3":0},"amplitudes":'
          '[{"index":[0,0],"re":1}]}'),
         "expected a list of integers, got {'2': 0, '3': 0}"),
        (("check-separable", '{"shape":[2,3],"amplitudes":'
          '[{"index":{"0":1,"1":2},"re":1}]}'),
         "expected a list of integers, got {'0': 1, '1': 2}"),
        # a list field given as an object is not read as its keys
        (("dual", "--cone", '{"dim":2,"generators":{}}'),
         "'generators' must be a JSON list, got {}"),
        (("polar", "--polytope", '{"dim":2,"vertices":"ab"}'),
         "'vertices' must be a JSON list, got 'ab'"),
        (("atlas", "--fan", '{"dim":2,"cones":{"x":1}}'),
         "'cones' must be a JSON list, got {'x': 1}"),
        (("toric-ideal", "--map", '{"dim":2,"exponents":{}}', "--degree", "2"),
         "'exponents' must be a JSON list, got {}"),
        (("check-separable", '{"shape":[2],"amplitudes":{"a":1}}'),
         "'amplitudes' must be a JSON list, got {'a': 1}"),
        (("check-separable", '{"shape":[2],"amplitudes":[[0]]}'),
         "'amplitudes' entries must be JSON objects, got [0]"),
        (("toric-ideal", "--map", '{"exponents":[]}', "--degree", "2"),
         "monomial map needs at least one exponent vector"),
        (("check-separable", '{"shape":[2],"amplitudes":[{"re":1}]}'),
         "'amplitudes' entries need an 'index', got {'re': 1}"),
    ], ids=["float-int", "fan-keys", "state-keys", "empty-map",
            "bool-part", "list-part", "list-coordinate", "point-not-list",
            "mixed-vertices", "exponents-not-list", "exponent-not-list",
            "shape-object", "state-shape-object", "index-object",
            "generators-object", "vertices-string", "cones-object",
            "map-exponents-object", "amplitudes-object", "entry-list",
            "empty-map-object", "entry-without-index"])
    def test_rejection_document(self, capsys, argv, message):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out == jsonio.canonical_dumps({"error": message})

    # Fraction reads '_' between digits from Python 3.11 on and spaces beside
    # the '/' from 3.12 on; the readers refuse both on every version
    @pytest.mark.parametrize("text", ["1_0/3", "1/1_0", "2 / 3", "2/ 3", "2 /3"])
    @pytest.mark.parametrize("argv", [
        lambda t: ("check-separable", json.dumps(
            {"shape": [2], "amplitudes": [{"index": [0], "re": t}]})),
        lambda t: ("verify-param", "--m", "1", "--z", json.dumps([t])),
    ], ids=["check-separable", "verify-param"])
    def test_fraction_grammar_of_python_3_10(self, capsys, argv, text):
        code, out = run_cli(capsys, *argv(text))
        assert code == 2
        assert out == jsonio.canonical_dumps(
            {"error": f"Invalid literal for Fraction: {text!r}"})

    def test_empty_map_of_given_dimension_accepted(self, capsys):
        code, out = run_cli(capsys, "toric-ideal", "--map",
                            '{"dim":1,"exponents":[]}', "--degree", "2")
        assert (code, json.loads(out)["generators"]) == (0, [])

    def test_missing_generators_read_as_none(self, capsys):
        code, out = run_cli(capsys, "dual", "--cone", '{"dim":2}')
        assert code == 0 and (code, out) == \
            run_cli(capsys, "dual", "--cone", '{"dim":2,"generators":[]}')

    def test_verify_param_rejects_float_coordinates(self, capsys):
        code, out = run_cli(capsys, "verify-param", "--m", "1",
                            "--z", "[0.5]")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("check-separable", NAN_STATE),
        ("concurrence", NAN_STATE),
        ("check-separable", json.dumps(BELL), "--tol", "nan"),
        ("check-separable", json.dumps(BELL), "--tol", "inf"),
        ("concurrence", json.dumps(BELL), "--weights", "[NaN]"),
    ], ids=["nan-amplitude", "nan-amplitude-concurrence", "nan-tol",
            "inf-tol", "nan-weights"])
    def test_non_finite_input_rejected(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert "error" in json.loads(out)

    def test_atlas_rejects_overlapping_fan(self, capsys):
        # pos{e1, e2} and pos{-e1, e1 + e2} overlap and leave a gap
        fan = {"dim": 2, "cones": [
            {"dim": 2, "generators": [[1, 0], [0, 1]]},
            {"dim": 2, "generators": [[-1, 0], [1, 1]]}]}
        code, out = run_cli(capsys, "atlas", "--fan", json.dumps(fan))
        assert code == 2
        assert "not complete" in json.loads(out)["error"]

    def test_atlas_rejects_empty_fan(self, capsys):
        code, out = run_cli(capsys, "atlas", "--fan", '{"dim":2,"cones":[]}')
        assert code == 2
        assert json.loads(out)["error"].startswith("fan is not complete: ")

    def test_malformed_documents_never_exit_3(self, capsys):
        bad_inputs = [
            ("dual", "--cone", '{"dim":"x","generators":[[1]]}'),
            ("dual", "--cone", '{"dim":2,"generators":"oops"}'),
            ("dual", "--cone", '{"dim":2,"generators":[[1,0],[1]]}'),
            ("dual", "--cone", '{"dim":2,"generators":[[1,true]]}'),
            ("polar", "--polytope", '{"dim":2,"vertices":[[1,"a"]]}'),
            ("polar", "--polytope", '{"dim":-1,"vertices":[]}'),
            ("normal-fan", "--polytope", '{"dim":2,"vertices":[]}'),
            ("toric-ideal", "--map", '{"bogus":1}', "--degree", "2"),
            ("toric-ideal", "--map", "[[0,0],[1]]", "--degree", "2"),
            ("segre-minors", "--shape", "[1,2]"),
            ("segre-minors", "--shape", '{"shape":[2,2]}'),
            ("check-separable", '{"shape":[2,2],"amplitudes":"x"}'),
            ("check-separable", '{"shape":[2,2],"amplitudes":[{"re":1}]}'),
            ("check-separable",
             '{"shape":[2,2],"amplitudes":[{"index":[5,0],"re":1,"im":0}]}'),
            ("concurrence",
             '{"shape":[2,2],"amplitudes":[{"index":[0,0],"re":2,"im":0}]}'),
            ("verify-param", "--m", "2", "--z", '["1/2"]'),
            ("verify-param", "--m", "2", "--z", '["0","3"]'),
            ("atlas", "--fan", '{"dim":2,"cones":"zap"}'),
            ("param", "--m", "0"),
            ("concurrence", json.dumps(BELL), "--weights", "[true]"),
            ("concurrence", json.dumps(BELL), "--weights", '["2"]'),
            ("concurrence", json.dumps(BELL), "--weights", '{"w":1}'),
            ("concurrence", json.dumps(BELL), "--weights", "[-1]"),
            ("concurrence", json.dumps(GHZ), "--weights",
             json.dumps([-1] + [1] * 11)),
        ]
        for argv in bad_inputs:
            code, out = run_cli(capsys, *argv)
            assert code == 2, (argv, out)
            assert "error" in json.loads(out), argv

    def test_internal_failure_exits_3(self, capsys, monkeypatch):
        import qtoric.cli as cli_mod

        def boom(_):
            raise RuntimeError("invariant violated")

        monkeypatch.setattr(cli_mod, "dual_cone", boom)
        code, out = run_cli(capsys, "dual", "--cone",
                            '{"dim":1,"generators":[[1]]}')
        assert code == 3
        doc = json.loads(out)
        assert doc["kind"] == "internal"
        assert "invariant" in doc["error"]

    @pytest.mark.parametrize("argv, doc, head", [
        (("dual", "--cone"), {"dim": 2, "generators": [[list(range(100000))]]},
         '{"error":"expected an integer, got [0, 1, 2, '),
        (("check-separable",),
         {"shape": [2], "amplitudes": [{"index": [0], "re": "x" * 200000}]},
         "{\"error\":\"Invalid literal for Fraction: 'xxx"),
    ], ids=["long-generator", "long-part"])
    def test_huge_input_echoes_a_bounded_message(self, capsys, tmp_path,
                                                 argv, doc, head):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert out.startswith(head) and out.endswith('..."}\n')
        assert len(json.loads(out)["error"]) == 1003
        assert len(out.encode()) < 1100

    @pytest.mark.parametrize("length", [999, 1000, 1001, 5000])
    @pytest.mark.parametrize("exc, code, tail", [
        (ValueError, 2, {}), (RuntimeError, 3, {"kind": "internal"})],
        ids=["rejected", "internal"])
    def test_message_cut_at_1000_characters(self, capsys, monkeypatch,
                                            length, exc, code, tail):
        message = "".join(chr(ord("a") + i % 26) for i in range(length))

        def fail(_):
            raise exc(message)

        monkeypatch.setattr(cli, "dual_cone", fail)
        shown = message if length <= 1000 else message[:1000] + "..."
        assert run_cli(capsys, "dual", "--cone",
                       '{"dim":1,"generators":[[1]]}') == \
            (code, jsonio.canonical_dumps({"error": shown, **tail}))


class TestDeterminism:
    def test_every_verb_twice(self, capsys, bell_file):
        invocations = [
            ("dual", "--cone", '{"dim":2,"generators":[[1,0],[1,2]]}'),
            ("polar", "--polytope", json.dumps(CUBE3)),
            ("faces", "--polytope", '{"dim":2,"vertices":[[1,1],[1,-1],[-1,1],[-1,-1]]}'),
            ("normal-fan", "--polytope", json.dumps(CUBE3)),
            ("hilbert-basis", "--cone", '{"dim":2,"generators":[[1,0],[1,2]]}'),
            ("toric-ideal", "--map", "[[0,0],[1,0],[0,1],[1,1]]", "--degree", "2"),
            ("projective-relations", "--exponents", "[[0],[1],[2]]", "--degree", "2"),
            ("segre-minors", "--shape", "[2,2,2]"),
            ("check-separable", bell_file, "--tol", "1e-10"),
            ("concurrence", bell_file),
            ("qubit-fan", "--m", "3"),
            ("qubit-polytope", "--m", "3"),
            ("atlas", "--qubits", "2"),
            ("param", "--m", "3"),
            ("verify-param", "--m", "2", "--z", '["2","3"]'),
        ]
        for argv in invocations:
            code1, out1 = run_cli(capsys, *argv)
            code2, out2 = run_cli(capsys, *argv)
            assert code1 == code2 == 0, argv
            assert out1 == out2, argv

    def test_golden_bytes(self, capsys):
        """Acceptance criterion 10's invocations print the recorded bytes."""
        golden = json.loads(
            (Path(__file__).parent / "cli_golden.json").read_text())
        assert set(VERBS) <= {entry["argv"][0] for entry in golden}
        for entry in golden:
            code, out = run_cli(capsys, *entry["argv"])
            assert code == 0, entry["argv"]
            assert out == entry["stdout"], entry["argv"]

    def test_subprocess_byte_identical(self, bell_file):
        for argv in (["qubit-fan", "--m", "2"],
                     ["check-separable", bell_file]):
            runs = [subprocess.run([sys.executable, "-m", "qtoric.cli"] + argv,
                                   capture_output=True, check=True)
                    for _ in range(2)]
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout.endswith(b"\n")
