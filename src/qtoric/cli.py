"""Command-line front end: JSON in, canonical JSON out.

Exit status 0 on success, 2 on malformed input or a precondition violation
(with a machine-readable {"error": ...} on stdout), 3 on an internal failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import jsonio
from .geometry import dual_cone, faces, normal_fan, polar
from .monoid import hilbert_basis
from .qubit import (chart_atlas, multiqubit_atlas, multiqubit_fan,
                    multiqubit_polytope, parameterization,
                    projective_space_fan, verify_parameterization)
from .segre import concurrence, is_separable
from .toric_ideal import projective_relations, toric_ideal_binomials


def _read_json_arg(arg: str):
    """Accept '-' (stdin), a file path, or inline JSON."""
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith(("[", "{")):
        text = arg
    elif os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            text = fh.read()
    else:
        raise ValueError(f"input {arg!r} is neither a file nor inline JSON")
    try:
        return jsonio.loads(text)
    except RecursionError:
        # the decoder recurses once per nested array or object
        raise ValueError("input JSON is nested too deeply") from None


def _cone(arg):
    return jsonio.cone_from_json(_read_json_arg(arg))


def _polytope(arg):
    return jsonio.polytope_from_json(_read_json_arg(arg))


def _state(arg):
    return jsonio.state_from_json(_read_json_arg(arg))


def _faces(args):
    if (args.cone is None) == (args.polytope is None):
        raise ValueError("faces needs exactly one of --cone or --polytope")
    if args.cone is not None:
        kind, key, obj = "cone", "generators", _cone(args.cone)
        doc = jsonio.cone_to_json(obj)
    else:
        kind, key, obj = "polytope", "vertices", _polytope(args.polytope)
        doc = jsonio.polytope_to_json(obj)
    out = [{"indices": list(f.indices), "dim": f.dim} for f in faces(obj)]
    return {"object": kind, key: doc[key], "faces": out}


def _projective_relations(args):
    data = _read_json_arg(args.exponents)
    if not isinstance(data, list):
        raise ValueError("--exponents must be a JSON list of integer vectors")
    exponents = [jsonio.vector_from_json(vec) for vec in data]
    return jsonio.ideal_dumps(projective_relations(exponents, args.degree))


def _concurrence(args):
    state = _state(args.state)
    weights = None
    if args.weights is not None:
        weights = _read_json_arg(args.weights)
        if not isinstance(weights, list) or any(
                type(w) not in (int, float) for w in weights):
            raise ValueError("--weights must be a JSON list of numbers")
        weights = [float(w) for w in weights]
    return {"concurrence": concurrence(state, weights)}


def _atlas(args):
    chosen = [x for x in (args.fan, args.qubits, args.projective) if x is not None]
    if len(chosen) != 1:
        raise ValueError("atlas needs exactly one of --fan, --qubits, --projective")
    if args.qubits is not None:
        return jsonio.atlas_dumps(multiqubit_atlas(args.qubits))
    if args.fan is not None:
        fan = jsonio.fan_from_json(_read_json_arg(args.fan))
    else:
        fan = projective_space_fan(args.projective)
    return jsonio.atlas_dumps(chart_atlas(fan))


_REQUIRED = {"required": True}
_COUNT = {"type": int, "required": True}
_STATE = ("state", {"help": "state JSON (path, inline, or '-')"})

# verb -> (help, [(argument, add_argument keywords)], args -> output document),
# the document a JSON object or its canonical text as a list of str parts; the
# operations look library functions up when called, so tests can patch them
VERBS = {
    "dual": ("dual of a cone", [("--cone", _REQUIRED)],
             lambda a: jsonio.cone_to_json(dual_cone(_cone(a.cone)))),
    "polar": ("polar of a lattice polytope (0 interior)",
              [("--polytope", _REQUIRED)],
              lambda a: jsonio.polytope_to_json(polar(_polytope(a.polytope)))),
    "faces": ("all faces of a cone or polytope",
              [("--cone", {}), ("--polytope", {})], _faces),
    "normal-fan": ("normal fan of a full-dimensional polytope",
                   [("--polytope", _REQUIRED)],
                   lambda a: jsonio.fan_dumps(normal_fan(_polytope(a.polytope)))),
    "hilbert-basis": ("minimal generators of the lattice-point monoid",
                      [("--cone", _REQUIRED)],
                      lambda a: jsonio.monoid_to_json(hilbert_basis(_cone(a.cone)))),
    "toric-ideal": ("degree-bounded binomial relations of a monomial map",
                    [("--map", {**_REQUIRED,
                                "help": "JSON list of integer exponent vectors"}),
                     ("--degree", _COUNT)],
                    lambda a: jsonio.ideal_dumps(toric_ideal_binomials(
                        jsonio.map_from_json(_read_json_arg(a.map)), a.degree))),
    "projective-relations": ("homogeneous relations of a projective parameterization",
                             [("--exponents", _REQUIRED), ("--degree", _COUNT)],
                             _projective_relations),
    "segre-minors": ("canonical two-by-two minors for a system shape",
                     [("--shape", {**_REQUIRED, "help": "JSON list, e.g. [2,2,2]"})],
                     lambda a: jsonio.segre_minors_dumps(
                         jsonio.vector_from_json(_read_json_arg(a.shape)))),
    "check-separable": ("separability verdict for a state file",
                        [_STATE, ("--tol", {
                            "type": float, "default": 1e-10,
                            "help": "relative tolerance against (max |amplitude|)^2 "
                                    "(default 1e-10)"})],
                        lambda a: jsonio.separability_to_json(
                            is_separable(_state(a.state), tol=a.tol))),
    "concurrence": ("minor-norm concurrence of a state file",
                    [_STATE,
                     ("--weights", {"help": "JSON list of per-minor weights"})],
                    _concurrence),
    "qubit-fan": ("orthant fan of the m-qubit system", [("--m", _COUNT)],
                  lambda a: jsonio.fan_dumps(multiqubit_fan(a.m))),
    "qubit-polytope": ("sign cube of the m-qubit system", [("--m", _COUNT)],
                       lambda a: jsonio.polytope_to_json(multiqubit_polytope(a.m))),
    "atlas": ("chart atlas of a smooth complete fan",
              [("--fan", {}), ("--qubits", {"type": int}),
               ("--projective", {"type": int})], _atlas),
    "param": ("subset-product parameterization exponents", [("--m", _COUNT)],
              lambda a: jsonio.parameterization_to_json(parameterization(a.m))),
    "verify-param": ("check a torus point lands on the Segre variety",
                     [("--m", _COUNT),
                      ("--z", {**_REQUIRED,
                               "help": "JSON list of nonzero exact coordinates, "
                                       "e.g. '[\"1/2\", \"-3\"]'"})],
                     lambda a: {"m": a.m, "onVariety": verify_parameterization(
                         a.m, jsonio.torus_point_from_json(_read_json_arg(a.z)))}),
}


_CHUNK = 1 << 15


def build_parser() -> argparse.ArgumentParser:
    """The whole parser, for help and for every call that is not plain;
    ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qtoric",
        description="Exact toric geometry applied to multipartite quantum states. "
                    "Inputs are file paths, inline JSON, or '-' for stdin; "
                    "output is canonical JSON on stdout.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, arguments, operation) in VERBS.items():
        verb_parser = sub.add_parser(verb, help=help_text)
        for name, keywords in arguments:
            verb_parser.add_argument(name, **keywords)
        verb_parser.set_defaults(operation=operation)
    return parser


def _plain_args(verb: str, argv) -> argparse.Namespace | None:
    """The namespace the whole parser gives a plain call of the verb, less
    ``verb``, read from its VERBS row; None for any other call.  A call is
    plain when each argument appears at most once, each option by its full
    name and followed by a value that is '-' or does not start with '-',
    every type conversion succeeds and every required argument is present."""
    _, rows, operation = VERBS[verb]
    keywords = dict(rows)
    positionals = [name for name in keywords if not name.startswith("-")]
    given, tokens = {}, iter(argv)
    for token in tokens:
        if token.startswith("-") and token != "-":
            name, token = token, next(tokens, "--")
        elif positionals:
            name = positionals.pop(0)
        else:
            return None
        if name not in keywords or name in given or \
                token.startswith("-") and token != "-":
            return None
        given[name] = token
    args = argparse.Namespace(operation=operation)
    for name, kw in rows:
        if name in given:
            try:
                value = kw.get("type", str)(given[name])
            except (TypeError, ValueError):
                return None
        elif kw.get("required") or not name.startswith("-"):
            return None
        else:
            value = kw.get("default")
        setattr(args, name.lstrip("-"), value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a plain call is read from its verb's row and builds no parser; the
        # whole parser reads every other call and prints all help and errors
        args = None
        if argv and argv[0] in VERBS:
            args = _plain_args(argv[0], argv[1:])
        if args is None:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = args.operation(args)
        parts = doc if isinstance(doc, list) else [jsonio.canonical_dumps(doc)]
        code = 0
    except (ValueError, TypeError, KeyError, IndexError, OverflowError,
            ZeroDivisionError, OSError) as exc:
        code, error = 2, {"error": str(exc)}
    except Exception as exc:  # internal invariant failure
        code, error = 3, {"error": str(exc), "kind": "internal"}
    if code:
        # a message that echoes a huge input keeps its first 1,000 characters
        if len(error["error"]) > 1000:
            error["error"] = error["error"][:1000] + "..."
        parts = [jsonio.canonical_dumps(error)]
    # written only once complete, in joins of about 1 MB: a table's parts
    # are 20-60 characters, and the joined text never exists whole
    for start in range(0, len(parts), _CHUNK):
        sys.stdout.write("".join(parts[start:start + _CHUNK]))
    return code


if __name__ == "__main__":
    sys.exit(main())
