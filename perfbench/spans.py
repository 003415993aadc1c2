"""Layer spans recorded from outside the program.

Each public qtoric function that one module imports from another is wrapped
in the importing module's namespace, so ``geometry.nonneg_combination`` is
timed as a ``linalg`` span while calls inside ``linalg`` stay unwrapped.  The
module objects ``cli`` holds (``jsonio``, and ``json``, whose ``loads``
parses the CLI's arguments and counts as ``jsonio`` decoding) are replaced
by proxies whose functions are wrapped the same way.  ``dot``, ``primitive`` and
``vector_gcd`` run in the innermost loops of their callers and are left
unwrapped, so their time is their caller's self time.

Spans are kept in memory as tuples and written out once, at the end.
"""

from __future__ import annotations

import importlib
import json
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("linalg", "geometry", "monoid", "toric_ideal", "segre", "rationals",
          "qubit", "jsonio", "cli")
INNER_LOOP_HELPERS = {"dot", "primitive", "vector_gcd"}


def _count_pos_hull(args, kwargs, result):
    return {"in": len(list(args[0])), "kept": len(result.generators)}


def _count_feasible(args, kwargs, result):
    return {"feasible": int(result is not None)}


def _count_generators(args, kwargs, result):
    return {"generators_out": len(result.generators)}


def _count_transitions(args, kwargs, result):
    return {"transitions_out": len(result.transitions)}


def _count_minors(args, kwargs, result):
    return {"minors_out": len(result)}


# (layer, function) -> counts taken from the arguments and result
COUNTERS = {
    ("geometry", "pos_hull"): _count_pos_hull,
    ("linalg", "nonneg_combination"): _count_feasible,
    ("monoid", "hilbert_basis"): _count_generators,
    ("toric_ideal", "toric_ideal_binomials"): _count_generators,
    ("toric_ideal", "projective_relations"): _count_generators,
    ("qubit", "chart_atlas"): _count_transitions,
    ("segre", "segre_minors"): _count_minors,
}


def _separability_tag(args, kwargs):
    amplitude = next(iter(args[0].amplitudes.values()))
    return "float" if isinstance(amplitude, complex) else "exact"


TAGS = {("segre", "is_separable"): _separability_tag}


class Tracer:
    """Span recorder.  A span is (op, id, parent, layer, function, tag, start, end)."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.stack = [0]
        self.next_id = 1
        self.op = 0
        self._patched = []

    def wrap(self, layer, name, fn):
        key = (layer, name)
        counter = COUNTERS.get(key)
        tagger = TAGS.get(key)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1]
            tracer.stack.append(sid)
            tag = tagger(args, kwargs) if tagger else ""
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans.append((tracer.op, sid, parent, layer, name, tag, start, end))
            if counter:
                for k, v in counter(args, kwargs, result).items():
                    tracer.counts[key][k] += v
            return result

        return traced

    def install(self):
        for caller in LAYERS:
            module = importlib.import_module(f"qtoric.{caller}")
            for name, obj in list(vars(module).items()):
                replacement = None
                if isinstance(obj, types.ModuleType):
                    replacement = self._proxy(caller, obj)
                elif self._crosses(module, name, obj):
                    replacement = self.wrap(obj.__module__.split(".")[-1], name, obj)
                if replacement is not None:
                    self._patched.append((module, name, obj))
                    setattr(module, name, replacement)

    def uninstall(self):
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched = []

    @staticmethod
    def _crosses(module, name, obj):
        return (isinstance(obj, types.FunctionType) and not name.startswith("_")
                and name not in INNER_LOOP_HELPERS
                and obj.__module__.startswith("qtoric.")
                and obj.__module__ != module.__name__)

    def _proxy(self, caller, module):
        """A stand-in module whose public functions are wrapped."""
        if module.__name__.startswith("qtoric."):
            layer = module.__name__.split(".")[-1]
        elif module is json and caller == "cli":
            layer = "jsonio"  # the CLI's parse of its JSON arguments
        else:
            return None
        proxy = types.SimpleNamespace(**vars(module))
        for name, obj in vars(module).items():
            if isinstance(obj, types.FunctionType) and not name.startswith("_") \
                    and obj.__module__ == module.__name__:
                setattr(proxy, name, self.wrap(layer, name, obj))
        return proxy


def self_times(spans):
    """Map span id -> duration minus the time its direct children cover."""
    child = defaultdict(float)
    for _, sid, parent, *_rest, start, end in spans:
        child[parent] += end - start
    return {sid: (end - start) - child[sid] for _, sid, _, *_r, start, end in spans}


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for op, sid, parent, layer, name, tag, start, end in spans:
            fh.write(json.dumps([op, sid, parent, layer, name, tag,
                                 round(start, 7), round(end, 7)]) + "\n")
