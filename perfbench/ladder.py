"""Size ladder: library calls and CLI processes at fixed sizes.

    python3 perfbench/ladder.py

Run from the repository root.  Prints one JSON object: the median time of
each case over REPEATS runs, scaled to the reference host speed as in
run.py, with the size it ran at.  The library cases
are the rows of the ROADMAP's baseline table, plus `faces` of 4-d polytopes
with 9, 10 and 11 vertices (one fixed draw each) and skewed unimodular
Hilbert-basis cones; the CLI cases start a fresh interpreter each, so they
include import and parser set-up.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

from run import CAL_NOMINAL_S, calibration_s, package_caches
from workloads import SPHERE6

REPEATS = 3


def library_cases():
    from qtoric import (chart_atlas, faces, hilbert_basis, multiqubit_fan,
                        multiqubit_polytope, normal_fan, polar, polytope_hull,
                        pos_hull, segre_minors)
    for m in (3, 4, 5):
        yield f"normal_fan(multiqubit_polytope({m}))", lambda m=m: normal_fan(
            multiqubit_polytope(m))
    for m in (5, 6):
        yield f"polar(multiqubit_polytope({m}))", lambda m=m: polar(multiqubit_polytope(m))
    for m in (4, 5):
        yield f"chart_atlas(multiqubit_fan({m}))", lambda m=m: chart_atlas(multiqubit_fan(m))
    for m in (7, 8):
        yield f"segre_minors((2,)*{m})", lambda m=m: segre_minors((2,) * m)
    rng = random.Random(0)
    for n in (9, 10, 11):
        pts = rng.sample(SPHERE6, n)
        yield f"faces(4-d polytope, {n} vertices on |x|^2 = 6)", \
            lambda pts=pts: faces(polytope_hull(pts))
    for a in (100, 200):
        gens = [(1, 0, 0), (0, 1, 0), (a, a + 1, 1)]
        yield f"hilbert_basis(pos{gens})", lambda gens=gens: hilbert_basis(pos_hull(gens))


def cli_cases(env):
    basis9 = json.dumps({"shape": [2] * 9,
                         "amplitudes": [{"index": [0] * 9, "re": "1", "im": "0"}]})
    for argv in (["check-separable", basis9], ["atlas", "--qubits", "5"]):
        cmd = [sys.executable, "-m", "qtoric.cli"] + argv
        yield "qtoric " + " ".join(a if len(a) < 40 else "<9-qubit basis state>"
                                   for a in argv), \
            lambda cmd=cmd: subprocess.run(cmd, env=env, check=True,
                                           stdout=subprocess.DEVNULL, timeout=120)


def main():
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src)
    out = {}
    cases = list(library_cases())
    caches = package_caches()
    for name, fn in cases + list(cli_cases(env)):
        times = []
        for _ in range(REPEATS):
            for cache in caches:
                cache.cache_clear()
            before = calibration_s()
            start = perf_counter()
            fn()
            elapsed = perf_counter() - start
            times.append(elapsed * 2 * CAL_NOMINAL_S / (before + calibration_s()))
        out[name] = {"median_s": statistics.median(times), "runs": len(times)}
        print(f"{name}: {out[name]['median_s']:.3f} s (scaled)", file=sys.stderr)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
