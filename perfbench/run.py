"""qtoric benchmark: seeded CLI workloads driven through ``qtoric.cli.main``.

    python3 perfbench/run.py --workload polyhedral --seed 1 --seconds 30 --trace 0

Run it from the repository root; the program is imported from ``src/``.
The workload runs as a closed loop, one client in one fresh child process,
calling ``qtoric.cli.main(argv)`` in-process and checking every output
against an independent oracle.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics (times scaled to a reference host speed, see
``CAL_NOMINAL_S``), with ``--trace 1`` the per-layer metrics of a separate
traced run.  Exit status is 2 when ``src/qtoric`` is missing and 1
when the run itself breaks.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from time import perf_counter

from spans import LAYERS, Tracer, self_times, write_spans
from workloads import make_pass, scaled_states

SETUP_RUNS = 10
CHILD_TIMEOUT_S = 170
SETUP_CODE = "import qtoric.cli as c; c.build_parser()"
# The host's speed drifts by up to 1.5x over seconds to minutes, in the
# program and in a fixed pure-Python loop alike.  The end-to-end times are
# therefore scaled to a reference speed: a time is multiplied by
# CAL_NOMINAL_S / (the calibration loop's time around it).  CAL_NOMINAL_S
# is the loop's time on a 2-vCPU x86-64 host in its faster state, so the
# scaled times read close to the wall times there.
CAL_NOMINAL_S = 0.0006

LAYER_FUNCTIONS = [
    ("linalg.nonneg_combination.calls", "count/op"),
    ("linalg.nonneg_combination.self_s", "s/op"),
    ("linalg.nonneg_combination.feasible_ratio", "ratio"),
    ("linalg.det_int.calls", "count/op"),
    ("linalg.adjugate_int.self_s", "s/op"),
    ("linalg.integer_row_echelon.calls", "count/op"),
    ("linalg.rank_int.calls", "count/op"),
    ("linalg.solve_columns.calls", "count/op"),
    ("geometry.dual_cone.calls", "count/op"),
    ("geometry.pos_hull.calls", "count/op"),
    ("geometry.pos_hull.kept_ratio", "ratio"),
    ("geometry.faces.self_s", "s/op"),
    ("geometry.normal_fan.self_s", "s/op"),
    ("geometry.polar.self_s", "s/op"),
    ("geometry.polytope_hull.self_s", "s/op"),
    ("monoid.hilbert_basis.calls", "count/op"),
    ("monoid.hilbert_basis.generators_out", "count/op"),
    ("toric_ideal.binomials_out", "count/op"),
    ("segre.is_separable.self_s.exact", "s/op"),
    ("segre.is_separable.self_s.float", "s/op"),
    ("segre.concurrence.self_s", "s/op"),
    ("segre.minors_listed", "count/op"),
    ("qubit.chart_atlas.self_s", "s/op"),
    ("qubit.chart_atlas.transitions_out", "count/op"),
    ("qubit.verify_parameterization.self_s", "s/op"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["polyhedral", "separability", "enumeration"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------------ child

def package_caches():
    """lru caches of the package: a shell call of qtoric starts with them empty."""
    import qtoric
    mods = [m for n, m in sys.modules.items() if n.startswith("qtoric.")]
    return [obj for m in [qtoric] + mods for obj in vars(m).values()
            if callable(getattr(obj, "cache_clear", None))]


class Client:
    """One closed-loop client: the next op starts when the previous one is checked."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.caches = package_caches()
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, op, main=None):
        """Invoke the op, then check and count it; returns (seconds in main, stdout)."""
        for cache in self.caches:
            cache.cache_clear()
        buf = io.StringIO()
        with redirect_stdout(buf):
            start = perf_counter()
            code = (main or self.cli_main)(op.argv)
            elapsed = perf_counter() - start
        out = buf.getvalue()
        self.latencies.append(elapsed)
        self.attempted += 1
        try:
            ok = code == 0 and bool(op.check(json.loads(out)))
            reason = out
        except Exception as exc:  # a malformed document fails its check
            ok, reason = False, f"{exc!r} on {out[:200]}"
        if not ok:
            self.failed += 1
            self.failures.append(f"{op.kind} exit {code}: {reason.strip()[:300]}")
        return elapsed, out


def calibration_s():
    """Fastest of three runs of a fixed pure-Python loop: the host's current speed."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        s = 0
        for i in range(10_000):
            s += i * i % 7
        best = min(best, perf_counter() - start)
    return best


def run_passes(workload, seed, seconds, body):
    """Whole passes until the clock is within half a pass of the budget."""
    start = perf_counter()
    passes = 0
    while True:
        body(make_pass(workload, seed, passes))
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes / 2 >= seconds:
            return passes


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, cli_main):
    client = Client(cli_main)
    cal = []  # calibration just before each op

    def body(ops):
        for op in ops:
            cal.append(calibration_s())
            client.run(op)

    passes = run_passes(args.workload, args.seed, args.seconds, body)
    cal.append(calibration_s())
    # each op is scaled by the calibrations just before and just after it
    lat_ms = [x * 2e3 * CAL_NOMINAL_S / (a + b)
              for x, a, b in zip(client.latencies, cal, cal[1:])]
    wall_ms = [x * 1e3 for x in client.latencies]
    n = len(lat_ms)
    print(f"{args.workload}: {passes} passes, {n} ops, {client.failed} failed, "
          f"host speed x{CAL_NOMINAL_S / statistics.median(cal):.3f} of reference")
    print(f"op_p50_ms {statistics.median(lat_ms):.3f} (n={n}; wall "
          f"{statistics.median(wall_ms):.3f}), op_p90_ms {percentile(lat_ms, 90):.3f} "
          f"(n={n}, {n - int(0.9 * n)} beyond; wall {percentile(wall_ms, 90):.3f})")
    if args.workload == "separability":
        probe = Client(cli_main)
        for op in scaled_states(random.Random(args.seed)):
            probe.run(op)
        print(f"known defect (not counted): {probe.failed}/{probe.attempted} exact "
              "separable states scaled by 10^400 and 10^-400 fail:",
              "; ".join(probe.failures) or "none")
    metrics = {
        "ops_per_s": ((client.attempted - client.failed) / sum(lat_ms) * 1e3, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return client, metrics


def _bytes_in(argv):
    return sum(len(a.encode()) for a in argv if a[:1] in "[{")


def per_layer(args, cli_main):
    client = Client(cli_main)
    tracer = Tracer()
    plain = [0.0]
    traced = [0.0]
    sizes = [0, 0]

    def run_plain(op):
        plain[0] += client.run(op)[0]

    def run_traced(op):
        tracer.install()
        try:
            tracer.op += 1
            elapsed, out = tracer.wrap("bench", "op", client.run)(
                op, tracer.wrap("cli", "main", cli_main))
        finally:
            tracer.uninstall()
        traced[0] += elapsed
        sizes[0] += _bytes_in(op.argv)
        sizes[1] += len(out.encode())

    order = [run_plain, run_traced]

    def body(ops):
        # each op runs untraced and traced; the second run of the same input
        # tends to be faster, so the two take turns going first, op by op
        for op in ops:
            for run in order:
                run(op)
            order.reverse()

    passes = run_passes(args.workload, args.seed, args.seconds, body)
    n_ops = tracer.op
    selfs = self_times(tracer.spans)
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    layer_calls = dict.fromkeys(LAYERS, 0)
    fn_self = {}
    fn_calls = {}
    decode = encode = 0.0
    for span in tracer.spans:
        _, sid, _, layer, name, tag, _, _ = span
        s = selfs[sid]
        layer_self[layer] += s
        if layer == "bench":
            continue
        layer_calls[layer] += 1
        for key in (f"{layer}.{name}", f"{layer}.{name}.{tag}")[:1 + bool(tag)]:
            fn_self[key] = fn_self.get(key, 0.0) + s
            fn_calls[key] = fn_calls.get(key, 0) + 1
        if layer == "jsonio":
            if name.endswith("_from_json") or name in ("decode_int", "loads", "load"):
                decode += s
            else:
                encode += s

    counts = tracer.counts
    per_op = lambda x: x / n_ops
    ratio = lambda a, b: a / b if b else 0.0
    special = {
        "linalg.nonneg_combination.feasible_ratio": ratio(
            counts[("linalg", "nonneg_combination")]["feasible"],
            fn_calls.get("linalg.nonneg_combination", 0)),
        "geometry.pos_hull.kept_ratio": ratio(
            counts[("geometry", "pos_hull")]["kept"], counts[("geometry", "pos_hull")]["in"]),
        "monoid.hilbert_basis.generators_out": per_op(
            counts[("monoid", "hilbert_basis")]["generators_out"]),
        "toric_ideal.binomials_out": per_op(
            counts[("toric_ideal", "toric_ideal_binomials")]["generators_out"]
            + counts[("toric_ideal", "projective_relations")]["generators_out"]),
        "segre.minors_listed": per_op(counts[("segre", "segre_minors")]["minors_out"]),
        "qubit.chart_atlas.transitions_out": per_op(
            counts[("qubit", "chart_atlas")]["transitions_out"]),
    }
    metrics = {}
    for layer in LAYERS:
        if layer != "cli":
            metrics[f"{layer}.calls"] = (per_op(layer_calls[layer]), "count/op")
        metrics[f"{layer}.self_s"] = (per_op(layer_self[layer]), "s/op")
    for name, unit in LAYER_FUNCTIONS:
        if name in special:
            value = special[name]
        elif name.endswith(".calls"):
            value = per_op(fn_calls.get(name[:-len(".calls")], 0))
        else:
            value = per_op(fn_self.get(name.replace(".self_s", "", 1), 0.0))
        metrics[name] = (value, unit)
    metrics["jsonio.decode_s"] = (per_op(decode), "s/op")
    metrics["jsonio.encode_s"] = (per_op(encode), "s/op")
    metrics["jsonio.bytes_in"] = (per_op(sizes[0]), "B/op")
    metrics["jsonio.bytes_out"] = (per_op(sizes[1]), "B/op")
    metrics["trace.overhead_ratio"] = (traced[0] / plain[0], "ratio")
    metrics["bench.residual_s"] = (per_op(layer_self["bench"]), "s/op")

    total = sum(layer_self.values())
    print(f"{args.workload}: {passes} passes, {n_ops} traced ops, "
          f"{len(tracer.spans)} spans, overhead x{traced[0] / plain[0]:.3f}")
    print("self-time share by layer: " + ", ".join(
        f"{layer} {layer_self[layer] / total:.1%}"
        for layer in sorted(layer_self, key=layer_self.get, reverse=True)))
    top = sorted(fn_self.items(), key=lambda kv: -kv[1])
    print("top functions by self time: " + ", ".join(
        f"{k} {v / total:.1%}" for k, v in top[:8] if k.count(".") == 1))
    os.makedirs(os.path.join("perfbench", "traces"), exist_ok=True)
    path = os.path.join("perfbench", "traces", f"{args.workload}-seed{args.seed}.jsonl")
    write_spans(path, tracer.spans)
    print(f"spans written to {path}")
    return client, metrics


def child(args):
    import qtoric
    import qtoric.cli
    src = os.path.abspath("src")
    if not os.path.abspath(qtoric.__file__).startswith(src + os.sep):
        print(f"qtoric imported from {qtoric.__file__}, not from {src}", file=sys.stderr)
        return 1
    run = per_layer if args.trace else end_to_end
    client, metrics = run(args, qtoric.cli.main)
    for line in client.failures[:10]:
        print("FAILED", line, file=sys.stderr)
    print(json.dumps({"correct": client.failed == 0, "attempted": client.attempted,
                      "failed": client.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


# ----------------------------------------------------------------- parent

def time_setup(env, runs):
    """Times of fresh interpreters importing the CLI and building its parser,
    each scaled by the calibrations just before and just after it."""
    times = []
    for _ in range(runs):
        before = calibration_s()
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        elapsed = perf_counter() - start
        times.append(elapsed * 2 * CAL_NOMINAL_S / (before + calibration_s()))
    return times


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        return child(args)
    if not os.path.isfile(os.path.join("src", "qtoric", "cli.py")):
        print("src/qtoric/cli.py not found: run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    setup_times = []
    if args.trace == 0:
        time_setup(env, 1)  # the first start also writes bytecode caches
        setup_times += time_setup(env, SETUP_RUNS // 2)
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if setup_times:
        # half the starts before the workload and half after, so one slow
        # or fast stretch of the machine does not decide the median
        setup_times += time_setup(env, SETUP_RUNS - len(setup_times))
        setup_s = statistics.median(setup_times)
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        lines.insert(-1, f"setup_s {setup_s:.4f} s (median of {SETUP_RUNS} fresh interpreters, scaled)")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
