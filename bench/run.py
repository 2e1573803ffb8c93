"""Benchmark of the betti4 command line on seeded workloads.

Usage, from the root of a betti4 checkout:

    python3 bench/run.py --workload {experiment,staircase,verify} \\
        --seed N --seconds S --trace {0,1}

Every request is one in-process call of ``betti4.cli.main(argv)`` with
stdout captured, sent only after the previous one returned: a closed
loop with one client, one process and one thread.  Every output line
is checked against a Betti table computed at set-up by the homology
oracle over Q.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times
are wall-clock times scaled to a reference machine speed by a
calibration kernel timed next to every request (see calibration.py);
the unscaled figures are printed as notes.  ``--trace 1`` sends every
request once untraced and once traced and reports per-layer metrics,
unscaled, from spans recorded around the package's module functions
(see tracing.py).  Either way the last line of stdout is one JSON
object: correct, attempted, failed, metrics.  Spans and a full result
record go to .bench_out/ in the checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calibration
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

# (span name, module that defines the function, attribute).  The tracer
# patches every betti4 module that holds the function, so the engine's
# and the oracle's calls of enumerate_multidegrees are both seen.
TARGETS = (
    ("parsing.parse_ideal", "betti4.parsing", "parse_ideal"),
    ("engine.full_table", "betti4.engine", "full_table"),
    ("engine.pd_two_condition", "betti4.engine", "pd_two_condition"),
    ("engine.dominant_quadruples", "betti4.engine", "dominant_quadruples"),
    ("multidegrees.enumerate_multidegrees", "betti4.multidegrees", "enumerate_multidegrees"),
    ("twins.build_bundle", "betti4.twins", "build_bundle"),
    ("squarefree.shape_descriptor", "betti4.squarefree", "shape_descriptor"),
    ("atlas.lookup_multigraded", "betti4.atlas", "lookup_multigraded"),
    ("homology.oracle_betti", "betti4.homology", "oracle_betti"),
    ("homology.koszul_complex", "betti4.homology", "koszul_complex"),
)

# Counters measured at a wrapped call, and the span whose hook feeds them.
DERIVED = {
    "engine.useful_multidegree_ratio": "engine.full_table",
    "engine.quadruples_scanned": "engine.dominant_quadruples",
    "multidegrees.lattice_size": "multidegrees.enumerate_multidegrees",
    "atlas.key_reuse_ratio": "atlas.lookup_multigraded",
}

# The oracle's profile cache fills during the first pass, so its hit
# ratio is taken from the first pass and repeats between runs, not
# between the passes of one run.
CACHE_RATIO = "homology.profile_cache_hit_ratio"

END_TO_END = (
    ("ideals_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {"cli.self_s": "s"}
    for name, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "engine.useful_multidegree_ratio": "ratio",
        "engine.quadruples_scanned": "count",
        "multidegrees.lattice_size": "count",
        "atlas.key_reuse_ratio": "ratio",
        "homology.profile_cache_hit_ratio": "ratio",
        "trace.request_s": "s",
        "trace.ideals_per_s": "1/s",
        "trace.untraced_ideals_per_s": "1/s",
    })
    return units


class BenchError(Exception):
    """A failure that makes the whole run invalid."""


def call(main, argv):
    """One request: (elapsed ns, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        elapsed = time.perf_counter_ns() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Client:
    """The closed-loop client: sends requests and checks every answer."""

    def __init__(self, workload, main, requests, expected):
        self.workload = workload
        self.main = main
        self.requests = requests  # (argv, ideals)
        self.expected = expected
        self.reported = False

    def send(self, index, main=None):
        """Run request index; returns (elapsed ns, ideals answered correctly, ideals sent)."""
        argv, ideals = self.requests[index % len(self.requests)]
        elapsed, code, out, err = call(main or self.main, argv)
        ok = sum(workloads.check(self.workload, ideals, self.expected, code, out, err))
        if ok < len(ideals) and not self.reported:
            self.reported = True
            detail = code if isinstance(code, str) else f"exit code {code}"
            print(f"bench: request {argv} failed ({detail}); stderr: {err[:2000]}",
                  file=sys.stderr)
        return elapsed, ok, len(ideals)


def measure_setup(workload, env):
    """Median of SETUP_PROBES fresh-interpreter set-up times, each checked
    and scaled by the calibration kernel timed in the same probe."""
    argv = workloads.warmup_argv(workload)
    pinned = dict(workloads.PINNED)
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run([sys.executable, probe, *argv], capture_output=True, text=True,
                                  env=env, timeout=PROBE_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"setup probe took longer than {PROBE_TIMEOUT_S} s") from exc
        head, _, out = proc.stdout.partition("\n")
        fields = head.split()
        if proc.returncode != 0 or len(fields) != 3:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
        elapsed, code, kernel = fields
        code = int(code) if code.lstrip("-").isdigit() else code
        if not all(workloads.check(workload, list(pinned), pinned, code, out, proc.stderr)):
            raise BenchError(f"setup probe answered the pinned examples wrongly: {out!r}")
        samples.append(calibration.scale(float(elapsed), float(kernel)))
    return statistics.median(samples)


def expected_tables(batches, cap):
    """Oracle tables over Q, plus |L| and the multidegrees with a nonzero
    row in homological degree >= 2, for every distinct input ideal."""
    from betti4.homology import RATIONALS, oracle_betti
    from betti4.monomials import MonomialIdeal
    from betti4.multidegrees import enumerate_multidegrees

    tables, stats = {}, {}
    for batch in batches:
        for gens in batch:
            if gens in tables:
                continue
            ideal = MonomialIdeal(gens)
            table = oracle_betti(ideal, RATIONALS, cap, want_multigraded=True)
            tables[gens] = table.betti
            useful = sum(1 for row in table.multigraded.values() if any(row[2:]))
            stats[gens] = (useful, len(enumerate_multidegrees(ideal, cap)))
    for gens, want in workloads.PINNED:
        if gens in tables and tables[gens] != want:
            raise BenchError(f"oracle gives {tables[gens]} for a pinned example, expected {want}")
    return tables, stats


class Counters:
    """Counts measured at wrapped calls during one traced pass."""

    def __init__(self, stats):
        self.stats = stats
        self.useful = self.lattice_visited = 0
        self.quadruples = 0
        self.lattice = 0
        self.lookup_calls = 0
        self.lookup_keys = set()

    def hooks(self):
        def full_table(args, kwargs, result):
            useful, size = self.stats[args[0].gens]
            self.useful += useful
            self.lattice_visited += size

        def dominant_quadruples(args, kwargs, result):
            self.quadruples += math.comb(len(args[0].gens), 4)

        def enumerate_multidegrees(args, kwargs, result):
            self.lattice += len(result)

        def lookup_multigraded(args, kwargs, result):
            self.lookup_calls += 1
            self.lookup_keys.add((args, tuple(sorted(kwargs.items()))))

        return {
            "engine.full_table": full_table,
            "engine.dominant_quadruples": dominant_quadruples,
            "multidegrees.enumerate_multidegrees": enumerate_multidegrees,
            "atlas.lookup_multigraded": lookup_multigraded,
        }

    def values(self):
        return {
            "engine.useful_multidegree_ratio":
                self.useful / self.lattice_visited if self.lattice_visited else 0.0,
            "engine.quadruples_scanned": self.quadruples,
            "multidegrees.lattice_size": self.lattice,
            "atlas.key_reuse_ratio":
                self.lookup_calls / len(self.lookup_keys) if self.lookup_keys else 0.0,
        }


def profile_cache():
    from betti4 import homology

    return getattr(getattr(homology, "_homology_profile", None), "cache_info", None)


def paired_pass(client, stats):
    """Every request sent twice, once traced and once not, alternating
    which goes first, so both see the same load on the machine.

    Returns the tracer, the exact counts of the traced sends (None where
    a traced function is missing), the missing span names, and per mode
    (False untraced, True traced) the busy ns and the ideals correct,
    plus the ideals sent in both modes together.
    """
    tracer = tracing.Tracer()
    counters = Counters(stats)
    hooks = counters.hooks()
    root = tracer.wrap(tracing.ROOT, client.main)
    cache_info = profile_cache()
    hits = misses = 0
    busy = {False: 0, True: 0}
    correct = {False: 0, True: 0}
    sent = 0
    missing = []
    for index in range(len(client.requests)):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if not traced:
                elapsed, ok, n = client.send(index)
            else:
                restore, missing = tracing.install(tracer, TARGETS, tracing.package_modules(), hooks)
                before = cache_info() if cache_info else None
                tracer.request = index
                try:
                    elapsed, ok, n = client.send(index, root)
                finally:
                    restore()
                if cache_info:
                    after = cache_info()
                    hits += after.hits - before.hits
                    misses += after.misses - before.misses
            busy[traced] += elapsed
            correct[traced] += ok
            sent += n
    calls = tracer.call_counts()
    exact = {}
    for name, _, _ in TARGETS:
        exact[f"{name}.calls"] = None if name in missing else calls.get(name, 0)
    for metric, value in counters.values().items():
        exact[metric] = None if DERIVED[metric] in missing else value
    exact[CACHE_RATIO] = (
        None if not cache_info else hits / (hits + misses) if hits + misses else 0.0)
    return tracer, exact, missing, busy, correct, sent


def code_fingerprint(root):
    digest = hashlib.sha256()
    for directory in (os.path.join(root, "src", "betti4"), BENCH_DIR):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def check_repeatable(exact, path):
    """Exact counts must equal those of any earlier run of the same code and seed."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier != exact:
            raise BenchError(f"exact counts differ from an earlier run recorded in {path}: "
                             f"{earlier} != {exact}")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(exact, fh, sort_keys=True)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def run_untraced(client, seconds):
    """Cycle through the requests until the time is used.

    Each send is followed by one run of the calibration kernel, and its
    latency is scaled by the median kernel time of the sends around it
    (see calibration.py).  Percentiles are over all sends; failures are
    counted on every send.  The unscaled figures go into the notes.
    """
    latencies, kernels = [], []
    good = sent = 0
    deadline = time.perf_counter() + seconds
    while True:
        elapsed, ok, n = client.send(len(latencies))
        latencies.append(elapsed)
        kernels.append(calibration.kernel_ns())
        good += ok
        sent += n
        if time.perf_counter() >= deadline:
            break
    speeds = calibration.local_medians(kernels)
    scaled = sorted(calibration.scale(ns, k) / 1e6 for ns, k in zip(latencies, speeds))
    wall = sorted(ns / 1e6 for ns in latencies)
    metrics = {
        "ideals_per_s": good / (sum(scaled) / 1e3),
        "latency_p50_ms": statistics.median(scaled),
        "latency_p90_ms": p90(scaled),
    }
    notes = {
        "latency_samples": len(scaled),
        "p90_valid": len(scaled) >= 100,
        "kernel_median_ms": statistics.median(kernels) / 1e6,
        "wall_ideals_per_s": good / (sum(wall) / 1e3),
        "wall_latency_p50_ms": statistics.median(wall),
        "wall_latency_p90_ms": p90(wall),
    }
    return metrics, good, sent, notes


def run_traced(client, stats, seconds):
    """Paired passes until the time is used; at least one."""
    busy_ns = {False: 0, True: 0}
    correct = {False: 0, True: 0}
    sent = 0
    self_ns = {}
    first = first_tracer = None
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        tracer, exact, missing, busy, ok, n = paired_pass(client, stats)
        selfs = tracer.self_times()
        if sum(selfs.values()) != tracer.root_time():
            raise BenchError("span self times do not add up to the traced request time")
        if first is None:
            first, first_tracer = exact, tracer
        elif ({k: v for k, v in exact.items() if k != CACHE_RATIO}
              != {k: v for k, v in first.items() if k != CACHE_RATIO}):
            raise BenchError(f"exact counts differ between traced passes: {first} != {exact}")
        for name, ns in selfs.items():
            self_ns[name] = self_ns.get(name, 0) + ns
        for mode in (False, True):
            busy_ns[mode] += busy[mode]
            correct[mode] += ok[mode]
        sent += n
        passes += 1
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    metrics = dict(first)
    for name, _, _ in TARGETS:
        metrics[f"{name}.self_s"] = None if name in missing else self_ns.get(name, 0) / passes / 1e9
    metrics["cli.self_s"] = self_ns[tracing.ROOT] / passes / 1e9
    metrics["trace.request_s"] = busy_ns[True] / passes / 1e9
    metrics["trace.ideals_per_s"] = correct[True] / (busy_ns[True] / 1e9)
    metrics["trace.untraced_ideals_per_s"] = correct[False] / (busy_ns[False] / 1e9)
    notes = {
        "passes": passes,
        "tracing_overhead": metrics["trace.untraced_ideals_per_s"] / metrics["trace.ideals_per_s"],
        "missing_functions": missing,
        "spans_per_pass": len(first_tracer),
    }
    good = correct[False] + correct[True]
    return metrics, first, first_tracer, good, sent, notes


def layer_shares(metrics):
    """Self time of each span name as a share of the traced request time."""
    total = metrics["trace.request_s"]
    shares = {"cli": metrics["cli.self_s"] / total}
    for name, _, _ in TARGETS:
        value = metrics[f"{name}.self_s"]
        if value is not None:
            shares[name] = value / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def environment(args):
    import betti4

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "betti4_version": getattr(betti4, "__version__", None),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args, root):
    env = dict(os.environ)
    env.pop("BETTI4_JOBS", None)  # keep --jobs at its serial default
    os.environ.pop("BETTI4_JOBS", None)
    out_dir = os.path.join(root, OUT_DIR)
    input_dir = os.path.join(out_dir, "inputs")
    os.makedirs(input_dir, exist_ok=True)

    setup_s = None if args.trace else measure_setup(args.workload, env)

    import betti4.cli

    main = betti4.cli.main
    pinned = dict(workloads.PINNED)
    _, code, out, err = call(main, workloads.warmup_argv(args.workload))
    if not all(workloads.check(args.workload, list(pinned), pinned, code, out, err)):
        raise BenchError(f"warm-up request answered the pinned examples wrongly: {out!r} {err!r}")

    batches = workloads.generate(args.workload, args.seed)
    argvs = workloads.request_argvs(args.workload, batches, input_dir)
    expected, stats = expected_tables(batches, workloads.STAIRCASE_CAP)
    client = Client(args.workload, main, list(zip(argvs, batches)), expected)
    client.send(0)  # fills lazy caches before timing

    record = {"environment": environment(args)}
    if args.trace:
        metrics, exact, tracer, good, sent, notes = run_traced(client, stats, args.seconds)
        counts_path = os.path.join(
            out_dir, f"counts-{args.workload}-seed{args.seed}-{code_fingerprint(root)}.json")
        check_repeatable(exact, counts_path)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}.tsv"))
        notes["layer_shares"] = layer_shares(metrics)
        units = per_layer_units()
    else:
        metrics, good, sent, notes = run_untraced(client, args.seconds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
    notes["failed_ratio"] = (sent - good) / sent
    record.update(notes=notes, metrics=metrics)
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("# " + json.dumps(record["environment"]))
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]} {unit}")
    for name, value in notes.items():
        print(f"# {name} = {json.dumps(value)}")
    return {
        "correct": good == sent,
        "attempted": sent,
        "failed": sent - good,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "betti4", "cli.py")):
        print("bench: src/betti4/cli.py not found; run from the root of a betti4 checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        result = bench(args, root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
