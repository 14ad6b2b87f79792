"""ultralip benchmark: seeded, closed-loop workloads with verdict checks.

    python3 perfbench/run.py --workload library --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the library is imported from ./src.  One
client runs the workload's corpus of analyses back to back, each started
when the previous one returned (no threads, --jobs never passed), in whole
passes until --seconds have been measured.  Every verdict was first
re-checked by perfbench/oracle.py in an untimed pass; each timed result
must reproduce the checked output byte for byte.

Timings are reported at the reference host speed: between analyses, a
fixed piece of pure-Python work that uses no library code is timed, and
each analysis's wall time is scaled by how much slower or faster than usual
that work ran around it (see perfbench/README.md).  The raw wall figures
are printed beside them.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced pass.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import oracle as O  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 15
# the tail percentile; it must leave >= 10 samples beyond it
TAIL_PERCENTILE = 90
DIGESTS = os.path.join(HERE, "digests.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench")


# The reference work: a small-integer loop and a brute-force pair scan over
# Fractions (the benchmark's own oracle, no library code).  Under load from
# other tenants the first slows less than the library and the second more;
# the geometric mean of their times tracks the library's speed (see
# perfbench/README.md).  REFERENCE_S is that mean on the reference host, a
# 2-core x86 VM at its usual speed.  It is timed after every PROBE_EVERY_S
# of analysis time, about 1.5% on top of the analyses.
REFERENCE_ITERATIONS = 10000
REFERENCE_POINTS = O.window_points(3, 0, 2, 2)
REFERENCE_VALUES = [O.horner([Fraction(1, 2), -7, 2, 5], x) for x in REFERENCE_POINTS]
REFERENCE_S = 0.0006
PROBE_EVERY_S = 0.1


def reference_time() -> float:
    """Seconds for the reference work now: the geometric mean of its two halves."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    middle = time.perf_counter()
    O.scan_oracle(REFERENCE_POINTS, REFERENCE_VALUES, 3)
    return math.sqrt((middle - start) * (time.perf_counter() - middle))


def speed_factors(samples: list) -> list:
    """For each interval k between reference samples k and k+1, the factor
    that takes a wall time in it to the reference host speed: REFERENCE_S
    over the median of the samples k-1 .. k+2, so that one disturbed
    sample does not decide it."""
    return [REFERENCE_S / statistics.median(samples[max(0, k - 1) : k + 3]) for k in range(len(samples))]


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_library() -> workloads.Lib:
    """Import ultralip afresh from this checkout's src/ (never from elsewhere)."""
    if not os.path.isfile(os.path.join(SRC, "ultralip", "__init__.py")):
        raise BenchError(f"no ultralip package under {SRC}")
    for name in [n for n in sys.modules if n == "ultralip" or n.startswith("ultralip.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    package = importlib.import_module("ultralip")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise BenchError(f"ultralip was imported from {package.__file__}, not {SRC}")
    return workloads.Lib(*(importlib.import_module(f"ultralip.{m}") for m in workloads.MODULES))


def setup(name: str, seed: int):
    """Import, build contexts, generate and parse the corpus, warm up: one
    analysis of each kind, so lazy state and caches are filled."""
    lib = load_library()
    corpus = workloads.CORPORA[name](lib, seed)
    seen = set()
    for analysis in corpus:
        if analysis.kind not in seen:
            seen.add(analysis.kind)
            analysis.call()
    return lib, corpus


def checked_pass(corpus: list) -> tuple:
    """Run every analysis once, untimed, and check it independently.

    Returns (canonical outputs, problems)."""
    expected, problems = [], []
    for i, analysis in enumerate(corpus):
        try:
            result = analysis.call()
        except Exception as err:  # a crash is a wrong verdict; keep checking the rest
            expected.append(None)
            problems.append(f"#{i} {analysis.kind} raised {type(err).__name__}: {err}")
            continue
        expected.append(analysis.canon(result))
        problem = analysis.check(result)
        if problem is not None:
            problems.append(f"#{i} {analysis.kind}: {problem}")
    return expected, problems


def corpus_digest(expected: list) -> str:
    """SHA-256 of the canonical outputs, refusals left out (a refusal is
    checked against the oracle instead)."""
    lines = [c for c in expected if c is not None and not workloads.is_refusal(c)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def timed_passes(corpus: list, expected: list, seconds: float, tracer=None) -> dict:
    """Whole passes over the corpus, at least one, until `seconds` of
    analysis time.  A raised error or an output that differs from the
    checked one is a failure, with latency +inf.

    Returns the wall latencies and, under "latencies", the same at the
    reference host speed; "busy" and "wall_busy" are their sums, failed
    analyses included at their measured time."""
    wall, kinds, chunks, failed, passes = [], [], [], 0, 0
    samples, since = [reference_time()], 0.0
    busy = 0.0
    clock = time.perf_counter
    while passes == 0 or busy < seconds:
        for i, analysis in enumerate(corpus):
            if tracer is not None:
                tracer.begin()
            start = clock()
            try:
                result = analysis.call()
                elapsed = clock() - start
            except Exception:
                elapsed, result = clock() - start, None
            if tracer is not None:
                tracer.end()
            busy += elapsed
            wall.append(elapsed)
            kinds.append(analysis.kind)
            chunks.append(len(samples) - 1)
            if result is None or analysis.canon(result) != expected[i]:
                failed += 1
                kinds[-1] = None
            since += elapsed
            if since >= PROBE_EVERY_S:
                samples.append(reference_time())
                since = 0.0
        passes += 1
    samples.append(reference_time())
    factors = speed_factors(samples)
    scaled = [t * factors[k] for t, k in zip(wall, chunks)]
    return {
        "latencies": [t if kind is not None else math.inf for t, kind in zip(scaled, kinds)],
        "wall_latencies": [t if kind is not None else math.inf for t, kind in zip(wall, kinds)],
        "kinds": kinds,
        "busy": sum(scaled),
        "wall_busy": busy,
        "failed": failed,
        "passes": passes,
        "speed": statistics.median(samples) / REFERENCE_S,
    }


def measure_setup(name: str, seed: int) -> tuple:
    """SETUP_REPEATS set-ups, each after a full collection, bracketed by
    reference samples.  Returns (median set-up time at the reference host
    speed, median wall time, the last set-up's (lib, corpus))."""
    samples, wall = [reference_time()], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        built = setup(name, seed)
        wall.append(time.perf_counter() - start)
        samples.append(reference_time())
    scaled = [t * f for t, f in zip(wall, speed_factors(samples))]
    return statistics.median(scaled), statistics.median(wall), built


def tail_percentile(n: int) -> float:
    """The tail percentile, lowered only when fewer than 10 of n samples
    would lie beyond it."""
    q = TAIL_PERCENTILE
    while q > 50 and n - math.ceil(q / 100 * n) < 10:
        q -= 1
    return q


def nearest_rank(sorted_values: list, q: float):
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# scaling sweeps and scalar micro-costs (traced runs only)


def growth_exponent(sizes: list, times: list) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs, ys = [math.log(s) for s in sizes], [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def sweep(run_at, plan: list, rounds: int) -> list:
    """Best time at each (size, repeats) of the plan over interleaved rounds,
    so that a slow spell of the machine does not land on one size only."""
    best = [math.inf] * len(plan)
    for _ in range(rounds):
        for i, (size, repeats) in enumerate(plan):
            for _ in range(repeats):
                start = time.perf_counter()
                run_at(size)
                best[i] = min(best[i], time.perf_counter() - start)
    return best


def scaling_sweeps(lib: workloads.Lib) -> dict:
    """Empirical scan of x^2+x over p=3, window 0:3 at depth 3, 4, 5 (N = 72,
    216, 648), and the Jacobian check of x^3+2x on 1+3Z_3 at M = 3, 4, 5
    (p^M = 27, 81, 243)."""
    ctx = lib.qp_core.PrimeContext(3)
    f = lib.terms.parse_term("x^2+x")
    true = lib.terms.parse_condition("true")
    g = lib.terms.parse_term("x^3+2*x")
    ball = lib.regions.Ball(ctx.scalar(1), 1)
    depths = [3, 4, 5]
    plan = list(zip(depths, (5, 2, 1)))
    scan_times = sweep(lambda d: lib.lipschitz.empirical_lipschitz(f, true, lib.regions.Window(0, 3, d), ctx), plan, 2)
    jac_times = sweep(lambda d: lib.jacobian.check_jacobian_on_ball(g, ball, d), plan, 4)
    scan_sizes = [4 * (3**d - 3 ** (d - 1)) for d in depths]
    jac_sizes = [3**d for d in depths]
    return {
        "lipschitz.growth_exp": growth_exponent(scan_sizes, scan_times),
        "jacobian.growth_exp": growth_exponent(jac_sizes, jac_times),
        "sweep": {"scan": list(zip(scan_sizes, scan_times)), "jacobian": list(zip(jac_sizes, jac_times))},
    }


def scalar_costs(lib: workloads.Lib, seed: int) -> dict:
    """ns per (a-b).ord() on scan-style integer and prepare-style rational
    operands, and per ac(n) on prepare-style operands; median of 5 rounds."""
    samples = workloads.scalar_samples(lib, seed)

    def per_op(fn, items) -> float:
        rounds = []
        for _ in range(5):
            start = time.perf_counter_ns()
            fn(items)
            rounds.append((time.perf_counter_ns() - start) / len(items))
        return statistics.median(rounds)

    def sub_ord(pairs):
        for a, b in pairs:
            (a - b).ord()

    def ac(items):
        for x, n in items:
            x.ac(n)

    return {
        "qp_core.sub_ord_ns": per_op(sub_ord, samples["int_pairs"]),
        "qp_core.sub_ord_frac_ns": per_op(sub_ord, samples["frac_pairs"]),
        "qp_core.ac_ns": per_op(ac, samples["ac_operands"]),
    }


# ---------------------------------------------------------------------------
# the two modes


def summarize(loop: dict, key: str = "latencies", busy: str = "busy") -> dict:
    lat = sorted(loop[key])
    n = len(lat)
    q = tail_percentile(n)
    return {
        "n": n,
        "failed": loop["failed"],
        "throughput": (n - loop["failed"]) / loop[busy],
        "p50_ms": statistics.median(lat) * 1e3,
        "tail_q": q,
        "tail_ms": nearest_rank(lat, q) * 1e3,
    }


def part_lines(loop: dict) -> list:
    """Each part's share of analysis time and its own throughput, at the
    reference host speed; a part is the first component of an analysis
    kind (scan, certify, prepare, tour)."""
    time_of, count = {}, {}
    for t, kind in zip(loop["latencies"], loop["kinds"]):
        if kind is not None:
            part = kind.split(".")[0]
            time_of[part] = time_of.get(part, 0.0) + t
            count[part] = count.get(part, 0) + 1
    total = sum(time_of.values())
    return [
        f"  part {part:8s} {time_of[part] / total:6.1%} of analysis time  {count[part] / time_of[part]:10.4f} analyses/s  ({count[part]} analyses)"
        for part in sorted(time_of)
    ]


def run_end_to_end(name: str, seed: int, seconds: float) -> dict:
    setup_s, setup_wall_s, (lib, corpus) = measure_setup(name, seed)
    expected, problems = checked_pass(corpus)
    refusals = sum(1 for c in expected if c is not None and workloads.is_refusal(c))
    digest = corpus_digest(expected)
    problems += digest_problems(name, seed, digest)
    gc.collect()
    loop = timed_passes(corpus, expected, seconds)
    s = summarize(loop)
    w = summarize(loop, "wall_latencies", "wall_busy")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(corpus) + s["n"]
    failed = len(problems) + s["failed"]
    print(f"workload {name}  seed {seed}  corpus {len(corpus)} analyses  passes {loop['passes']}  digest {digest[:16]}")
    print(f"  pole-on-representative scans refused: {refusals} of {len(corpus)} analyses per pass")
    for line in problems[:20]:
        print(f"  WRONG {line}")
    print(f"  failed_frac          {failed / attempted:.6f} ratio  ({failed} of {attempted} attempted)")
    print(f"  reference work       {loop['speed']:.3f}x its usual time (median sample)")
    print(f"  setup_s              {setup_s:.6f} s  (median of {SETUP_REPEATS}; wall {setup_wall_s:.6f})")
    print(f"  throughput           {s['throughput']:.4f} analyses/s  (wall {w['throughput']:.4f})")
    print(f"  verdict_p50_ms       {s['p50_ms']:.4f} ms  (n = {s['n']}; wall {w['p50_ms']:.4f})")
    print(f"  verdict_tail_ms      {s['tail_ms']:.4f} ms  (p{s['tail_q']:g}, n = {s['n']}; wall {w['tail_ms']:.4f})")
    print(f"  peak_rss_mb          {rss_mb:.3f} MB")
    for line in part_lines(loop):
        print(line)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "throughput": metric(s["throughput"], "analyses/s"),
            "verdict_p50_ms": metric(s["p50_ms"], "ms"),
            "verdict_tail_ms": metric(s["tail_ms"], "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        },
    }


def run_traced(name: str, seed: int, seconds: float) -> dict:
    lib, corpus = setup(name, seed)
    expected, problems = checked_pass(corpus)
    problems += digest_problems(name, seed, corpus_digest(expected))
    gc.collect()
    # untraced and traced passes alternate, so a slow spell of the machine
    # falls on both sides of trace.overhead_frac
    tracer = tracing.Tracer()
    plain = {"busy": 0.0, "n": 0, "failed": 0}
    traced = dict(plain)
    passes = 0
    while plain["busy"] < seconds / 2:
        for side, active in ((plain, None), (traced, tracer)):
            if active is not None:
                active.install()
            try:
                loop = timed_passes(corpus, expected, 0, tracer=active)
            finally:
                if active is not None:
                    active.remove()
            side["busy"] += loop["busy"]
            side["n"] += len(loop["latencies"])
            side["failed"] += loop["failed"]
        passes += 1
    layers = tracer.layer_metrics()
    layers["trace.overhead_frac"] = (traced["busy"] - plain["busy"]) / plain["busy"]
    sweeps = scaling_sweeps(lib)
    layers["lipschitz.growth_exp"] = sweeps["lipschitz.growth_exp"]
    layers["jacobian.growth_exp"] = sweeps["jacobian.growth_exp"]
    layers.update(scalar_costs(lib, seed))
    os.makedirs(TRACE_DIR, exist_ok=True)
    span_file = os.path.join(TRACE_DIR, f"spans-{name}-seed{seed}.tsv")
    tracer.write(span_file)

    attempted = len(corpus) + plain["n"] + traced["n"]
    failed = len(problems) + plain["failed"] + traced["failed"]
    print(f"workload {name}  seed {seed}  traced passes {passes}  spans {len(tracer.spans)} -> {os.path.relpath(span_file, ROOT)}")
    for line in problems[:20]:
        print(f"  WRONG {line}")
    print(f"  traced verdicts identical to untraced: {traced['failed'] == 0}")
    for kind, points in sweeps["sweep"].items():
        print(f"  sweep {kind}: " + ", ".join(f"{size} -> {t * 1e3:.2f} ms" for size, t in points))
    units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
    for key in units:
        print(f"  {key:32s} {layers[key]:.6g} {units[key]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: metric(layers[key], unit) for key, unit in units.items()},
    }


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def digest_problems(name: str, seed: int, digest: str) -> list:
    """On the default seed, the canonical outputs must match the committed digest."""
    if seed != DEFAULT_SEED:
        return []
    with open(DIGESTS, encoding="utf-8") as fh:
        committed = json.load(fh).get(name)
    if committed != digest:
        return [f"default-seed digest {digest} differs from the committed {committed}"]
    return []


def update_digest(name: str) -> int:
    """Record the default-seed digest, after every verdict checked out."""
    _, corpus = setup(name, DEFAULT_SEED)
    expected, problems = checked_pass(corpus)
    if problems:
        for line in problems:
            print(f"WRONG {line}", file=sys.stderr)
        return 1
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    digests[name] = corpus_digest(expected)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{name}: {digests[name]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CORPORA))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-digest",
        action="store_true",
        help="check the default-seed corpus and commit its digest to digests.json",
    )
    args = parser.parse_args(argv)
    try:
        if args.update_digest:
            return update_digest(args.workload)
        run = run_traced if args.trace else run_end_to_end
        result = run(args.workload, args.seed, args.seconds)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
