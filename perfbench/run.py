"""Benchmark for stellarpair: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload pipeline_grow --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The run builds a seeded pool of inputs, then replays
whole passes over the pool until ``--seconds`` of wall time have gone by
(the last pass starts before the deadline and is finished).  Every op's
output is checked: semantically on the first pass, and against the first
pass's output on later passes.

Op latency is the op's thread CPU time at reference speed, and an
input's latency is its median over the passes.  The workloads are single
threaded, CPU bound and do no I/O, so on an idle machine CPU time equals
wall time; on a shared machine it leaves out the time the process spent
descheduled.  What CPU time keeps is the host's speed, which co-tenants
swing by up to half within seconds.  So the run times a fixed pure-Python
reference loop, which calls nothing in the library, at the start and end
of every pass and, during the pass, after every SAMPLE_EVERY_S of CPU time
(from a CPU-time interval timer's signal handler, inside ops and between
them), and scales each op's CPU time by the reference loop's harmonic
mean time just before, during and just after it, to the power
SPEED_EXPONENT: times are reported as if the loop took REFERENCE_MS.  A change to the library moves
the op times and not the loop, so it shows in full.  Passes take the
process's CPUs in turn, because co-tenants slow one CPU at a time and the
scheduler keeps a lone process on one CPU for minutes.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` passes alternate untraced and traced, and the
last line holds the per-layer metrics of the traced passes (see
``tracing.py``).  Per-op sizes and, when tracing, the spans are written to
``perfbench/out/``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
DEBUG_ENV = "STELLARPAIR_DEBUG_VALIDATE"
WORKLOAD_NAMES = ("pair_stream", "pipeline_grow", "search_bfs")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)
TINY_POOL = {"pair_stream": 45, "pipeline_grow": 2, "search_bfs": 15}
REFERENCE_MS = 2.0  # nominal reference-loop time; about its median on the baseline machine
REFERENCE_CALLS = 15  # reference-loop calls per speed sample at a pass's ends; the sample is their median
SAMPLE_EVERY_S = 0.025  # CPU seconds between one-call speed samples during a pass
NEIGHBOURS = 2  # samples on each side of an op that its scaling uses, besides those inside it
# Under co-tenant contention the library's ops slow by the loop's slow-down
# to this power (the log-log slope; 1.16-1.19 measured on the pipeline_grow
# scripts), so scaling by the loop's time alone under-corrects.
SPEED_EXPONENT = 1.15


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small pools, for the self-check")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def load_library():
    """Import stellarpair from this checkout's ``src`` and nowhere else."""
    if os.environ.get(DEBUG_ENV, "") == "1":
        fail(f"{DEBUG_ENV}=1 re-validates every complex built and changes which code runs; refusing to time")
    src = ROOT / "src"
    if not (src / "stellarpair" / "__init__.py").is_file():
        fail(f"no library source at {src}; run from the root of a stellarpair checkout")
    sys.path.insert(0, str(src))
    import stellarpair

    if Path(stellarpair.__file__).resolve().parent.parent != src:
        fail(f"imported stellarpair from {stellarpair.__file__}, not from {src}")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        DEBUG_ENV: os.environ.get(DEBUG_ENV, "unset"),
        "platform": platform.platform(),
    }


def build(name: str, seed: int, tiny: bool):
    """Set-up: generate the inputs and warm up with one untimed op."""
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workload = cls(seed, TINY_POOL[name]) if tiny else cls(seed)
    first = workload.pool[0]
    workload.op(first, workload.inputs(first))
    return workload


def probe_setup(args) -> list[float]:
    """Wall time from process start to the first op, over fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        began = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - began
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            fail(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the highest percentile of
    TAIL_PERCENTILES with at least ten samples beyond it; the maximum when
    there are too few samples for any.  The value is the Harrell-Davis
    estimate of the percentile, not one order statistic: in a sparse tail
    a single input's noise moves the nearest-rank value by the whole gap
    to its neighbour."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        k = max(0, math.ceil(p * n / 100) - 1)  # nearest rank
        if n - 1 - k >= 10:
            return p, harrell_davis(ordered, p / 100), n - 1 - k
    return 100.0, ordered[-1], 0


def harrell_davis(ordered: list[float], q: float) -> float:
    """The order statistics weighted by the mass that Beta((n+1)q, (n+1)(1-q))
    puts on each one's n-th of [0, 1] (midpoint rule, 64 steps an n-th)."""
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64 * n
    mass = [0.0] * n
    for j in range(steps):
        x = (j + 0.5) / steps
        mass[j * n // steps] += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(m * v for m, v in zip(mass, ordered)) / sum(mass)


def reference_loop() -> int:
    """Fixed pure-Python work of the library's kind (tuple keys, dict and set
    traffic, a sort) that calls nothing in the library."""
    table: dict = {}
    seen = set()
    for i in range(3000):
        key = ((i * 7919) % 1009, i % 7)
        table[key] = table.get(key, 0) + 1
        seen.add(key[0])
    return len(sorted(table)) + len(seen)


def timed_reference(calls: int) -> float:
    """Median CPU seconds of `calls` reference-loop calls.  The garbage
    collector is off meanwhile, so no collection of the library's heap
    lands in a sample; the loop frees what it allocates."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(calls):
            began = time.thread_time()
            reference_loop()
            times.append(time.thread_time() - began)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Run:
    """Whole passes over the pool until the deadline; every op checked."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        pool = workload.pool
        # (pass, input, CPU s, first and one-past-last speed sample taken during the op)
        self.timings: list[tuple[int, int, float, int, int]] = []
        self.speed: list[float] = []  # reference-loop seconds, in the order sampled
        self.sample_cpu = 0.0  # CPU seconds spent in the timer's speed samples
        self.quiet = False  # no timer samples now (inside a traced op)
        self.reference = [None] * len(pool)
        self.records = [None] * len(pool)
        self.attempted = 0
        self.failed = 0
        self.out_facets = 0
        self.passes = 0
        self.reports = []

    def go(self, seconds: float) -> None:
        """Whole passes; a pass starts only if one more like the last fits
        before the deadline."""
        began = time.perf_counter()
        deadline = began + seconds
        min_passes = 2 if self.tracer is not None else 1
        last = 0.0
        cpus = sorted(os.sched_getaffinity(0))
        signal.signal(signal.SIGPROF, self.sample_in_pass)
        try:
            while self.passes < min_passes or time.perf_counter() + last <= deadline:
                # Passes take the process's CPUs in turn (a traced pass shares
                # its untraced partner's), so every input is timed on each.
                os.sched_setaffinity(0, {cpus[self.passes // min_passes % len(cpus)]})
                traced = self.tracer is not None and self.passes % 2 == 1
                self.speed.append(timed_reference(REFERENCE_CALLS))
                signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
                try:
                    for index, item in enumerate(self.workload.pool):
                        self.one(index, item, traced)
                finally:
                    signal.setitimer(signal.ITIMER_PROF, 0)
                self.speed.append(timed_reference(REFERENCE_CALLS))
                self.passes += 1
                now = time.perf_counter()
                last, began = now - began, now
        finally:
            os.sched_setaffinity(0, cpus)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def sample_in_pass(self, signum, frame) -> None:
        """Timer signal handler: one reference-loop call, unless inside a
        traced op, where a span would hold it."""
        if self.quiet:
            return
        began = time.thread_time()
        self.speed.append(timed_reference(1))
        self.sample_cpu += time.thread_time() - began

    def one(self, index, item, traced: bool) -> None:
        w = self.workload
        inputs = w.inputs(item)
        if self.tracer is not None:
            self.tracer.enabled = traced
        self.quiet = traced
        first = len(self.speed)
        began, sampling = time.thread_time(), self.sample_cpu
        try:
            out = w.op(item, inputs)
            error = None
        except Exception as exc:  # the loop must go on; the failure is counted and reported
            out, error = None, exc
        # the timer's samples inside the op are not the op's time
        spent = time.thread_time() - began - (self.sample_cpu - sampling)
        self.quiet = False
        if self.tracer is not None:
            self.tracer.enabled = False
        self.attempted += 1
        self.timings.append((self.passes, index, spent, first, len(self.speed)))
        if error is None:
            try:
                problems = self.problems(index, item, inputs, out)
            except Exception as exc:  # a malformed output can make the checks themselves raise
                error = exc
        if error is not None:
            problems = ["raised " + "".join(traceback.format_exception_only(error)).strip()]
        if problems:
            self.failed += 1
            if len(self.reports) < 10:
                self.reports.append({"pass": self.passes, "index": item["index"], "problems": problems})

    def problems(self, index, item, inputs, out) -> list[str]:
        """Semantic checks on the first pass; later passes must repeat its output."""
        w = self.workload
        if self.passes > 0:
            if w.fingerprint(out) != self.reference[index]:
                return ["output differs from the first pass on the same input"]
            return []
        found = w.check(item, inputs, out)
        self.reference[index] = w.fingerprint(out)
        self.out_facets += w.out_facets(item, inputs, out)
        self.records[index] = {"index": item["index"], **w.size_record(item, inputs, out)}
        return found

    def scaled(self, spent: float, first: int, last: int) -> float:
        """CPU seconds at reference speed, from the speed samples taken
        during the op and the NEIGHBOURS on each side of it.  Samples come
        at equal steps of CPU time, so the op's time at reference speed is
        its CPU time times the mean of the inverse sample times: their
        harmonic mean is the one to divide by."""
        loop = statistics.harmonic_mean(self.speed[max(0, first - NEIGHBOURS):last + NEIGHBOURS])
        return spent * (REFERENCE_MS * 1e-3 / loop) ** SPEED_EXPONENT

    def latency(self, raw: bool = False) -> list[list[float]]:
        """Each input's op seconds over the passes."""
        per_input = [[] for _ in self.workload.pool]
        for _, index, spent, first, last in self.timings:
            per_input[index].append(spent if raw else self.scaled(spent, first, last))
        return per_input

    def pass_seconds(self, raw: bool = False) -> list[float]:
        """Op seconds of each pass."""
        total = [0.0] * self.passes
        for pass_no, _, spent, first, last in self.timings:
            total[pass_no] += spent if raw else self.scaled(spent, first, last)
        return total

    def ops_per_s(self, passes, raw: bool = False) -> float:
        passes = list(passes)
        seconds = self.pass_seconds(raw)
        return len(passes) * len(self.workload.pool) / sum(seconds[i] for i in passes)

    def traced_passes(self) -> range:
        return range(1, self.passes, 2)

    def untraced_passes(self) -> range:
        """Untraced passes of a traced run; the first, cold pass only if it is the sole one."""
        return range(2, self.passes, 2) if self.passes > 2 else range(0, 1)


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    # Inputs repeat every pass; an input's latency is its median over passes.
    per_input = [statistics.median(xs) for xs in run.latency()]
    raw_input = [statistics.median(xs) for xs in run.latency(raw=True)]
    pct, value, beyond = tail(per_input)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (run.ops_per_s(range(run.passes)), "1/s"),
        "op_p50_ms": (statistics.median(per_input) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "out_facets": (run.out_facets, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "error_rate": run.failed / run.attempted,
        "tail_percentile": pct,
        "tail_samples": len(per_input),
        "tail_beyond": beyond,
        "cpu_ops_per_s": run.ops_per_s(range(run.passes), raw=True),
        "cpu_op_p50_ms": statistics.median(raw_input) * 1e3,
        "cpu_op_tail_ms": tail(raw_input)[1] * 1e3,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def run_one(args) -> int:
    load_library()
    import tracing

    workload = build(args.workload, args.seed, args.tiny)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    own_setup = time.perf_counter() - _STARTED
    probes = [] if args.trace else probe_setup(args)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    run = Run(workload, tracer)
    began = time.perf_counter()
    run.go(args.seconds)
    wall = time.perf_counter() - began
    if tracer is not None:
        tracer.uninstall()

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.ops.jsonl", "w", encoding="utf-8") as fh:
        for record, times, scaled in zip(run.records, run.latency(raw=True), run.latency()):
            fh.write(json.dumps({**(record or {}), "cpu_s": times, "scaled_s": scaled}) + "\n")

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "pool": len(workload.pool),
        "passes": run.passes,
        "pass_cpu_s": run.pass_seconds(raw=True),
        "pass_scaled_s": run.pass_seconds(),
        "reference_ms": [min(run.speed) * 1e3, statistics.median(run.speed) * 1e3, max(run.speed) * 1e3],
        "attempted": run.attempted,
        "failed": run.failed,
        "measured_wall_s": wall,
        "own_setup_s": own_setup,
        "setup_probes_s": probes,
        "sizes": size_summary(run.records),
        "problems": run.reports,
    }
    if tracer is not None:
        tracer.write_spans(f"{stem}.spans.tsv")
        metrics = tracing.layer_metrics(
            tracer,
            len(run.traced_passes()) * len(workload.pool),
            run.ops_per_s(run.traced_passes()),
            run.ops_per_s(run.untraced_passes()),
        )
        summary["spans"] = len(tracer.span_name)
    else:
        metrics, info = end_to_end(run, statistics.median(probes))
        summary.update(info)
    print(json.dumps(summary, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'error_rate':44s} {summary['error_rate']:.6g} ratio"
              f"  (tail at p{summary['tail_percentile']:g} of {summary['tail_samples']} inputs,"
              f" {summary['tail_beyond']} beyond)")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def size_summary(records) -> dict:
    """Smallest, median and largest of each size field over the pool."""
    fields: dict[str, list] = {}

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else k, v)
        elif isinstance(value, (int, float)) and not isinstance(value, bool) and prefix != "index":
            fields.setdefault(prefix, []).append(value)

    for record in records:
        walk("", record or {})
    return {k: [min(v), statistics.median(v), max(v)] for k, v in sorted(fields.items())}


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} failed with exit code {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[1:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
