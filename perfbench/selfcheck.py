"""Self-check of the benchmark at tiny load.

    python3 perfbench/selfcheck.py

Runs every workload on small pools, untraced and traced, twice with one
seed, and checks that: every metric BENCHMARK.json names is printed with
its unit and nothing else is; every op passes its check; every count
metric repeats exactly; the environment is recorded; debug validation is
refused; and the output checker rejects a pair that is induced but not
strongly induced (the derived fan pair of acceptance criterion 7).
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
COUNT_UNITS = ("count", "count/op", "count/search", "B/op", "ratio")


def expect(condition, detail) -> None:
    if not condition:
        raise SystemExit(f"self-check failed: {detail}")


def run(workload: str, trace: int, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=300, check=False)


def result_of(proc) -> tuple[dict, dict, str]:
    expect(proc.returncode == 0, proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1]), proc.stdout


def check_runs(spec: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            seen = []
            for _ in range(2):
                summary, result, text = result_of(run(workload, trace))
                expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
                expect(result["correct"] and result["failed"] == 0, summary["problems"])
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                expect(got == expected[trace], (workload, trace, got))
                for name, unit in got.items():
                    expect(f"{name} " in text and f" {unit}" in text, (name, unit))
                env = summary["env"]
                expect(env["python"] and env["nproc"] >= 1 and "STELLARPAIR_DEBUG_VALIDATE" in env, env)
                if trace == 0:
                    expect("error_rate" in text and summary["error_rate"] == 0, "error_rate line")
                seen.append(result["metrics"])
            counts = [
                {k: m["value"] for k, m in metrics.items() if m["unit"] in COUNT_UNITS}
                for metrics in seen
            ]
            expect(counts[0] == counts[1], (workload, trace, counts))
            print(f"ok  {workload} trace={trace}: metrics, units and counts repeat")


def check_debug_refused(workload: str) -> None:
    env = dict(os.environ, STELLARPAIR_DEBUG_VALIDATE="1")
    proc = run(workload, 0, env)
    expect(proc.returncode != 0 and not proc.stdout.strip(), proc.stdout)
    print("ok  STELLARPAIR_DEBUG_VALIDATE=1 is refused")


def check_rejects_fan_pair() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import stellarpair as sp
    from workloads import PairStream

    gamma = sp.from_facets([[1, 2], [2, 3], [3, 4], [1, 4]])
    fan = sp.from_facets([[1, 2, 4], [2, 3], [3, 4]])
    rnd = sp.next_round(fan.vertex_set())
    sub, _ = sp.derived_subdivision(gamma, round=rnd)
    ambient, _ = sp.derived_subdivision(fan, round=rnd)
    bad = sp.pair_new(sub, ambient)
    expect(bad.status.verdict == "induced", bad.status)
    item = {"contract": None, "subdivide": None}
    problems = PairStream.check(item, bad, (bad, None, None))
    expect(problems == ["biased pair is not strongly induced"], problems)
    print("ok  the pair checker rejects the derived fan pair (induced, not strongly induced)")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_rejects_fan_pair()
    check_debug_refused(WORKLOAD_NAMES[0])
    check_runs(spec)
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
