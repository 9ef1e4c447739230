"""mantle-bench: end-to-end and per-layer benchmark of the simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every repetition is a fresh process
(``rep.py``).  With ``--trace 0`` repetitions run back to back for about
``--seconds`` seconds and the end-to-end metrics are their medians; with
``--trace 1`` one untraced and one traced repetition run and the
per-layer metrics come from the traced one.  Every repetition's simulated
output is checked: conservation checks, a digest that must agree across
repetitions, between the traced and untraced runs, and with the committed
golden digest when ``goldens.json`` has one for (workload, seed).

Human-readable lines go first; the last line of standard output is one
JSON object.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from digest import golden_for  # noqa: E402
from ledger import SELF_METRICS  # noqa: E402

WORKLOADS = ("create-shared", "zipf-read", "compile-spill", "grid")
#: A run never starts a repetition it expects to end after this many
#: seconds, and never lets one outlive it.
HARD_LIMIT_S = 170.0
MIN_REPS = 2
#: ``setup_s`` is the median of at least this many fresh-process set-ups.
MIN_SETUP_SAMPLES = 7


def _metric_specs() -> dict[str, list[dict[str, str]]]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _launch(args: list[str], timeout: float) -> tuple[Optional[dict], str]:
    """Run ``rep.py`` in a fresh process group; (result, error)."""
    proc = subprocess.Popen([sys.executable, str(HERE / "rep.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout:.0f}s"
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"


class Checker:
    """Collects every repetition's output check."""

    def __init__(self, workload: str, seed: int) -> None:
        self.golden = golden_for(workload, seed)
        self.digest: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, result: Optional[dict], error: str
              ) -> bool:
        self.attempted += 1
        problems = []
        if result is None:
            problems.append(error)
        else:
            problems += [f"check {name} failed"
                         for name, ok in result["checks"].items() if not ok]
            if self.digest is None:
                self.digest = result["digest"]
            elif result["digest"] != self.digest:
                problems.append("digest differs from the first repetition")
            if (self.golden is not None
                    and result["digest"] != self.golden["digest"]):
                problems.append("digest differs from goldens.json")
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {problem}" for problem in problems]
        return not problems


def _emit(checker: Checker, metrics: dict[str, float],
          specs: list[dict[str, str]]) -> int:
    for problem in checker.problems:
        print(f"FAILED {problem}")
    out = {spec["name"]: {"value": metrics[spec["name"]],
                          "unit": spec["unit"]} for spec in specs}
    correct = checker.failed == 0
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": out}))
    return 0 if correct else 1


def measure(workload: str, seed: int, seconds: float) -> int:
    """End-to-end metrics: medians over fresh-process repetitions."""
    checker = Checker(workload, seed)
    rep_args = ["--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    reps: list[dict] = []
    durations: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        began = time.perf_counter()
        result, error = _launch(rep_args, HARD_LIMIT_S - elapsed)
        durations.append(time.perf_counter() - began)
        if checker.check(f"rep {len(durations)}", result, error):
            reps.append(result)
        elapsed = time.perf_counter() - start
        expected = statistics.median(durations)
        if result is None or elapsed + expected > HARD_LIMIT_S:
            break
        if len(durations) >= MIN_REPS and elapsed + expected > seconds:
            break
    setups = [rep["setup_s"] for rep in reps if "setup_s" in rep]
    while len(setups) < MIN_SETUP_SAMPLES and reps:
        elapsed = time.perf_counter() - start
        result, error = _launch([*rep_args, "--setup-only"],
                                HARD_LIMIT_S - elapsed)
        if result is None:
            checker.check("setup", None, error)
            break
        setups.append(result["setup_s"])

    specs = _metric_specs()["end_to_end"]
    if not reps:
        return _emit(checker, {spec["name"]: 0.0 for spec in specs}, specs)
    throughputs = [rep["ops"] / rep["run_s"] for rep in reps]
    metrics = {
        "sim_ops_per_s": statistics.median(throughputs),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "sim_makespan_s": reps[0]["sim_makespan_s"],
        "sim_p99_ms": reps[0]["sim_p99_ms"],
    }
    print(f"workload={workload} seed={seed} reps={len(reps)} "
          f"setups={len(setups)} digest={checker.digest}")
    print(f"  {reps[0]['summary']}")
    for spec in specs:
        print(f"  {spec['name']:<16} {metrics[spec['name']]:>14.6g} "
              f"{spec['unit']}")
    print(f"  {'failed_frac':<16} "
          f"{checker.failed / checker.attempted:>14.6g} ratio "
          f"({checker.failed}/{checker.attempted} runs)")
    print(f"  sim_ops_per_s samples: "
          f"{' '.join(f'{value:.1f}' for value in throughputs)}")
    return _emit(checker, metrics, specs)


def trace(workload: str, seed: int) -> int:
    """Per-layer metrics from one traced repetition, checked against an
    untraced one of the same seed."""
    checker = Checker(workload, seed)
    rep_args = ["--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    plain, error = _launch(rep_args, HARD_LIMIT_S)
    checker.check("untraced", plain, error)
    traced, error = _launch([*rep_args, "--trace"],
                            HARD_LIMIT_S - (time.perf_counter() - start))
    checker.check("traced", traced, error)
    specs = _metric_specs()["per_layer"]
    if plain is None or traced is None:
        return _emit(checker, {spec["name"]: 0.0 for spec in specs}, specs)
    metrics: dict[str, Any] = dict(traced["layers"])
    metrics["trace_overhead"] = traced["wall_s"] / plain["wall_s"]
    print(f"workload={workload} seed={seed} traced digest="
          f"{traced['digest']} (untraced {plain['digest']})")
    print(f"  spans: {traced['spans_file']}")
    print(f"  ledger (host us per simulated op, traced): "
          f"root={metrics['root.us_per_op']:.2f} "
          f"gap={traced['ledger_gap_ns']}ns "
          f"overhead={metrics['trace_overhead']:.2f}x")
    for layer, name in sorted(SELF_METRICS.items(),
                              key=lambda item: -metrics[item[1]]):
        print(f"    {layer:<10} {metrics[name]:>10.3f}")
    for spec in specs:
        print(f"  {spec['name']:<32} {metrics[spec['name']]:>14.6g} "
              f"{spec['unit']}")
    return _emit(checker, metrics, specs)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="mantle-bench: end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"),
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"mantle-bench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        if args.trace:
            status |= trace(workload, args.seed)
        else:
            status |= measure(workload, args.seed, args.seconds)
    return status


if __name__ == "__main__":
    sys.exit(main())
