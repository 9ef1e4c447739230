"""One benchmark repetition in a fresh process; prints one JSON line.

    python3 perfbench/rep.py --workload NAME --seed N [--trace] [--setup-only]

``run.py`` starts one of these per repetition, so every repetition pays
interpreter start, imports and first-call costs the way a user's run
does, and its peak RSS is its own.  ``--setup-only`` stops at the first
simulation event and reports only ``setup_s``.  ``--trace`` installs the
layer wrappers before anything is built, reports the per-layer metrics
and writes the sampled span records under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import suite  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.setup_only:
        result = {"setup_s": suite.measure_setup(args.workload, args.seed)}
    elif args.trace:
        from layers import installed
        from ledger import layer_metrics, ledger_gap_ns
        from spans import Tracer

        tracer = Tracer()
        with installed(tracer):
            with tracer.span("other.root"):
                result = suite.run_rep(args.workload, args.seed)
        result["layers"] = layer_metrics(tracer)
        result["ledger_gap_ns"] = ledger_gap_ns(tracer)
        result["counts"] = dict(sorted(tracer.calls.items()))
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_records(out)
        result["spans_file"] = str(out.relative_to(HERE.parent))
    else:
        result = suite.run_rep(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
