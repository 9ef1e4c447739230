"""Record the golden output digests the benchmark checks every run against.

    python3 perfbench/record_goldens.py [SEED ...]

Runs one untraced repetition of every workload for each seed (default:
the default seed 7 and the held-out seed 1009, which was not used while
sizing the workloads) and merges ``{"digest", "summary"}`` per
(workload, seed) into ``perfbench/goldens.json``.  Re-record only when a
change is meant to alter simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import HARD_LIMIT_S, WORKLOADS, _launch
from digest import GOLDENS, load_goldens

DEFAULT_SEEDS = (7, 1009)


def main(argv: list[str]) -> int:
    seeds = [int(arg) for arg in argv] or list(DEFAULT_SEEDS)
    goldens = load_goldens()
    for workload in WORKLOADS:
        for seed in seeds:
            result, error = _launch(["--workload", workload,
                                     "--seed", str(seed)], HARD_LIMIT_S)
            if result is None:
                print(f"{workload} seed={seed}: {error}", file=sys.stderr)
                return 1
            failed = [name for name, ok in result["checks"].items() if not ok]
            if failed:
                print(f"{workload} seed={seed}: checks failed: {failed}",
                      file=sys.stderr)
                return 1
            goldens.setdefault(workload, {})[str(seed)] = {
                "digest": result["digest"], "summary": result["summary"]}
            print(f"{workload} seed={seed} {result['digest']}")
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
