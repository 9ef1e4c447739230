"""Performance harness: experiment grids, microbenchmarks, profiling.

``run_cells`` is the one grid runner (cold or fork-warm-started, serial
or parallel, behind the result cache) with output byte-identical to a
serial run; ``run_sweep`` is its (seed x policy) front-end.  The
microbenchmarks track the simulator's hot-path throughput in
``BENCH_sim.json`` so regressions show up in CI.
"""

from .grid import Cell, run_cells
from .microbench import collect_benchmarks, compare_benchmarks
from .profiling import profiled
from .sweep import RunSpec, build_specs, format_report, run_sweep

__all__ = [
    "Cell",
    "RunSpec",
    "build_specs",
    "collect_benchmarks",
    "compare_benchmarks",
    "format_report",
    "profiled",
    "run_cells",
    "run_sweep",
]
