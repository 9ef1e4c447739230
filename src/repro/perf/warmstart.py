"""Fork-based warm-start cell server for experiment grids.

Every evaluation in the paper is a *grid*: Fig 8 is six configurations of
one create workload, Fig 4 is four seeds of one configuration, Fig 10 is
four aggressiveness variants of one compile job.  A cold grid re-pays
cluster construction, namespace build, workload generation and an
identical pre-divergence simulation prefix for every cell.  This module
shares those stages through ``os.fork``:

* **construction stage** -- cells whose workloads report the same
  :meth:`~repro.workloads.base.Workload.construction_signature` (and whose
  configs agree on the namespace-shape fields) share one namespace build +
  ``workload.prepare`` pass, even across different seeds;
* **prefix stage** -- cells that differ *only* in balancer policy share the
  policy-independent simulation prefix: a forked *prefix runner* builds the
  cluster, starts the workload and runs the engine up to the workload's
  :meth:`~repro.workloads.base.Workload.shared_prefix_end` barrier (the
  first heartbeat metaload snapshot -- strictly before any policy-divergent
  event), then forks one child per cell.  Engine heap, RNG streams and
  generator-based client processes are inherited copy-on-write with no
  serialization.

The split run executes exactly the same event sequence as a cold run (see
``SimEngine.run_before``), so results are byte-identical -- the repo's
hard rule; ``tests/integration/test_warmstart_equivalence.py`` asserts it.

:func:`repro.perf.grid.run_cells` is the front-end; on platforms without
``os.fork`` (or for single-cell grids) it runs cells serially in-process,
and ``fork_supported()`` is the gate.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator


def fork_supported() -> bool:
    """True where the fork-based cell server can run."""
    return hasattr(os, "fork") and sys.platform != "win32"


class CellError(RuntimeError):
    """A grid cell failed in a forked child; the message names the cell."""


def _write_all(fd: int, data: bytes) -> None:
    """Write *data* fully (``os.write`` may return short on pipes)."""
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


# ---------------------------------------------------------------------------
# Fork pool: run thunks in forked children, one result object per child.
# ---------------------------------------------------------------------------

class _ForkPool:
    """Run thunks in forked children, at most *jobs* concurrently.

    Each child runs one thunk and sends its pickled result back through a
    pipe, then ``os._exit``\\ s (no interpreter teardown, no duplicated
    atexit/flush side effects).  The parent multiplexes reads with
    ``select`` so a child writing more than a pipe buffer can never
    deadlock against a parent blocked on a different child.
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))

    def run(self, tasks: Iterable[tuple[Hashable, str, Callable[[], Any]]]
            ) -> dict[Hashable, Any]:
        """Run all (key, label, thunk) tasks; returns {key: result}.

        *label* names the task in errors.  *tasks* may be a lazy iterator:
        the next task is only pulled when a worker slot frees up, which
        lets callers defer expensive per-group construction until it is
        actually needed.
        """
        results: dict[Hashable, Any] = {}
        queue = iter(tasks)
        live: dict[int, list] = {}  # read fd -> [pid, key, label, buffer]
        exhausted = False
        try:
            while True:
                while not exhausted and len(live) < self.jobs:
                    try:
                        key, label, thunk = next(queue)
                    except StopIteration:
                        exhausted = True
                        break
                    live.update((self._spawn(key, label, thunk),))
                    del thunk  # parent drops its reference (frees ctx)
                if not live:
                    if exhausted:
                        return results
                    continue
                ready, _, _ = select.select(list(live), [], [])
                for fd in ready:
                    chunk = os.read(fd, 1 << 16)
                    if chunk:
                        live[fd][3] += chunk
                        continue
                    pid, key, label, buffer = live.pop(fd)
                    os.close(fd)
                    os.waitpid(pid, 0)
                    results[key] = self._decode(label, buffer)
        except BaseException:
            self._reap(live)
            raise

    def _spawn(self, key: Hashable, label: str,
               thunk: Callable[[], Any]) -> tuple[int, list]:
        read_fd, write_fd = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:  # child: never returns into the caller's stack
            status = 1
            try:
                os.close(read_fd)
                try:
                    payload = pickle.dumps(("ok", thunk()),
                                           protocol=pickle.HIGHEST_PROTOCOL)
                    status = 0
                except BaseException as exc:  # noqa: BLE001 - report it
                    # A nested CellError already names its cell: pass it on.
                    message = (str(exc) if isinstance(exc, CellError) else
                               f"{label} failed:\n{traceback.format_exc()}")
                    payload = pickle.dumps(("err", message))
                # A parent that gave up on the grid has closed its end.
                _write_all(write_fd, payload)
            finally:
                os._exit(status)
        os.close(write_fd)
        return read_fd, [pid, key, label, bytearray()]

    @staticmethod
    def _decode(label: str, buffer: bytearray) -> Any:
        if not buffer:
            raise CellError(f"{label} died without sending a result")
        status, value = pickle.loads(buffer)
        if status == "err":
            raise CellError(value)
        return value

    @staticmethod
    def _reap(live: dict[int, list]) -> None:
        for fd, (pid, *_rest) in live.items():
            try:
                os.close(fd)
            except OSError:
                pass
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (OSError, ChildProcessError):
                pass


# ---------------------------------------------------------------------------
# Grid orchestration.
# ---------------------------------------------------------------------------

@dataclass
class CellPlan:
    """One grid cell: grouping keys plus an opaque payload for callbacks.

    *name* labels the cell in errors raised from its forked child.
    """

    index: int
    construction_key: Hashable | None
    prefix_key: Hashable
    payload: Any
    name: str = ""


def _label(plans: list[CellPlan]) -> str:
    names = ", ".join(repr(plan.name or f"#{plan.index}") for plan in plans)
    return f"grid cell{'s' if len(plans) > 1 else ''} {names}"


def run_grid(plans: list[CellPlan], *,
             construct: Callable[[Hashable, list[CellPlan]], Any],
             warm_start: Callable[[Any, Hashable, list[CellPlan]], Any],
             execute: Callable[[Any, CellPlan], Any],
             jobs: int = 1) -> list[Any]:
    """Run a grid of cells with forked construction/prefix sharing.

    * ``construct(construction_key, plans)`` runs once per construction
      group **in the parent**; its return value (e.g. a prepared
      namespace) is inherited copy-on-write by every runner of the group.
      Skipped (ctx ``None``) for plans whose ``construction_key`` is None.
    * ``warm_start(ctx, prefix_key, plans)`` runs once per prefix group in
      a forked *runner*; returns the shared cell state (e.g. a cluster
      advanced to the fork barrier).
    * ``execute(state, plan)`` runs once per cell, in a fork of its
      runner, and returns a picklable result.

    Results come back ordered by ``plan.index`` position in *plans*,
    regardless of completion order or *jobs*.  A failure in a child
    raises :class:`CellError` naming the cell(s) it was running.
    """
    if not fork_supported():
        raise RuntimeError("run_grid requires os.fork; use the cold path")
    groups: dict[Hashable, dict[Hashable, list[CellPlan]]] = {}
    for plan in plans:
        ckey = plan.construction_key
        if ckey is None:
            # Unshared construction: private group per prefix group.
            ckey = ("__private__", plan.prefix_key)
        groups.setdefault(ckey, {}).setdefault(plan.prefix_key,
                                               []).append(plan)

    pool = _ForkPool(jobs)

    def runner_tasks() -> Iterator[tuple[Hashable, str, Callable[[], Any]]]:
        for ckey, prefix_groups in groups.items():
            shared = not (isinstance(ckey, tuple) and ckey
                          and ckey[0] == "__private__")
            ctx = None
            if shared:
                first = next(iter(prefix_groups.values()))
                ctx = construct(ckey, first)
            for pkey, cell_plans in prefix_groups.items():
                def run_one_group(ctx=ctx, pkey=pkey,
                                  cell_plans=cell_plans) -> dict[int, Any]:
                    state = warm_start(ctx, pkey, cell_plans)
                    if len(cell_plans) == 1:
                        plan = cell_plans[0]
                        return {plan.index: execute(state, plan)}
                    inner = _ForkPool(jobs)
                    return inner.run(
                        (plan.index, _label([plan]),
                         lambda plan=plan: execute(state, plan))
                        for plan in cell_plans
                    )
                yield (pkey, _label(cell_plans), run_one_group)

    merged: dict[int, Any] = {}
    for group_result in pool.run(runner_tasks()).values():
        merged.update(group_result)
    return [merged[plan.index] for plan in plans]
