"""The Mantle environment (paper Table 2).

Builds the global variables and functions injected policies see:

* current-MDS metrics: ``whoami``, ``authmetaload``, ``allmetaload``,
  ``IRD``/``IWR``/``READDIR``/``FETCH``/``STORE``;
* per-MDS metrics: ``MDSs[i]["auth"|"all"|"cpu"|"mem"|"q"|"req"|"load"]``
  and ``total``;
* functions: ``WRstate(s)``, ``RDstate()``, ``max``, ``min``.

Also compiles load formulas (``mds_bal_metaload``/``mds_bal_mdsload``) into
Python callables that evaluate them with the Lua interpreter, so a formula
means exactly what it means in Lua (``x/0`` is ``inf``, ``0/0`` is ``nan``).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..luapolicy.errors import LuaRuntimeError
from ..luapolicy.sandbox import PolicyResult, compile_load_expression
from ..namespace.counters import OP_KINDS

#: Keys every per-MDS metrics table carries (Table 2, plus the ``alive``
#: liveness flag: 1.0 for live ranks, 0.0 for ranks declared dead).
MDS_METRIC_KEYS = ("auth", "all", "cpu", "mem", "q", "req", "load", "alive")

#: Canonical binding sets per hook -- the global names each hook's chunk can
#: rely on, exactly as the builders below install them.  The static analyzer
#: (repro.analysis) checks policy reads against these, so a misspelling like
#: ``allmetalod`` is caught before injection instead of evaluating to nil.
METALOAD_BINDINGS: frozenset[str] = frozenset(OP_KINDS)
MDSLOAD_BINDINGS: frozenset[str] = frozenset({"MDSs", "i"})
DECISION_BINDINGS: frozenset[str] = frozenset({
    "whoami", "MDSs", "total", "authmetaload", "allmetaload", "targets",
    "WRstate", "RDstate", *OP_KINDS,
})
#: The decision bindings that are callables (persistent-state accessors).
DECISION_FUNCTIONS: frozenset[str] = frozenset({"WRstate", "RDstate"})


def _formula_value(result: PolicyResult, output: str) -> float:
    """The number a load formula produced: its ``return`` value, else the
    global it assigned (*output*: ``metaload`` or ``mdsload``)."""
    value = (result.returned[0] if result.returned
             else result.global_value(output))
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise LuaRuntimeError(
            f"{output} formula produced {value!r}, expected a number"
        )
    return float(value)


def compile_metaload(source: str) -> Callable[[Mapping[str, float]], float]:
    """Compile a metaload formula into ``fn(counter_snapshot) -> float``.

    The snapshot maps the five op-kind counters (and nothing else) to their
    decayed values, exactly what :meth:`LoadCounters.snapshot` returns.
    """
    compiled = compile_load_expression(source)

    def metaload(snapshot: Mapping[str, float]) -> float:
        bindings = {kind: float(snapshot.get(kind, 0.0)) for kind in OP_KINDS}
        return _formula_value(compiled.run(bindings), "metaload")

    return metaload


def compile_mdsload(source: str) -> Callable[[list[dict], int], float]:
    """Compile an MDS-load formula into ``fn(mds_metrics, i) -> float``.

    *mds_metrics* is the list of per-rank metric dicts (0-based);
    *i* is the 0-based rank being scored.  Inside the formula, ``MDSs`` and
    ``i`` are 1-based as in Lua.
    """
    compiled = compile_load_expression(source)

    def mdsload(mds_metrics: list[dict], i: int) -> float:
        mdss = [dict(metrics) for metrics in mds_metrics]
        return _formula_value(compiled.run({"MDSs": mdss, "i": i + 1}),
                              "mdsload")

    return mdsload


def build_decision_bindings(
    whoami: int,
    mds_metrics: list[dict],
    local_counters: Mapping[str, float],
    auth_metaload: float,
    all_metaload: float,
    wrstate: Callable[..., Any],
    rdstate: Callable[[], Any],
) -> dict[str, Any]:
    """Globals for the when/where decision chunk (paper Table 2).

    *whoami* and the metrics list are 0-based on the Python side; the
    bindings are 1-based Lua style.
    """
    total = sum(float(metrics.get("load", 0.0)) for metrics in mds_metrics)
    bindings: dict[str, Any] = {
        "whoami": whoami + 1,
        "MDSs": [dict(metrics) for metrics in mds_metrics],
        "total": total,
        "authmetaload": float(auth_metaload),
        "allmetaload": float(all_metaload),
        "targets": {},
        "WRstate": wrstate,
        "RDstate": rdstate,
    }
    for kind in OP_KINDS:
        bindings[kind] = float(local_counters.get(kind, 0.0))
    return bindings


def extract_targets(raw: Any, num_ranks: int) -> dict[int, float]:
    """Convert the policy's 1-based ``targets`` table to {0-based: load}.

    Non-numeric, non-positive and out-of-range entries are dropped -- a bad
    policy must not crash the balancer (§4.4 safety).
    """
    if raw is None:
        return {}
    if isinstance(raw, list):
        raw = {i + 1: value for i, value in enumerate(raw)}
    if not isinstance(raw, dict):
        return {}
    targets: dict[int, float] = {}
    for key, value in raw.items():
        if isinstance(key, bool) or not isinstance(key, (int, float)):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        rank = int(key) - 1
        if key != int(key) or rank < 0 or rank >= num_ranks:
            continue
        if value <= 0:
            continue
        targets[rank] = float(value)
    return targets
