"""Content fingerprints for the result cache.

A cached result is only reusable while *everything that could change the
simulation's output* is unchanged.  That closure is:

* the simulator source itself -- every ``.py`` module under ``repro``
  (a one-line change to the engine invalidates the whole cache, which is
  exactly right for a bit-identical simulator);
* the interpreter and numpy versions (RNG bit streams are version
  contracts, not guarantees across majors);
* the resolved cell: config fields (seed included), workload class and
  attributes, ``max_time``, lifecycle arms, the lint gate and the
  **policy text** (via :func:`repro.core.policyfile.dump_policy`), so
  editing a balancer policy -- even its Lua body -- is a cache miss.

Fingerprints are hex sha256 digests; they never hash live objects, only
their canonical serialised forms, so cold/warm/forked paths agree.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any

from ..core.policyfile import dump_policy

#: The package whose sources define the simulation's behaviour.
_PACKAGE_ROOT = Path(__file__).resolve().parents[1]

_sources_digest_cache: str | None = None


def sources_digest() -> str:
    """sha256 over every ``.py`` file under the ``repro`` package.

    Includes python and numpy versions: identical sources on a different
    RNG implementation are not the same simulator.  Computed once per
    process (the sources cannot change under a running interpreter in any
    way the interpreter would notice).
    """
    global _sources_digest_cache
    if _sources_digest_cache is not None:
        return _sources_digest_cache
    hasher = hashlib.sha256()
    hasher.update(f"python={sys.version_info[:3]}".encode())
    try:
        import numpy
        hasher.update(f"numpy={numpy.__version__}".encode())
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        hasher.update(b"numpy=absent")
    for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
        rel = path.relative_to(_PACKAGE_ROOT).as_posix()
        hasher.update(rel.encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    _sources_digest_cache = hasher.hexdigest()
    return _sources_digest_cache


def canonical(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr).encode()


def _policy_text(factory) -> str:
    """The serialised policy file text a factory builds ("" for none).

    This is the *content* of the policy, not its name: editing the Lua
    behind an unchanged name is a miss through here.
    """
    return dump_policy(factory()) if factory is not None else ""


def prefix_payload(cell, workload) -> dict[str, Any]:
    """Everything that shapes a cell's run before its policy is consulted.

    Workload identity is its class plus all constructor-derived attributes
    (every workload stores plain data), so resizing a cell is a miss.
    Cells with equal payloads share a warm-start prefix runner.
    """
    return {
        "config": asdict(cell.config),
        "workload": [type(workload).__name__,
                     dict(sorted(vars(workload).items()))],
        "max_time": cell.max_time,
    }


def cell_fingerprint(cell) -> str:
    """Fingerprint one grid cell (a :class:`repro.perf.grid.Cell`).

    Covers the prefix payload (config, workload, ``max_time``), the live
    policy text, the lifecycle arms (shadow/canary texts, ``canary_at``,
    ``canary_window``) and the ``lint`` gate -- a lint-failing policy
    errors with it and runs without it.  The stability guard is a config
    field, so guarded and unguarded cells never alias either.
    """
    payload = prefix_payload(cell, cell.workload())
    payload.update(
        policy=_policy_text(cell.policy),
        shadow=_policy_text(cell.shadow),
        canary=_policy_text(cell.canary),
        canary_at=cell.canary_at,
        canary_window=cell.canary_window,
        lint=cell.lint,
    )
    hasher = hashlib.sha256()
    hasher.update(sources_digest().encode())
    hasher.update(canonical(payload))
    return hasher.hexdigest()
