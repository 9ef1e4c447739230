"""Content-addressed result cache for experiment grids.

Entries are keyed by :func:`repro.perf.fingerprint.cell_fingerprint`
digests, so a hit is a proof that re-running the cell would reproduce the
stored bytes: the key covers the simulator sources, interpreter/numpy
versions, the resolved config, the workload, the policy *text* and the
lifecycle arms.  Editing any of those -- including one Lua line inside a
policy -- changes the key and forces a cold run.

Storage is one file per grid cell under a flat directory (default
``~/.cache/mantle-sim``, override with ``REPRO_CACHE_DIR``): ``<key>.pkl``
holds the sha256 of the payload followed by the pickled
:class:`~repro.cluster.SimReport`.  An entry that is empty, truncated or
bit-flipped fails the checksum (or the unpickle) and counts as a miss:
it is unlinked and the cell re-runs.

Writes are atomic (temp file + ``os.replace``) so a crashed or killed run
never leaves a torn entry, and concurrent grids at worst both compute the
same cell and race to an identical ``replace``.

``REPRO_NO_CACHE=1`` (or ``--no-cache`` on the CLI) disables lookups and
stores entirely; ``mantle-sim cache stats|clear`` inspects and resets the
store.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_DISABLE = "REPRO_NO_CACHE"
_SUFFIX = ".pkl"
_DIGEST_BYTES = hashlib.sha256().digest_size


def cache_disabled() -> bool:
    """True when the environment asks for cold runs (REPRO_NO_CACHE=1)."""
    return os.environ.get(_ENV_DISABLE, "") == "1"


def default_cache_dir() -> Path:
    override = os.environ.get(_ENV_DIR, "")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "mantle-sim"


class ResultCache:
    """A flat content-addressed store with session hit/miss counters."""

    def __init__(self, root: Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys are hex digests, got {key!r}")
        return self.root / f"{key}{_SUFFIX}"

    def get(self, key: str) -> Any | None:
        """The stored value, or None on a miss (absent or corrupt)."""
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        body = memoryview(data)[_DIGEST_BYTES:]
        try:
            if hashlib.sha256(body).digest() != data[:_DIGEST_BYTES]:
                raise ValueError("checksum mismatch")
            value = pickle.loads(body)
        except Exception:  # noqa: BLE001 - any bad entry is just a miss
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._path(key)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(hashlib.sha256(body).digest())
                handle.write(body)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance -----------------------------------------------------
    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.iterdir() if p.suffix == _SUFFIX)

    def stats(self) -> dict[str, Any]:
        entries = self.entries()
        return {
            "dir": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def open_cache(enabled: bool = True,
               root: Path | None = None) -> ResultCache | None:
    """The cache the CLI/harness should use, or None when disabled.

    *enabled* is the caller-level switch (``--no-cache``); the
    ``REPRO_NO_CACHE`` environment override wins regardless.
    """
    if not enabled or cache_disabled():
        return None
    return ResultCache(root)
