"""Metadata operation types exchanged between clients and MDS ranks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from ..namespace.tree import split_parent


class OpKind(str, Enum):
    """The namespace operations the simulated clients issue."""

    CREATE = "create"
    MKDIR = "mkdir"
    STAT = "stat"
    LOOKUP = "lookup"
    OPEN = "open"
    READDIR = "readdir"
    UNLINK = "unlink"
    RENAME = "rename"

    @property
    def is_write(self) -> bool:
        return IS_WRITE[self]

    @property
    def counter_kind(self) -> str:
        """Which decayed counter this op bumps (paper Table 2 metrics)."""
        return COUNTER_KIND[self]


#: Precomputed per-kind lookups; hot paths index these directly instead of
#: going through the property descriptors.
IS_WRITE = {
    kind: kind in (OpKind.CREATE, OpKind.MKDIR, OpKind.UNLINK, OpKind.RENAME)
    for kind in OpKind
}
COUNTER_KIND = {
    kind: ("IWR" if IS_WRITE[kind]
           else "READDIR" if kind is OpKind.READDIR else "IRD")
    for kind in OpKind
}


_REQ_IDS = itertools.count(1)


def split_request(kind: OpKind, path: str) -> tuple[str, str]:
    """``(directory, leaf)`` a request on *path* routes on.

    A READDIR targets the directory itself (leaf ``""``); every other op
    targets the leaf's parent directory, normalized and absolute
    (``("/", "")`` for the root itself).
    """
    if kind is OpKind.READDIR:
        return path.rstrip("/") or "/", ""
    return split_parent(path)


@dataclass(slots=True)
class MetaRequest:
    """One client metadata request as it travels through the cluster."""

    kind: OpKind
    path: str
    client_id: int
    req_id: int = field(default_factory=lambda: next(_REQ_IDS))
    #: Ranks that already handled (and forwarded) this request.
    hops: list[int] = field(default_factory=list)
    issued_at: float = 0.0
    payload: dict[str, Any] = field(default_factory=dict)
    #: ``split_request(kind, path)``, split once when the request is built;
    #: None until then (the MDS splits requests built without it).
    dir_path: Optional[str] = None
    leaf: str = ""
    #: The MDS's memoized resolution: ``(tree epoch, auth epoch, parent,
    #: leaf, frag)``, reused while both epochs hold (see
    #: ``MdsServer._resolve``).
    resolution: Optional[tuple] = None

    @property
    def forwards(self) -> int:
        return max(0, len(self.hops) - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetaRequest({self.kind.value}, {self.path!r}, "
                f"client={self.client_id}, hops={self.hops})")


@dataclass(slots=True)
class MetaReply:
    """Reply delivered back to the client.

    Real CephFS replies carry the directory's fragtree and the MDS map so
    clients can route follow-up requests directly; ``dir_path``/``frag_map``
    model that (``frag_map`` is a tuple of ``(bits, value, rank)``).
    """

    req_id: int
    kind: OpKind
    path: str
    served_by: int
    forwards: int
    latency: float
    result: Optional[Any] = None
    error: Optional[str] = None
    #: Destination path echoed back for renames (trace replay needs it).
    dst: Optional[str] = None
    dir_path: Optional[str] = None
    frag_map: Optional[tuple[tuple[int, int, int], ...]] = None

    @property
    def ok(self) -> bool:
        return self.error is None
