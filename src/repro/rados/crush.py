"""CRUSH-like deterministic placement.

Real Ceph uses CRUSH to map objects to OSDs pseudo-randomly but
deterministically ("calculate placement instead of looking it up").  We
reproduce the property that matters to the metadata path: any node can
compute, without coordination, which OSDs store an object, with a stable
uniform spread and support for replication.
"""

from __future__ import annotations

import hashlib


def _hash64(key: str) -> int:
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class CrushMap:
    """Maps object names to an ordered set of distinct OSD ids."""

    def __init__(self, num_osds: int, replicas: int = 3) -> None:
        if num_osds < 1:
            raise ValueError("need at least one OSD")
        if replicas < 1:
            raise ValueError("need at least one replica")
        self.num_osds = num_osds
        self.replicas = min(replicas, num_osds)
        self._placements: dict[str, tuple[int, ...]] = {}

    def primary(self, obj: str) -> int:
        return _hash64(obj) % self.num_osds

    def placement(self, obj: str) -> tuple[int, ...]:
        """Ordered, distinct OSD ids for *obj* (primary first).

        Uses highest-random-weight (rendezvous) hashing, which is the
        textbook stand-in for straw-bucket CRUSH: stable under OSD count
        changes for all but the re-mapped objects.  A placement is a pure
        function of the name, so each name is hashed once and remembered.
        """
        placed = self._placements.get(obj)
        if placed is None:
            scored = sorted(
                range(self.num_osds),
                key=lambda osd: _hash64(f"{obj}/{osd}"),
                reverse=True,
            )
            placed = self._placements[obj] = tuple(scored[: self.replicas])
        return placed
