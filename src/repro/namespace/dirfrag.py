"""Directory fragments (dirfrags).

A dirfrag is a partition of a single directory's entries, selected by the
low bits of a hash of the entry name -- the same mechanism GIGA+ uses and
the unit CephFS's balancer ships between MDS ranks when a single directory
is hot (paper §2, "Partitioning the Namespace").
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Iterator, Optional

from .counters import LoadCounters
from .inode import Inode

if TYPE_CHECKING:  # pragma: no cover
    from .directory import Directory

#: Global authority epoch: bumped on every explicit-auth change (subtree
#: pins, migrations, fragmentation).  Derived authority views -- resolved
#: authority, frag maps, effective spread -- are cached per directory and
#: keyed on this epoch, so any auth change anywhere invalidates them all
#: at once.  Changes are rare (migration events) while reads run on every
#: request, which is exactly the trade a global epoch wants.
_AUTH_EPOCH = [0]


def bump_auth_epoch() -> None:
    _AUTH_EPOCH[0] += 1


def name_hash(name: str) -> int:
    """Stable 32-bit hash used for frag placement."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


class FragId:
    """Identifier of a dirfrag: (bits, value).

    The frag owns every entry whose ``name_hash & ((1 << bits) - 1)`` equals
    ``value``.  ``FragId(0, 0)`` is the whole directory.
    """

    __slots__ = ("bits", "value")

    def __init__(self, bits: int = 0, value: int = 0) -> None:
        if bits < 0 or bits > 24:
            raise ValueError(f"frag bits out of range: {bits}")
        if value >= (1 << bits):
            raise ValueError(f"frag value {value} does not fit in {bits} bits")
        self.bits = bits
        self.value = value

    def contains(self, hashed: int) -> bool:
        return (hashed & ((1 << self.bits) - 1)) == self.value

    def split(self, extra_bits: int) -> list["FragId"]:
        """Child frag ids after splitting by *extra_bits* more bits."""
        if extra_bits < 1:
            raise ValueError("must split by at least one bit")
        return [
            FragId(self.bits + extra_bits, self.value | (i << self.bits))
            for i in range(1 << extra_bits)
        ]

    def is_ancestor_of(self, other: "FragId") -> bool:
        """True if *other* was produced by splitting this frag (or equals it)."""
        if other.bits < self.bits:
            return False
        return (other.value & ((1 << self.bits) - 1)) == self.value

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FragId)
                and self.bits == other.bits and self.value == other.value)

    def __hash__(self) -> int:
        return hash((self.bits, self.value))

    def __repr__(self) -> str:
        return f"{self.value:x}*{self.bits}"


class DirFrag:
    """One fragment of a directory: entries plus decayed load counters."""

    __slots__ = ("directory", "frag_id", "entries", "counters", "_auth",
                 "frozen")

    def __init__(self, directory: "Directory", frag_id: FragId,
                 half_life: float) -> None:
        self.directory = directory
        self.frag_id = frag_id
        self.entries: dict[str, Inode] = {}
        self.counters = LoadCounters(half_life=half_life)
        self._auth: Optional[int] = None  # None -> inherit directory auth
        self.frozen = False  # True while being migrated (two-phase commit)

    # -- authority ------------------------------------------------------
    @property
    def explicit_auth(self) -> Optional[int]:
        return self._auth

    def set_auth(self, mds: Optional[int]) -> None:
        self._auth = mds
        bump_auth_epoch()

    def authority(self) -> int:
        """The MDS rank serving this frag (inheriting from the directory)."""
        auth = self._auth
        if auth is not None:
            return auth
        return self.directory.authority()

    # -- entries ------------------------------------------------------------
    def contains_name(self, name: str) -> bool:
        return self.frag_id.contains(name_hash(name))

    def add(self, inode: Inode) -> None:
        if not self.contains_name(inode.name):
            raise ValueError(
                f"{inode.name!r} does not hash into frag {self.frag_id!r}"
            )
        self.entries[inode.name] = inode

    def remove(self, name: str) -> Inode:
        return self.entries.pop(name)

    def get(self, name: str) -> Optional[Inode]:
        return self.entries.get(name)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Inode]:
        return iter(self.entries.values())

    # -- load -------------------------------------------------------------
    def record(self, kind: str, now: float, amount: float = 1.0) -> None:
        self.counters.hit(kind, now, amount)

    def load_snapshot(self, now: float) -> dict[str, float]:
        return self.counters.snapshot(now)

    def path(self) -> str:
        return f"{self.directory.path()}#{self.frag_id!r}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DirFrag({self.directory.path()!r}, {self.frag_id!r}, "
                f"{len(self.entries)} entries)")
