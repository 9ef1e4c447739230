"""Directories: inodes that hold dirfrags and per-directory load counters."""

from __future__ import annotations

from typing import Iterator, Optional

from .. import fastpath
from .counters import LoadCounters
from .dirfrag import _AUTH_EPOCH, DirFrag, FragId, bump_auth_epoch, name_hash
from .inode import Inode

#: Paper §4.1: "When the directory reaches 50,000 directory entries, it is
#: fragmented (the first iteration fragments into 2^3 = 8 dirfrags)".
DEFAULT_SPLIT_SIZE = 50_000
DEFAULT_SPLIT_BITS = 3


class Directory:
    """A directory: entries partitioned into dirfrags, plus counters.

    Authority (which MDS serves this directory) is inherited from the parent
    unless explicitly set -- explicitly-set directories are the *subtree
    boundaries* of dynamic subtree partitioning.
    """

    def __init__(self, inode: Inode, parent: Optional["Directory"],
                 half_life: float = 5.0,
                 split_size: int = DEFAULT_SPLIT_SIZE,
                 split_bits: int = DEFAULT_SPLIT_BITS) -> None:
        if not inode.is_dir:
            raise ValueError("directory payload requires a directory inode")
        self.inode = inode
        self.parent = parent
        self.half_life = half_life
        self.split_size = split_size
        self.split_bits = split_bits
        self.frags: dict[FragId, DirFrag] = {}
        root_frag = FragId(0, 0)
        self.frags[root_frag] = DirFrag(self, root_frag, half_life)
        self.counters = LoadCounters(half_life=half_life)
        self._auth: Optional[int] = None
        self.subdirs: dict[str, "Directory"] = {}
        #: rank -> last time that rank served an op in this subtree; ranks
        #: recently active under a directory participate in its coherency
        #: protocol and keep their replicas fresh.
        self.server_activity: dict[int, float] = {}
        # Derived-view caches.  The auth-keyed ones hold (epoch, value) and
        # go stale whenever the global authority epoch moves; the path
        # cache is invalidated explicitly on rename.
        self._path_cache: Optional[str] = None
        self._auth_cache: Optional[tuple[int, int]] = None
        self._frag_map_cache = None
        self._spread_cache: Optional[tuple[int, float]] = None
        self._frag_lookup_cache = None

    # -- identity ------------------------------------------------------
    @property
    def name(self) -> str:
        return self.inode.name

    def path(self) -> str:
        if self.parent is None:
            return "/"
        cached = self._path_cache
        if cached is not None and fastpath.ENABLED:
            return cached
        parent_path = self.parent.path()
        path = parent_path + self.name if parent_path == "/" \
            else f"{parent_path}/{self.name}"
        self._path_cache = path
        return path

    def invalidate_path_cache(self) -> None:
        """Drop cached paths for this directory and everything below it
        (a rename moved or renamed the subtree)."""
        self._path_cache = None
        for child in self.subdirs.values():
            child.invalidate_path_cache()

    def depth(self) -> int:
        node, depth = self, 0
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    # -- authority ------------------------------------------------------
    @property
    def explicit_auth(self) -> Optional[int]:
        return self._auth

    def set_auth(self, mds: Optional[int]) -> None:
        """Make this directory a subtree boundary owned by *mds*
        (or remove the boundary with None)."""
        if mds is None and self.parent is None:
            raise ValueError("the root directory must have an explicit auth")
        self._auth = mds
        bump_auth_epoch()

    def authority(self) -> int:
        if fastpath.ENABLED:
            cached = self._auth_cache
            if cached is not None and cached[0] == _AUTH_EPOCH[0]:
                return cached[1]
        node: Optional[Directory] = self
        while node is not None:
            auth = node._auth
            if auth is not None:
                self._auth_cache = (_AUTH_EPOCH[0], auth)
                return auth
            node = node.parent
        raise RuntimeError(f"no authority anywhere above {self.path()!r}")

    def is_subtree_root(self) -> bool:
        return self._auth is not None

    def clear_descendant_auth(self) -> None:
        """Drop explicit auth below this directory so the whole subtree
        inherits this directory's authority (called after a subtree
        migration)."""
        bump_auth_epoch()
        for child in self.subdirs.values():
            child._auth = None
            child.clear_descendant_auth()
        for frag in self.frags.values():
            frag.set_auth(None)

    # -- dirfrags ------------------------------------------------------
    def frag_map(self) -> tuple[tuple[int, int, int], ...]:
        """``((bits, value, authority), ...)`` over this directory's frags
        in insertion order -- what replies carry back to clients."""
        epoch = _AUTH_EPOCH[0]
        if fastpath.ENABLED:
            cached = self._frag_map_cache
            if cached is not None and cached[0] == epoch:
                return cached[1]
        frag_map = tuple(
            (frag.frag_id.bits, frag.frag_id.value, frag.authority())
            for frag in self.frags.values()
        )
        self._frag_map_cache = (epoch, frag_map)
        return frag_map

    def effective_spread(self) -> float:
        """Effective number of ranks sharing this directory's dirfrags.

        The inverse participation ratio of per-rank frag shares: 1.0 when
        one rank owns everything, m when m ranks hold equal shares, and in
        between for skewed spreads (4/2/1/1 -> ~2.9).
        """
        epoch = _AUTH_EPOCH[0]
        if fastpath.ENABLED:
            cached = self._spread_cache
            if cached is not None and cached[0] == epoch:
                return cached[1]
        counts: dict[int, int] = {}
        total = 0
        for frag in self.frags.values():
            rank = frag.authority()
            counts[rank] = counts.get(rank, 0) + 1
            total += 1
        if total == 0 or len(counts) <= 1:
            spread = 1.0
        else:
            sum_squares = sum((n / total) ** 2 for n in counts.values())
            spread = 1.0 / sum_squares
        self._spread_cache = (epoch, spread)
        return spread

    def frag_for_name(self, name: str) -> DirFrag:
        frags = self.frags
        if fastpath.ENABLED:
            # The single-frag case (no fragmentation yet) needs no hash at
            # all; uniformly-split directories resolve with one masked
            # dict lookup instead of a linear scan.
            epoch = _AUTH_EPOCH[0]
            cached = self._frag_lookup_cache
            if cached is None or cached[0] != epoch:
                cached = self._build_frag_lookup(epoch)
            kind = cached[1]
            if kind == 1:
                return cached[2]
            if kind == 2:
                frag = cached[2].get(name_hash(name) & cached[3])
                if frag is not None:
                    return frag
        hashed = name_hash(name)
        for frag in frags.values():
            if frag.frag_id.contains(hashed):
                return frag
        raise RuntimeError(  # pragma: no cover - frags always cover the space
            f"no frag covers {name!r} in {self.path()!r}"
        )

    def _build_frag_lookup(self, epoch: int):
        frags = self.frags
        if len(frags) == 1:
            frag = next(iter(frags.values()))
            if frag.frag_id.bits == 0:
                cached = (epoch, 1, frag)
            else:  # pragma: no cover - splits always leave >= 2 frags
                cached = (epoch, 3)
        else:
            all_bits = {frag.frag_id.bits for frag in frags.values()}
            if len(all_bits) == 1:
                bits = all_bits.pop()
                cached = (epoch, 2,
                          {frag.frag_id.value: frag
                           for frag in frags.values()},
                          (1 << bits) - 1)
            else:
                cached = (epoch, 3)  # mixed depths: fall back to the scan
        self._frag_lookup_cache = cached
        return cached

    def entry_count(self) -> int:
        return sum(len(frag) for frag in self.frags.values())

    def needs_fragmentation(self) -> bool:
        return (len(self.frags) == 1
                and self.entry_count() >= self.split_size)

    def fragment(self, frag: DirFrag | None = None,
                 extra_bits: int | None = None,
                 now: float = 0.0) -> list[DirFrag]:
        """Split *frag* (default: the largest) into 2^extra_bits children.

        Entries and popularity are redistributed to the children (as of
        time *now*, so decay bookkeeping stays correct); each child
        initially inherits the parent frag's explicit auth.
        """
        if extra_bits is None:
            extra_bits = self.split_bits
        if frag is None:
            frag = max(self.frags.values(), key=len)
        if self.frags.get(frag.frag_id) is not frag:
            raise ValueError("frag does not belong to this directory")
        children: list[DirFrag] = []
        now_entries = list(frag.entries.values())
        child_ids = frag.frag_id.split(extra_bits)
        del self.frags[frag.frag_id]
        for child_id in child_ids:
            child = DirFrag(self, child_id, self.half_life)
            child.set_auth(frag.explicit_auth)
            self.frags[child_id] = child
            children.append(child)
        for inode in now_entries:
            hashed = name_hash(inode.name)
            for child in children:
                if child.frag_id.contains(hashed):
                    child.entries[inode.name] = inode
                    break
        # Popularity splits proportionally to the entries each child got.
        total = max(1, len(now_entries))
        for child in children:
            child.counters.absorb(frag.counters, now=now,
                                  fraction=len(child) / total)
        return children

    # -- entries -------------------------------------------------------
    # Each entry op takes the dirfrag the name routes to when the caller
    # already resolved it (``frag_for_name`` at the current auth epoch);
    # without one the name is hashed here.
    def lookup(self, name: str,
               frag: Optional[DirFrag] = None) -> Optional[Inode]:
        if frag is None:
            frag = self.frag_for_name(name)
        return frag.entries.get(name)

    def link(self, inode: Inode, frag: Optional[DirFrag] = None) -> None:
        """Add *inode* as an entry of this directory."""
        name = inode.name
        if frag is None:
            frag = self.frag_for_name(name)
        if name in frag.entries:
            raise FileExistsError(f"{self.path()}/{name} exists")
        inode.parent = self
        frag.entries[name] = inode

    def unlink(self, name: str, frag: Optional[DirFrag] = None) -> Inode:
        if frag is None:
            frag = self.frag_for_name(name)
        if name not in frag.entries:
            raise FileNotFoundError(f"{self.path()}/{name}")
        inode = frag.remove(name)
        self.subdirs.pop(name, None)
        return inode

    def readdir(self) -> list[Inode]:
        entries: list[Inode] = []
        for frag in self.frags.values():
            entries.extend(frag.entries.values())
        return entries

    # -- traversal ------------------------------------------------------
    def walk(self) -> Iterator["Directory"]:
        """This directory and all descendants, depth-first."""
        yield self
        for child in self.subdirs.values():
            yield from child.walk()

    def ancestors(self) -> Iterator["Directory"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Directory({self.path()!r}, {len(self.frags)} frags, "
                f"{self.entry_count()} entries)")
