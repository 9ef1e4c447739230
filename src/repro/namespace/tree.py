"""The hierarchical namespace: a tree of directories and files.

The namespace is shared state kept "in the collective memory of the MDS
cluster" (paper §2).  The simulator keeps one authoritative tree; which MDS
is allowed to serve which part of it is expressed through subtree/dirfrag
authority, and the MDS layer charges forwarding costs when a request lands
on the wrong rank.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional

from .. import fastpath
from .counters import DEFAULT_HALF_LIFE, _MIN_DECAY_RATIO
from .directory import DEFAULT_SPLIT_BITS, DEFAULT_SPLIT_SIZE, Directory
from .dirfrag import DirFrag
from .inode import Inode

#: ``(parent directory, leaf name, dirfrag)`` a request routes to.
Route = tuple[Directory, str, Optional[DirFrag]]


def split_path(path: str) -> tuple[str, ...]:
    """Normalize ``/a//b/`` -> ``('a', 'b')``."""
    return tuple(part for part in path.split("/") if part)


def split_parent(path: str) -> tuple[str, str]:
    """``(parent directory, leaf name)`` of *path*; ``("/", "")`` for the root.

    The parent is absolute and normalized (``//a//b/`` -> ``("/a", "b")``).
    A path already in normal form (``/a/b``) splits with one ``rpartition``;
    anything else goes through :func:`split_path`.
    """
    if path[:1] == "/" and path[-1:] != "/" and "//" not in path:
        head, _sep, leaf = path.rpartition("/")
        return head or "/", leaf
    parts = split_path(path)
    if not parts:
        return "/", ""
    return "/" + "/".join(parts[:-1]), parts[-1]


class Namespace:
    """The full file-system tree plus authority bookkeeping."""

    def __init__(self, half_life: float = DEFAULT_HALF_LIFE,
                 split_size: int = DEFAULT_SPLIT_SIZE,
                 split_bits: int = DEFAULT_SPLIT_BITS,
                 root_auth: int = 0) -> None:
        self.half_life = half_life
        self.split_size = split_size
        self.split_bits = split_bits
        # Per-namespace inode numbering keeps runs reproducible: object
        # names derived from inos (and hence CRUSH placement) must not
        # depend on what other namespaces existed in the process.
        import itertools
        self._ino_counter = itertools.count(2)
        root_inode = Inode(name="", is_dir=True, mode=0o755, ino=1)
        self.root = Directory(root_inode, parent=None, half_life=half_life,
                              split_size=split_size, split_bits=split_bits)
        self.root.set_auth(root_auth)
        self.inode_count = 1
        self.dir_count = 1
        # Path -> Directory memo, flushed whenever the directory tree's
        # shape changes (mkdir / dir unlink / rename).
        self._dir_cache: dict[str, Directory] = {}
        self._dir_cache_epoch = 0
        #: Bumped whenever the directory tree's shape changes (mkdir, dir
        #: unlink, rename): a path resolved at one tree epoch resolves to
        #: the same Directory for as long as the epoch holds.
        self.tree_epoch = 0

    def _bump_tree_epoch(self) -> None:
        self.tree_epoch += 1

    # -- resolution ------------------------------------------------------
    def resolve_dir(self, path: str) -> Directory:
        """Resolve *path* to a Directory; raises FileNotFoundError/NotADirectoryError."""
        if fastpath.ENABLED:
            cache = self._dir_cache
            if self._dir_cache_epoch != self.tree_epoch:
                cache.clear()
                self._dir_cache_epoch = self.tree_epoch
            node = cache.get(path)
            if node is not None:
                return node
        node = self.root
        for part in split_path(path):
            child = node.subdirs.get(part)
            if child is None:
                entry = node.lookup(part)
                if entry is None:
                    raise FileNotFoundError(f"{path!r} (missing {part!r})")
                raise NotADirectoryError(f"{path!r} ({part!r} is a file)")
            node = child
        if fastpath.ENABLED:
            self._dir_cache[path] = node
        return node

    def resolve_entry(self, path: str) -> Inode:
        """Resolve *path* to any inode (file or directory)."""
        dir_path, leaf = split_parent(path)
        if not leaf:
            return self.root.inode
        entry = self.resolve_dir(dir_path).lookup(leaf)
        if entry is None:
            raise FileNotFoundError(path)
        return entry

    def parent_of(self, path: str) -> tuple[Directory, str]:
        """The directory containing *path* and the leaf name."""
        dir_path, leaf = split_parent(path)
        if not leaf:
            raise ValueError("the root has no parent")
        return self.resolve_dir(dir_path), leaf

    def _target(self, path: str, route: Optional[Route]) -> Route:
        """``(parent, leaf, frag)`` for a mutation of *path*: the carried
        *route* when the caller already resolved it, else resolved here
        (frag None: the directory picks it)."""
        if route is not None:
            return route
        parent, name = self.parent_of(path)
        return parent, name, None

    def exists(self, path: str) -> bool:
        try:
            self.resolve_entry(path)
            return True
        except (FileNotFoundError, NotADirectoryError):
            return False

    # -- mutation ---------------------------------------------------------
    def mkdir(self, path: str, now: float = 0.0, mode: int = 0o755, *,
              route: Optional[Route] = None) -> Directory:
        """Create directory *path*.  *route* is its ``(parent, leaf, frag)``
        when the caller already resolved it (as in :meth:`create`)."""
        parent, name, frag = self._target(path, route)
        inode = Inode(name=name, is_dir=True, mode=mode, ctime=now,
                      mtime=now, atime=now, ino=next(self._ino_counter))
        directory = Directory(inode, parent, half_life=self.half_life,
                              split_size=self.split_size,
                              split_bits=self.split_bits)
        parent.link(inode, frag)
        parent.subdirs[name] = directory
        self.inode_count += 1
        self.dir_count += 1
        self._bump_tree_epoch()
        return directory

    def mkdirs(self, path: str, now: float = 0.0) -> Directory:
        """Create all missing components of *path* (like ``mkdir -p``)."""
        node = self.root
        accumulated: list[str] = []
        for part in split_path(path):
            accumulated.append(part)
            child = node.subdirs.get(part)
            if child is None:
                child = self.mkdir("/".join(accumulated), now=now)
            node = child
        return node

    def create(self, path: str, now: float = 0.0, mode: int = 0o644,
               size: int = 0, *, route: Optional[Route] = None) -> Inode:
        """Create file *path*.

        *route* is ``(parent, leaf, frag)`` already resolved for *path* at
        the current tree and authority epochs (an MDS carries it with the
        request); without it the path is split and resolved here.
        """
        parent, name, frag = self._target(path, route)
        inode = Inode(name=name, is_dir=False, mode=mode, size=size,
                      ctime=now, mtime=now, atime=now,
                      ino=next(self._ino_counter))
        parent.link(inode, frag)
        self.inode_count += 1
        return inode

    def unlink(self, path: str, now: float = 0.0, *,
               route: Optional[Route] = None) -> Inode:
        parent, name, frag = self._target(path, route)
        inode = parent.unlink(name, frag)
        self.inode_count -= 1
        if inode.is_dir:
            self.dir_count -= 1
            self._bump_tree_epoch()
        return inode

    def rename(self, src: str, dst: str, now: float = 0.0) -> Inode:
        """Move *src* to *dst* (both leaf paths); returns the moved inode."""
        src_parent, src_name = self.parent_of(src)
        dst_parent, dst_name = self.parent_of(dst)
        inode = src_parent.lookup(src_name)
        if inode is None:
            raise FileNotFoundError(src)
        if dst_parent.lookup(dst_name) is not None:
            raise FileExistsError(dst)
        if inode.is_dir:
            # Moving a directory under itself would corrupt the tree.
            moving = src_parent.subdirs[src_name]
            node: Directory | None = dst_parent
            while node is not None:
                if node is moving:
                    raise ValueError(f"cannot move {src!r} under itself")
                node = node.parent
        directory = src_parent.subdirs.get(src_name)
        src_parent.unlink(src_name)
        inode.name = dst_name
        inode.touch(now, write=True)
        dst_parent.link(inode)
        if directory is not None:
            directory.parent = dst_parent
            dst_parent.subdirs[dst_name] = directory
            directory.invalidate_path_cache()
            self._bump_tree_epoch()
        return inode

    # -- accounting ------------------------------------------------------
    def record_hit(self, directory: Directory, name: Optional[str],
                   kind: str, now: float, amount: float = 1.0,
                   frag: Optional[DirFrag] = None) -> DirFrag:
        """Charge an op against a dirfrag and every ancestor directory.

        Paper §2: counters "are stored in the directories and are updated by
        the MDS whenever a namespace operation hits that directory or any of
        its children."  *frag* is the dirfrag *name* routes to when the
        caller already knows it.
        """
        if frag is None:
            frag = (directory.frag_for_name(name) if name is not None
                    else next(iter(directory.frags.values())))
        # LoadCounters.hit inlined over frag + the whole ancestor chain:
        # this is the single hottest accounting loop in the simulator
        # (3+ hits per op).  The arithmetic matches DecayCounter exactly.
        target = frag
        node = directory
        while target is not None:
            counter = target.counters.counters.get(kind)
            if counter is None:
                raise KeyError(f"unknown op kind {kind!r}")
            last = counter._last
            if now > last:
                value = counter._value
                if value != 0.0:
                    ratio = (now - last) / counter.half_life
                    if ratio >= _MIN_DECAY_RATIO:
                        value *= math.pow(0.5, ratio)
                        if value < 1e-12:
                            value = 0.0
                        counter._value = value
                counter._last = now
            counter._value += amount
            target, node = node, (node.parent if node is not None else None)
        return frag

    # -- authority queries ---------------------------------------------------
    def subtree_roots(self, mds: int | None = None) -> list[Directory]:
        """Directories that are explicit subtree boundaries
        (optionally only those owned by *mds*)."""
        return [
            directory for directory in self.root.walk()
            if directory.is_subtree_root()
            and (mds is None or directory.explicit_auth == mds)
        ]

    def frags_owned_by(self, mds: int) -> Iterator[DirFrag]:
        """All dirfrags whose resolved authority is *mds*."""
        for directory in self.root.walk():
            for frag in directory.frags.values():
                if frag.authority() == mds:
                    yield frag

    def authority_for_path(self, path: str) -> int:
        """The MDS serving the *containing dirfrag* of *path*."""
        dir_path, leaf = split_parent(path)
        if not leaf:
            return self.root.authority()
        parent = self.resolve_dir(dir_path)
        return parent.frag_for_name(leaf).authority()

    # -- load views ------------------------------------------------------
    def metadata_load(self, mds: int, metaload: Callable[[dict], float],
                      now: float) -> float:
        """Sum of ``metaload(frag counters)`` over frags owned by *mds*."""
        return sum(
            metaload(frag.load_snapshot(now))
            for frag in self.frags_owned_by(mds)
        )

    def heat_map(self, now: float,
                 metaload: Callable[[dict], float] | None = None,
                 max_depth: int | None = None) -> dict[str, float]:
        """Per-directory heat (Fig 1): decayed load of each directory."""
        if metaload is None:
            def metaload(snapshot: dict) -> float:
                return snapshot["IRD"] + snapshot["IWR"]
        heat: dict[str, float] = {}
        for directory in self.root.walk():
            if max_depth is not None and directory.depth() > max_depth:
                continue
            heat[directory.path()] = metaload(directory.counters.snapshot(now))
        return heat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Namespace({self.inode_count} inodes, "
                f"{self.dir_count} dirs)")
