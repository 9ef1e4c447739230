"""Hierarchical namespace substrate: inodes, directories, dirfrags, counters.

Implements CephFS's dynamic-subtree-partitioning data model: the namespace
is a tree of directories, each partitioned into dirfrags by a hash of the
entry name; authority over subtrees and individual dirfrags determines which
MDS rank serves which requests; per-dirfrag popularity counters with
exponential decay feed the balancer's load formulas.
"""

from .counters import (
    DEFAULT_HALF_LIFE,
    OP_KINDS,
    DecayCounter,
    LoadCounters,
)
from .directory import DEFAULT_SPLIT_BITS, DEFAULT_SPLIT_SIZE, Directory
from .dirfrag import DirFrag, FragId, name_hash
from .inode import Inode, reset_ino_counter
from .tree import Namespace, split_parent, split_path

__all__ = [
    "DEFAULT_HALF_LIFE",
    "DEFAULT_SPLIT_BITS",
    "DEFAULT_SPLIT_SIZE",
    "DecayCounter",
    "DirFrag",
    "Directory",
    "FragId",
    "Inode",
    "LoadCounters",
    "Namespace",
    "OP_KINDS",
    "name_hash",
    "reset_ino_counter",
    "split_parent",
    "split_path",
]
