"""The compile workload: building a Linux-like source tree.

Paper Fig 1 computes per-directory heat while compiling the Linux source;
Figs 9 and 10 run 1-5 clients compiling in separate directories.  The job
has three phases with very different metadata behaviour:

* **untar** -- sequential creates sweeping across all directories ("high,
  sequential metadata load across directories");
* **compile** -- stats/opens of headers and sources plus ``.o`` creates,
  with hotspots concentrated in ``arch``, ``kernel``, ``fs`` and ``mm``
  (Fig 1) and steady traffic in ``include``;
* **link** -- a flash crowd of readdirs sweeping the whole tree (Fig 10:
  "the clients shift to linking, which overloads 1 MDS with readdirs").
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..clients.ops import CREATE, MKDIR, OPEN, READDIR, STAT
from ..namespace.tree import Namespace
from .base import Workload, WorkloadOp

#: (top-level dir, #subdirs, files per subdir, compile heat weight).
#: Shapes mirror the Linux tree the paper compiles; Fig 1 names arch,
#: kernel, fs and mm as the compile-phase hotspots.
SOURCE_TREE: tuple[tuple[str, int, int, float], ...] = (
    ("arch", 12, 14, 5.0),
    ("kernel", 4, 20, 8.0),
    ("fs", 14, 12, 4.0),
    ("mm", 2, 18, 9.0),
    ("include", 16, 22, 3.0),
    ("drivers", 24, 16, 0.7),
    ("net", 12, 10, 0.6),
    ("lib", 3, 16, 1.0),
    ("sound", 8, 10, 0.3),
    ("tools", 6, 8, 0.2),
    ("scripts", 3, 8, 0.5),
    ("Documentation", 10, 12, 0.05),
)


class CompileWorkload(Workload):
    """Each client untars, compiles and links its own source tree."""

    def __init__(self, num_clients: int, scale: float = 1.0,
                 base: str = "/src", seed: int = 0,
                 compile_passes: float = 1.0,
                 link_passes: int = 4) -> None:
        if num_clients < 1:
            raise ValueError("need at least one client")
        if scale <= 0:
            raise ValueError("scale must be positive")
        if link_passes < 1:
            raise ValueError("link_passes must be >= 1")
        self.num_clients = num_clients
        self.scale = scale
        self.base = base.rstrip("/") or "/src"
        self.seed = seed
        self.compile_passes = compile_passes
        #: How many readdir sweeps the link phase makes (the linker walks
        #: object directories repeatedly); drives the Fig 10 flash crowd.
        self.link_passes = link_passes

    # -- tree shape ------------------------------------------------------
    def tree_dirs(self) -> list[tuple[str, int, float]]:
        """[(relative dir, files in it, heat weight)] after scaling."""
        out: list[tuple[str, int, float]] = []
        for top, subdirs, files, weight in SOURCE_TREE:
            n_sub = max(1, int(round(subdirs * min(1.0, self.scale * 2))))
            n_files = max(1, int(round(files * self.scale)))
            for sub in range(n_sub):
                out.append((f"{top}/d{sub:02d}", n_files, weight))
        return out

    def client_root(self, client_id: int) -> str:
        return f"{self.base}/client{client_id}"

    def prepare(self, namespace: Namespace) -> None:
        namespace.mkdirs(self.base)

    def construction_signature(self) -> tuple:
        # Only the base directory is pre-built; the untar phase creates the
        # tree during the run (measured, as in the paper's compile job).
        return ("compile", self.base)

    def total_ops(self) -> int:
        dirs = self.tree_dirs()
        total_files = sum(files for _d, files, _w in dirs)
        untar = 1 + len(dirs) + len({d.split("/")[0] for d, _f, _w in dirs}) \
            + total_files
        compile_units = int(total_files * self.compile_passes)
        compile_ops = compile_units * 4  # 2 header stats + 1 open + 1 create
        link = len(dirs) * self.link_passes + 1
        return (untar + compile_ops + link) * self.num_clients

    # -- op streams ------------------------------------------------------
    def client_ops(self, client_id: int) -> Iterator[WorkloadOp]:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed,
                                   spawn_key=(client_id,))
        )
        root = self.client_root(client_id)
        dirs = self.tree_dirs()

        # Phase 1: untar -- a depth-first sweep of mkdirs and creates.
        yield (MKDIR, root)
        seen_tops: set[str] = set()
        source_files: list[tuple[str, float]] = []  # (path, weight)
        for rel, files, weight in dirs:
            top = rel.split("/")[0]
            if top not in seen_tops:
                seen_tops.add(top)
                yield (MKDIR, f"{root}/{top}")
            yield (MKDIR, f"{root}/{rel}")
            for index in range(files):
                path = f"{root}/{rel}/src{index:03d}.c"
                source_files.append((path, weight))
                yield (CREATE, path)

        # Phase 2: compile -- weighted hot-spot traffic.
        weights = np.asarray([w for _p, w in source_files], dtype=float)
        weights /= weights.sum()
        header_dirs = [rel for rel, _f, w in dirs if rel.startswith("include")]
        n_units = int(len(source_files) * self.compile_passes)
        order = rng.choice(len(source_files), size=n_units, p=weights)
        for unit in order:
            path, _weight = source_files[unit]
            directory = path.rsplit("/", 1)[0]
            # Header lookups (hot include/ traffic).
            for _ in range(2):
                hdir = header_dirs[int(rng.integers(len(header_dirs)))] \
                    if header_dirs else "include"
                yield (STAT,
                       f"{root}/{hdir}/src{int(rng.integers(4)):03d}.c")
            yield (OPEN, path)
            yield (CREATE, path.replace(".c", f".o{unit % 7}"))

        # Phase 3: link -- the readdir flash crowd (the linker sweeps the
        # object directories repeatedly).
        for _sweep in range(self.link_passes):
            for rel, _files, _weight in dirs:
                yield (READDIR, f"{root}/{rel}")
        yield (CREATE, f"{root}/vmlinux")
