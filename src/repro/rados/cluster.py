"""The RADOS cluster: OSDs + CRUSH placement + replication."""

from __future__ import annotations

from ..sim.engine import Completion, SimEngine
from ..sim.network import Network
from ..sim.rng import RngStreams, ServiceTime
from .crush import CrushMap
from .osd import Osd

#: The paper's testbed: 18 OSDs (3 per physical server), SSD journals.
DEFAULT_NUM_OSDS = 18
DEFAULT_REPLICAS = 3


class RadosCluster:
    """Striped, replicated object store the MDS journals into."""

    def __init__(self, engine: SimEngine, network: Network,
                 rngs: RngStreams,
                 num_osds: int = DEFAULT_NUM_OSDS,
                 replicas: int = DEFAULT_REPLICAS,
                 journal_service: ServiceTime | None = None,
                 disk_service: ServiceTime | None = None) -> None:
        self.engine = engine
        self.network = network
        self.crush = CrushMap(num_osds, replicas)
        journal_service = journal_service or ServiceTime(0.00008, cv=0.3)
        disk_service = disk_service or ServiceTime(0.0006, cv=0.5)
        self.osds = [
            Osd(engine, osd_id, rngs.stream(f"osd{osd_id}"),
                journal_service, disk_service)
            for osd_id in range(num_osds)
        ]
        self.objects: dict[str, int] = {}  # name -> size (content elided)
        #: Small-object payload store (omap-style) for state objects.
        self.payloads: dict[str, object] = {}

    # -- object operations --------------------------------------------------
    def write(self, obj: str, size: int) -> Completion:
        """Replicated write: completes when all replicas have journalled.

        Models Ceph's primary-copy replication: client->primary hop, primary
        fans out to replicas, ack when the slowest replica lands.
        """
        self.objects[obj] = size
        placement = self.crush.placement(obj)
        done = self.engine.completion()
        pending = len(placement)

        def one_done(_completion: Completion) -> None:
            nonlocal pending
            pending -= 1
            if pending == 0:
                # Ack travels back over the network.
                self.network.deliver(done.succeed, None)

        for osd_id in placement:
            self.osds[osd_id].write(obj, size).add_callback(one_done)
        return done

    def read(self, obj: str, size: int | None = None) -> Completion:
        """Read from the primary OSD; completes with the object size."""
        if size is None:
            size = self.objects.get(obj, 4096)
        primary = self.crush.placement(obj)[0]
        done = self.engine.completion()

        def on_read(_completion: Completion) -> None:
            self.network.deliver(done.succeed, size)

        self.osds[primary].read(obj, size).add_callback(on_read)
        return done

    def exists(self, obj: str) -> bool:
        return obj in self.objects

    # -- small typed objects (omap-style) ---------------------------------
    def put_payload(self, obj: str, value: object,
                    size: int = 64) -> Completion:
        """Replicated write of a small typed payload (e.g. balancer
        state); readable back with :meth:`get_payload`."""
        self.payloads[obj] = value
        return self.write(obj, size)

    def get_payload(self, obj: str, default: object = None) -> object:
        return self.payloads.get(obj, default)

    # -- stats ------------------------------------------------------------
    def total_writes(self) -> int:
        return sum(osd.writes for osd in self.osds)

    def total_reads(self) -> int:
        return sum(osd.reads for osd in self.osds)
