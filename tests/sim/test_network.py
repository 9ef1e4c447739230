"""Network latency model."""

import numpy as np
import pytest

from repro.sim.engine import SimEngine
from repro.sim.network import Network


def make_network(engine, base=0.001, jitter=0.0):
    return Network(engine, np.random.default_rng(0),
                   base_latency=base, jitter_cv=jitter)


class TestDelivery:
    def test_deliver_after_one_hop(self):
        engine = SimEngine()
        network = make_network(engine)
        times = []
        network.deliver(lambda: times.append(engine.now))
        engine.run()
        assert times == [pytest.approx(0.001)]

    def test_deliver_after_extra_delay(self):
        engine = SimEngine()
        network = make_network(engine)
        times = []
        network.deliver_after(0.5, lambda: times.append(engine.now))
        engine.run()
        assert times == [pytest.approx(0.501)]

    def test_messages_counted(self):
        engine = SimEngine()
        network = make_network(engine)
        for _ in range(3):
            network.deliver(lambda: None)
        assert network.messages_sent == 3

    def test_jitter_produces_spread(self):
        engine = SimEngine()
        network = make_network(engine, jitter=0.5)
        samples = [network.one_way() for _ in range(2000)]
        assert np.std(samples) > 0
        assert np.mean(samples) == pytest.approx(0.001, rel=0.05)

    def test_zero_jitter_deterministic(self):
        engine = SimEngine()
        network = make_network(engine, jitter=0.0)
        assert network.one_way() == network.one_way() == 0.001

    def test_request_response_roundtrip(self):
        engine = SimEngine()
        network = make_network(engine)

        def server(completion):
            completion.succeed("pong")

        def client():
            reply = yield network.request(server)
            return reply

        process = engine.process(client())
        assert engine.run_until_complete(process.completion) == "pong"

    def test_network_jitter_batching_preserves_draw_sequence(self):
        """Batched lognormal refills yield the exact scalar draw sequence."""
        network = Network(SimEngine(),
                          np.random.Generator(np.random.PCG64(123)))
        twin = np.random.Generator(np.random.PCG64(123))
        batched = [network.one_way() for _ in range(3000)]
        scalar = [float(twin.lognormal(network._mu, network._sigma))
                  for _ in range(3000)]
        assert batched == scalar
