"""Seeded random-number streams.

Every stochastic component (each MDS, each client, the network, each OSD)
draws from its own named substream so that adding a component or reordering
draws in one component never perturbs another -- the standard trick for
reproducible parallel-systems simulation.
"""

from __future__ import annotations

import numpy as np


class RngStreams:
    """A family of independent :class:`numpy.random.Generator` substreams.

    Streams are keyed by name; the same (seed, name) pair always yields the
    same stream, via SHA-style SeedSequence spawning keyed on the name hash.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the substream called *name*."""
        generator = self._streams.get(name)
        if generator is None:
            # Derive a child seed from the root seed and the stream name in a
            # stable, collision-resistant way.
            name_entropy = [ord(c) for c in name] or [0]
            sequence = np.random.SeedSequence(
                entropy=self.seed, spawn_key=tuple(name_entropy)
            )
            generator = np.random.default_rng(sequence)
            self._streams[name] = generator
        return generator

    def state(self) -> dict[str, dict]:
        """Snapshot every instantiated substream's bit-generator state.

        The returned mapping is plain data (stream name -> the numpy
        bit-generator state dict), so it can be hashed, compared or stored.
        Used by the warm-start equivalence tests to assert that a shared
        simulation prefix leaves every cell with identical RNG state, and
        by :func:`state_fingerprint` to summarize that state.
        """
        return {name: generator.bit_generator.state
                for name, generator in sorted(self._streams.items())}

    def set_state(self, state: dict[str, dict]) -> None:
        """Restore substream states captured by :meth:`state`.

        Streams not yet instantiated are created first (creation is
        deterministic in (seed, name), so this is always well-defined).
        """
        for name, bit_state in state.items():
            self.stream(name).bit_generator.state = bit_state

    def state_fingerprint(self) -> str:
        """A stable hex digest of :meth:`state` (order-independent)."""
        import hashlib
        import json

        payload = json.dumps(self.state(), sort_keys=True, default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()

    def spawn(self, name: str) -> "RngStreams":
        """A child family, independent of this one, for a subcomponent."""
        child = RngStreams(seed=self.seed)
        child._prefix = name  # type: ignore[attr-defined]
        # Implemented by prefixing stream names.
        original_stream = child.stream

        def prefixed(stream_name: str) -> np.random.Generator:
            return original_stream(f"{name}/{stream_name}")

        child.stream = prefixed  # type: ignore[method-assign]
        return child


class ServiceTime:
    """A service-time distribution: lognormal around a mean with given CV.

    Lognormal keeps samples positive and produces the heavy-ish tail real
    metadata services show.  ``cv`` (coefficient of variation) 0 gives a
    deterministic service time.
    """

    def __init__(self, mean: float, cv: float = 0.25) -> None:
        if mean <= 0:
            raise ValueError("mean service time must be positive")
        if cv < 0:
            raise ValueError("cv must be non-negative")
        self.mean = float(mean)
        self.cv = float(cv)
        if cv > 0:
            sigma2 = np.log(1.0 + cv * cv)
            self._mu = np.log(mean) - sigma2 / 2.0
            self._sigma = float(np.sqrt(sigma2))
        else:
            self._mu = np.log(mean)
            self._sigma = 0.0

    def sample(self, rng: np.random.Generator) -> float:
        if self._sigma == 0.0:
            return self.mean
        # A scalar draw is already a Python float.
        return rng.lognormal(self._mu, self._sigma)

    def scaled(self, factor: float) -> "ServiceTime":
        """A distribution with the mean scaled by *factor* (same CV)."""
        return ServiceTime(self.mean * factor, self.cv)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServiceTime(mean={self.mean:.6f}, cv={self.cv})"
