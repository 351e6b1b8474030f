"""Reproducible random-number streams.

Every stochastic component draws from a numpy Generator built from a
(seed, stream_id) pair.  Identical pairs reproduce identical draw sequences
bit-exactly, across runs and platforms (PCG64 is stable).

Lockstep ensemble runs instead draw per-step arrays from a single ensemble
stream; those runs are reproducible for a fixed (seed, ensemble size, step
count) but are not shot-for-shot identical to runs that give each
trajectory its own ``RngStream``.
"""
from __future__ import annotations

from dataclasses import dataclass

from numpy.random import Generator, PCG64, SeedSequence


@dataclass(frozen=True)
class RngStream:
    """Identifies one reproducible stream of random draws."""

    seed: int
    stream_id: int = 0

    def generator(self) -> Generator:
        return Generator(PCG64(SeedSequence(self.seed, spawn_key=(self.stream_id,))))


def ensemble_generator(seed: int, tag: int = 0) -> Generator:
    """Single stream for a lockstep-vectorized ensemble run.

    ``tag`` separates independent ensembles (e.g. points of a parameter
    sweep) sharing one master seed.
    """
    return Generator(PCG64(SeedSequence(seed, spawn_key=(0x5EED, tag))))
