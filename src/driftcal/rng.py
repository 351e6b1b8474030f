"""Reproducible random-number streams.

A lockstep ensemble run draws per-step arrays from one ensemble stream, a
numpy Generator built from a (seed, tag) pair.  Identical pairs reproduce
identical draw sequences bit-exactly, across runs and platforms (PCG64 is
stable), so a run is reproducible for a fixed (seed, ensemble size, step
count).
"""
from __future__ import annotations

from numpy.random import Generator, PCG64, SeedSequence


def ensemble_generator(seed: int, tag: int = 0) -> Generator:
    """Single stream for a lockstep-vectorized ensemble run.

    ``tag`` separates independent ensembles (e.g. points of a parameter
    sweep) sharing one master seed.
    """
    return Generator(PCG64(SeedSequence(seed, spawn_key=(0x5EED, tag))))
