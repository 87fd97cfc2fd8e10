"""Keyed random substreams.

Every stochastic component draws from a generator keyed by an explicit path
under one root seed: a filter's initial particles by (PHASE_INIT), each of
its steps by (PHASE_PREDICT, t), a trial's observations by (PHASE_OBSERVE,
scenario, repeat), the held-out truths by (PHASE_SCENARIO) and a generated
corpus by (PHASE_DATA). Streams therefore do not depend on evaluation order
or on how many other components exist, which is what makes runs reproducible
across worker counts. Within one filter step the draws come in a fixed order
(the dynamics noise of each populated class in ascending class order, then
the resampling draws), so filters that share a particle set also share their
noise.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import InvalidInputError

# Phase tags used as the first path component after any run-level prefix.
# Corpora, plans and runs are keyed on these numbers: keep them, and leave 3
# and 4 (the retired resampling phases) unused.
PHASE_INIT = 1
PHASE_PREDICT = 2
PHASE_OBSERVE = 5
PHASE_SCENARIO = 6
PHASE_DATA = 7


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """A SeedSequence as given, or made from a whole number >= 0; else InvalidInputError."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise InvalidInputError(f"seed must be a whole number >= 0 or a SeedSequence, "
                                f"got {seed!r}")
    return np.random.SeedSequence(int(seed))


def child_seed(seed, *path: int) -> np.random.SeedSequence:
    """Derive a child SeedSequence by appending `path` to the spawn key."""
    ss = as_seed_sequence(seed)
    key = tuple(int(p) for p in path)
    return np.random.SeedSequence(entropy=ss.entropy, spawn_key=tuple(ss.spawn_key) + key)


def substream(seed, *path: int) -> np.random.Generator:
    """A fresh Generator for the stream addressed by `path` under `seed`."""
    return np.random.default_rng(child_seed(seed, *path))
