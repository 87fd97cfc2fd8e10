"""Consistent stack of particle filters over a cluster tree.

One set of N weighted (leaf class, position) particles carries the estimate.
A node of the tree holds the particles whose leaf class lies under it, so
every level of the tree partitions the same N particles. Class probabilities
live on the whole tree and are kept consistent (children sum to their parent)
by rebuilding from whichever level an observation updated: masses are
recomputed from that level's particle weights, pushed down by proportional
scaling against the pre-observation snapshot, and pushed up by summation.

Fine observations reweight the particles by distance to the observed
position. Coarse observations name a class at some level; every particle
under a class alive there receives the same weight from the tree-class
distance to the observed class. Particles of a leaf class alive at that level
keep that weight; the others keep their own, rescaled by their leaf class's
probability ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .seeding import (PHASE_DEPLETE, PHASE_INIT, PHASE_PREDICT, PHASE_RESAMPLE,
                      as_seed_sequence, substream)

WEIGHT_EPS = 1e-9
# check_consistency: levels checked per tree, and the tolerance of its sums.
CONSISTENCY_LEVELS = 20
CONSISTENCY_ATOL = 1e-9


@dataclass(frozen=True)
class FineObservation:
    position: np.ndarray


@dataclass(frozen=True)
class CoarseObservation:
    class_id: int
    level: float


Observation = FineObservation | CoarseObservation


def bounded_log_weights(dists: np.ndarray) -> np.ndarray:
    """Monotone-decreasing, finite, non-negative weights from distances.

    -log((d + eps) / (dmax + eps)) over the update's candidates: the nearest
    candidate gets the largest weight, the farthest exactly zero. When all
    candidates are equidistant every weight is zero and the caller falls back
    to a uniform reset.
    """
    dists = np.asarray(dists, dtype=float)
    dmax = dists.max()
    return -np.log((dists + WEIGHT_EPS) / (dmax + WEIGHT_EPS))


def weighted_mean(positions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return (weights[:, None] * positions).sum(axis=0) / weights.sum()


def group_slices(keys: np.ndarray, k: int):
    """Particle indices grouped by key (0..k-1), in index order within a group.

    Returns (order, bounds): group g is order[bounds[g]:bounds[g + 1]].
    """
    order = np.argsort(keys, kind="stable")
    return order, np.searchsorted(keys[order], np.arange(k + 1))


def group_sums(values: np.ndarray, order: np.ndarray, bounds: np.ndarray) -> list[float]:
    """Per-group sums of `values`, each summed as one slice in particle order.

    This reproduces values[mask].sum() bit for bit. np.bincount and
    np.add.reduceat add in other orders and differ from it in the last bit.
    """
    v = values[order]
    return [float(v[a:b].sum()) if b > a else 0.0
            for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def class_masses(labels: np.ndarray, weights: np.ndarray, class_ids) -> dict[int, float]:
    """Normalized per-class weight sums over one particle set.

    Summation runs in sorted class order so independent filters sharing a
    particle set derive bit-identical masses.
    """
    ordered = sorted(int(c) for c in class_ids)
    sums = {c: float(weights[labels == c].sum()) for c in ordered}
    total = sum(sums.values())
    if total <= 0:
        raise InvalidInputError("all-zero weights: cannot derive class masses")
    return {c: s / total for c, s in sums.items()}


def advance_particles(positions: np.ndarray, labels: np.ndarray, class_ids: np.ndarray,
                      dynamics, seed, t: int) -> int:
    """Move every particle by its class's dynamics, in place.

    `class_ids` are the possible labels in ascending order. Only populated
    classes run, in that order, each on its particles in index order with the
    (PHASE_PREDICT, t, class) stream. Returns how many advances fell back to
    extrapolation.
    """
    order, bounds = group_slices(np.searchsorted(class_ids, labels), len(class_ids))
    extrapolated = 0
    for nid, a, b in zip(class_ids.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
        if a == b:
            continue
        idx = order[a:b]
        rng = substream(seed, PHASE_PREDICT, t, nid)
        new, flags = dynamics[nid].step_batch(positions[idx], rng)
        positions[idx] = new
        extrapolated += int(flags.sum())
    return extrapolated


def start_point_sampler(tree, trajectories):
    """Position sampler placing a particle at its class trajectory's start."""
    by_id = {t.id: t for t in trajectories}
    starts = {}
    for nid in tree.leaves():
        node = tree.nodes[nid]
        firsts = [by_id[m].points[0] for m in sorted(node.members)]
        starts[nid] = np.mean(firsts, axis=0)

    def sampler(class_id, rng):
        return starts[class_id].copy()

    return sampler


def split_counts(n: int, depletion: float) -> tuple[int, int]:
    """(weight-resampled, randomized) particle counts for one resampling."""
    n_random = int(round(n * depletion))
    return n - n_random, n_random


def check_observations(observations, dim: int, tree=None) -> tuple:
    """One step's observations as a tuple, each checked before any state changes.

    A fine position must be `dim` finite coordinates. Given a tree, a coarse
    observation must name a node alive at its level, which must be >= 0;
    without one (the flat filters ignore coarse evidence) it passes unchecked.
    """
    if isinstance(observations, (FineObservation, CoarseObservation)):
        observations = (observations,)
    observations = tuple(observations)
    for obs in observations:
        if isinstance(obs, FineObservation):
            try:
                pos = np.asarray(obs.position, dtype=float)
            except (TypeError, ValueError):
                pos = None
            if pos is None or pos.shape != (dim,) or not np.all(np.isfinite(pos)):
                raise InvalidInputError(
                    f"fine position must be {dim} finite coordinates, got {obs.position!r}")
        elif isinstance(obs, CoarseObservation):
            if tree is None:
                continue
            node = tree.nodes.get(obs.class_id)
            b = obs.level
            if node is None or not (b >= 0 and node.birth <= b < node.death):
                raise InvalidInputError(f"class {obs.class_id!r} is not alive at level {b!r}")
        else:
            raise InvalidInputError(f"unknown observation type {type(obs)!r}")
    return observations


class FilterStack:
    """Single-writer filter state machine over a cluster tree."""

    def __init__(self, tree, dynamics, class_prior: dict, position_sampler,
                 n_particles: int, depletion: float, seed):
        if n_particles < 1:
            raise InvalidInputError("need at least one particle")
        if not (0.0 <= depletion < 1.0):
            raise InvalidInputError("depletion fraction must be in [0, 1)")
        leaf_ids = tree.leaves()
        leaf_set = set(leaf_ids)
        for c in class_prior:
            if c not in leaf_set:
                raise InvalidInputError(f"prior assigns mass to non-leaf class {c}")
        self.tree = tree
        self.dynamics = dynamics
        self.n_particles = int(n_particles)
        self.depletion = float(depletion)
        self.seed = as_seed_sequence(seed)
        self._t = 0
        self._leaf_ids = np.asarray(leaf_ids, dtype=int)
        self.diagnostics = {"uniform_resets": 0, "extrapolated": 0}

        probs = np.array([class_prior.get(c, 0.0) for c in leaf_ids], dtype=float)
        if probs.sum() <= 0:
            raise InvalidInputError("prior has no mass on any leaf")
        probs = probs / probs.sum()

        rng = substream(self.seed, PHASE_INIT)
        self.leaf_labels = rng.choice(self._leaf_ids, size=self.n_particles, p=probs)
        self.leaf_positions = np.stack([
            np.asarray(position_sampler(int(c), rng), dtype=float) for c in self.leaf_labels
        ])
        self.leaf_weights = np.full(self.n_particles, 1.0 / self.n_particles)

        self._leaf_partition = tree.partition(leaf_ids)
        self.class_probs: dict[int, float] = {}
        self.prev_probs: dict[int, float] = {}
        self.rebuild_tree(self._leaf_partition, self.leaf_weights)
        self.prev_probs = self.class_probs

    # -- level bookkeeping ---------------------------------------------------

    @property
    def t(self) -> int:
        return self._t

    def _leaf_columns(self) -> np.ndarray:
        """Each particle's leaf class as a column of the tree's leaf tables."""
        return np.searchsorted(self._leaf_ids, self.leaf_labels)

    def _groups(self, part, cols: np.ndarray):
        """Per-particle class position in a partition, plus its group_slices."""
        cls = part.leaf_class[cols]
        return (cls, *group_slices(cls, len(part.ids)))

    # -- tree probability rebuild ----------------------------------------------

    def rebuild_tree(self, part, weights, order=None, bounds=None) -> None:
        """Recompute class probabilities from one level's particle weights.

        A class of the partition `part` gets the sum of `weights` over the
        particles under it (grouped by `order` and `bounds` when the caller
        has them); descendants scale proportionally against the pre-update
        snapshot (an exhausted parent spreads its new mass uniformly over its
        children); ancestors sum.
        """
        if order is None:
            _, order, bounds = self._groups(part, self._leaf_columns())
        sums = group_sums(weights, order, bounds)
        total = sum(sums)
        if not np.isfinite(total):
            raise InvalidInputError(f"updated level has a non-finite total weight ({total})")
        if total <= 0:
            raise InvalidInputError("updated level has zero total weight")
        prev = self.prev_probs
        out = {c: s / total for c, s in zip(part.ids, sums)}
        for nid, parent, n_children in part.down:
            value = out[parent]
            prev_parent = prev.get(parent, 0.0)
            if prev_parent > 0.0:
                out[nid] = prev.get(nid, 0.0) * value / prev_parent
            else:
                out[nid] = value / n_children
        for nid, children in part.up:
            out[nid] = sum(map(out.__getitem__, children))
        self.class_probs = out

    # -- prediction --------------------------------------------------------------

    def predict(self) -> None:
        """Advance every particle by its leaf class's dynamics."""
        self.diagnostics["extrapolated"] += advance_particles(
            self.leaf_positions, self.leaf_labels, self._leaf_ids, self.dynamics, self.seed,
            self._t)

    # -- observation updates ---------------------------------------------------

    def update(self, obs: Observation) -> None:
        """Check, then apply one observation to the current particles."""
        for o in check_observations(obs, self.leaf_positions.shape[1], self.tree):
            self._apply(o)

    def _apply(self, obs: Observation) -> None:
        if isinstance(obs, FineObservation):
            self._update_fine(np.asarray(obs.position, dtype=float))
        else:
            self._update_coarse(int(obs.class_id), float(obs.level))

    def _update_fine(self, xi: np.ndarray) -> None:
        d = np.sqrt(((self.leaf_positions - xi) ** 2).sum(axis=1))
        w = bounded_log_weights(d)
        s = w.sum()
        if s <= 0.0:
            w = np.full(self.n_particles, 1.0 / self.n_particles)
            self.diagnostics["uniform_resets"] += 1
        else:
            w = w / s
        self.leaf_weights = w
        self.rebuild_tree(self._leaf_partition, w)

    def _update_coarse(self, class_id: int, level_value: float) -> None:
        part = self.tree.partition(self.tree.alive_ids(level_value))
        values = bounded_log_weights(self.tree.lca_birth[part.rows, self.tree.row(class_id)])
        if values.sum() <= 0.0:
            values = np.full(len(part.ids), 1.0 / self.n_particles)
            self.diagnostics["uniform_resets"] += 1
        # Every particle takes the value of its class in the level.
        cols = self._leaf_columns()
        cls, order, bounds = self._groups(part, cols)
        w = values[cls]
        level_total = sum(group_sums(w, order, bounds))
        if level_total <= 0.0:
            # Every populated class scored zero: no usable information.
            w[:] = 1.0 / self.n_particles
            self.diagnostics["uniform_resets"] += 1
        else:
            # Keep the level's particle weights a distribution; the class
            # masses only depend on their ratios.
            w /= level_total
        self.rebuild_tree(part, w, order, bounds)
        # Leaf classes in the level take these weights; the rest keep theirs,
        # rescaled by their class's probability ratio.
        in_level = ~part.leaf_below[cols]
        self.leaf_weights[in_level] = w[in_level]
        self._scale_outside(part, cols)
        s = self.leaf_weights.sum()
        if s <= 0.0:
            self.leaf_weights = np.full(self.n_particles, 1.0 / self.n_particles)
            self.diagnostics["uniform_resets"] += 1
        else:
            self.leaf_weights = self.leaf_weights / s

    def _scale_outside(self, part, cols: np.ndarray) -> None:
        """w *= P_t(c)/P_prev(c) for every particle of a leaf class below the partition."""
        ratio = np.ones(len(self._leaf_ids))
        for col, c in part.leaves_below:
            prev = self.prev_probs.get(c, 0.0)
            if prev > 0.0:
                ratio[col] = self.class_probs[c] / prev
        if not np.all(ratio == 1.0):
            self.leaf_weights = self.leaf_weights * ratio[cols]

    # -- resampling -------------------------------------------------------------

    def resample(self) -> None:
        """Multinomial resampling plus depletion guard.

        round(N * v) particles keep their (uniformly chosen) positions but
        receive a uniformly random leaf class; the rest are drawn by weight.
        """
        n = self.n_particles
        w = self.leaf_weights
        s = w.sum()
        if not np.isfinite(s):
            raise InvalidInputError(f"particle weights have a non-finite total ({s})")
        if s <= 0.0:
            w = np.full(n, 1.0 / n)
            self.diagnostics["uniform_resets"] += 1
        else:
            w = w / s
        n_keep, n_random = split_counts(n, self.depletion)
        rng_r = substream(self.seed, PHASE_RESAMPLE, self._t)
        idx = rng_r.choice(n, size=n_keep, p=w)
        rng_d = substream(self.seed, PHASE_DEPLETE, self._t)
        src = rng_d.choice(n, size=n_random)
        fresh = rng_d.choice(self._leaf_ids, size=n_random)
        self.leaf_positions = np.vstack([self.leaf_positions[idx], self.leaf_positions[src]])
        self.leaf_labels = np.concatenate([self.leaf_labels[idx], fresh])
        self.leaf_weights = np.full(n, 1.0 / n)
        self.rebuild_tree(self._leaf_partition, self.leaf_weights)

    # -- queries -----------------------------------------------------------------

    def map_class(self, b: float) -> int:
        """Highest-probability alive class at level b (ties: birth, then id)."""
        alive = self.tree.alive_ids(b)
        if not alive:
            raise InvalidInputError(f"no class is alive at level {b!r}")
        probs, nodes = self.class_probs, self.tree.nodes
        return min(alive, key=lambda c: (-probs.get(c, 0.0), nodes[c].birth, c))

    def point_estimate(self) -> np.ndarray:
        """Weight-averaged particle position."""
        return weighted_mean(self.leaf_positions, self.leaf_weights)

    def snapshot(self, levels=None) -> dict:
        if levels is None:
            levels = self.tree.unique_births()
        levels = [float(b) for b in levels]
        per_level = []
        for b in levels:
            per_level.append({
                "b": b,
                "classes": [{"id": int(c), "prob": float(self.class_probs.get(c, 0.0))}
                            for c in self.tree.alive_ids(b)],
            })
        return {
            "t": self._t,
            "levels": per_level,
            "point_estimate": [float(x) for x in self.point_estimate()],
            "map_class": [{"b": b, "class_id": int(self.map_class(b))} for b in levels],
        }

    # -- main loop ----------------------------------------------------------------

    def step(self, observations=(), snapshot_levels=None) -> dict:
        """One filtering iteration; returns the post-update snapshot.

        Order: check every observation and snapshot level (a bad one raises
        InvalidInputError before any state changes), keep the pre-observation
        probabilities, predict the particles, apply the observations in
        arrival order, then resample and rebuild the probabilities from the
        bottom level.
        """
        observations = check_observations(observations, self.leaf_positions.shape[1],
                                          self.tree)
        if snapshot_levels is not None and not all(0 <= b < np.inf for b in snapshot_levels):
            raise InvalidInputError(
                f"snapshot levels must be finite and >= 0, got {snapshot_levels!r}")
        self._t += 1
        # The rebuilds replace class_probs with a new dict, so this is a snapshot.
        self.prev_probs = self.class_probs
        self.predict()
        for obs in observations:
            self._apply(obs)
        snap = self.snapshot(snapshot_levels)
        self.resample()
        return snap


def check_consistency(stack: FilterStack) -> None:
    """Assert per-level normalization, parent additivity, and level counts.

    Checks CONSISTENCY_LEVELS evenly spaced levels from 0 to the root birth,
    to within CONSISTENCY_ATOL.
    """
    tree = stack.tree
    cols = stack._leaf_columns()
    root_birth = tree.root_birth
    if root_birth > 0:
        levels = np.linspace(0.0, root_birth, CONSISTENCY_LEVELS)
    else:
        levels = np.zeros(1)
    for b in levels:
        alive = tree.alive_at(float(b))
        total = sum(stack.class_probs.get(c, 0.0) for c in alive)
        if abs(total - 1.0) > CONSISTENCY_ATOL:
            raise AssertionError(f"level {b}: probabilities sum to {total}")
        count = int(tree.membership[[tree.row(c) for c in alive]][:, cols].sum())
        if count != stack.n_particles:
            raise AssertionError(f"level {b}: {count} particles != N={stack.n_particles}")
    for nid, node in tree.nodes.items():
        if node.children:
            child_sum = sum(stack.class_probs.get(ch, 0.0) for ch in node.children)
            if abs(child_sum - stack.class_probs.get(nid, 0.0)) > CONSISTENCY_ATOL:
                raise AssertionError(
                    f"node {nid}: children sum {child_sum} != {stack.class_probs.get(nid)}")
