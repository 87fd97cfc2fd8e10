"""Consistent stack of particle filters over a cluster tree, and the flat filter under it.

`LeafParticleFilter` is a flat bootstrap filter over a fixed set of classes:
the BL1 and BL2 baselines, which ignore coarse observations. It owns the
particles, started at their class's point (`start_points`), and one mass per
class. `FilterStack` extends it with the tree over its leaves, so under a
shared seed the stack's bottom level under fine observations is BL1 bit for bit.

One set of N weighted (leaf class, position) particles carries the estimate.
A node of the tree holds the particles whose leaf class lies under it, so
every level of the tree partitions the same N particles. The probability
state is one mass per leaf, plus the stack's copy from before the step's
observations. A node's probability is the sum of the leaf masses under it
(`membership @ masses`), so children sum to their parent by construction.
A coarse update gives each class of its level its particles' share of the
level's weight: a leaf that is a class takes that share, and the leaves
under a larger class split it in proportion to their pre-observation masses.

Fine observations reweight the particles by distance to the observed
position. Coarse observations name a class at some level; every particle
under a class alive there receives the same weight from the tree-class
distance to the observed class. Particles of a leaf class alive at that level
keep that weight; the others keep their own, rescaled by their class's
probability ratio.

Step t draws from one random stream, (PHASE_PREDICT, t): the dynamics noise
of each populated leaf class in ascending class order, then the resampling.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .seeding import PHASE_INIT, PHASE_PREDICT, as_seed_sequence, substream

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


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of `a`, for arrays whose derived groupings are cached."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def group_slices(keys: np.ndarray, k: int):
    """Particle indices grouped by key (0..k-1), in index order within a group.

    Returns (order, bounds): group g is order[bounds[g]:bounds[g + 1]].
    """
    order = np.argsort(keys, kind="stable")
    return order, np.searchsorted(keys[order], np.arange(k + 1))


def check_weights(weights: np.ndarray, total: float) -> None:
    """Raise InvalidInputError for a non-finite total or a negative weight."""
    if not math.isfinite(total):
        raise InvalidInputError(f"particle weights have a non-finite total ({total})")
    if weights.min() < 0.0:
        raise InvalidInputError(f"particle weights must be >= 0, got {weights.min()}")


def class_masses(weights: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    """Normalized per-class weight sums over one particle set.

    `cols` gives each particle's class position, 0..k-1. One bincount adds
    each class's weights in particle order, and the builtin `sum` adds the
    class sums in class order, so filters sharing a particle set derive
    bit-identical masses. A non-finite total, a negative weight or a zero
    total raises InvalidInputError.
    """
    sums = np.bincount(cols, weights=weights, minlength=k)
    total = sum(sums.tolist())
    check_weights(weights, total)
    if total <= 0.0:
        raise InvalidInputError("particle weights have a zero total")
    return sums / total


def advance_particles(positions: np.ndarray, class_ids: np.ndarray, groups, dynamics,
                      rng: np.random.Generator) -> int:
    """Move every particle by its class's dynamics, in place.

    `class_ids` are the possible labels in ascending order and `groups` the
    particles' group_slices over them. Only populated classes run, in that
    order, each on its particles in index order, drawing from `rng`. Returns
    how many advances fell back to extrapolation.
    """
    order, bounds = groups
    moved = positions[order]
    extrapolated = 0
    for nid, a, b in zip(class_ids.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
        if a == b:
            continue
        moved[a:b], flags = dynamics[nid].step_batch(moved[a:b], rng)
        extrapolated += int(np.count_nonzero(flags))
    positions[order] = moved
    return extrapolated


def start_points(tree, trajectories) -> dict:
    """{leaf id: the mean start point of its member trajectories}, where particles start."""
    return {nid: np.mean([t.points[0] for t in ts], axis=0)
            for nid, ts in tree.leaf_trajectories(trajectories).items()}


start_point_sampler = start_points  # the former name, still imported by perfbench/smoke.py


def split_counts(n: int, depletion: float) -> tuple[int, int]:
    """(weight-resampled, randomized) particle counts for one resampling."""
    n_random = int(round(n * depletion))
    return n - n_random, n_random


def resample_particles(positions: np.ndarray, labels: np.ndarray, weights: np.ndarray,
                       class_ids: np.ndarray, depletion: float, rng: np.random.Generator):
    """Multinomial resampling plus depletion guard, for one particle set.

    round(N * v) particles keep their (uniformly chosen) positions but receive
    a uniformly random class from `class_ids`; the rest are drawn by weight,
    by inverse CDF. `rng` draws the kept particles, then the randomized
    particles' sources, then their classes; each draw equals the matching
    `Generator.choice` call (with or without `p`) bit for bit. Weights that
    are negative or not finite raise InvalidInputError; all-zero weights
    resample uniformly. Returns the new (positions, labels) and whether the
    weights were reset to uniform.
    """
    n = len(weights)
    s = weights.sum()
    check_weights(weights, s)
    reset = bool(s <= 0.0)
    cdf = np.cumsum(np.full(n, 1.0 / n) if reset else weights / s)
    cdf /= cdf[-1]
    n_keep, n_random = split_counts(n, depletion)
    keep = cdf.searchsorted(rng.random(n_keep), side="right")
    take = np.concatenate([keep, rng.integers(0, n, n_random)])
    fresh = class_ids[rng.integers(0, len(class_ids), n_random)]
    return positions[take], np.concatenate([labels[keep], fresh]), reset


def check_particles(n_particles: int, depletion: float) -> None:
    """Raise InvalidInputError unless the particle count is a whole number >= 1
    (100.0 passes) and the depletion fraction a number in [0, 1)."""
    whole = isinstance(n_particles, numbers.Integral) or (
        isinstance(n_particles, numbers.Real) and float(n_particles).is_integer())
    if not whole:
        raise InvalidInputError(f"particle count must be a whole number, got {n_particles!r}")
    if n_particles < 1:
        raise InvalidInputError("need at least one particle")
    if not (isinstance(depletion, numbers.Real) and 0.0 <= depletion < 1.0):
        raise InvalidInputError("depletion fraction must be in [0, 1)")


def check_prior(class_prior: dict, class_ids: list) -> np.ndarray:
    """The prior's masses on `class_ids` (a missing class has 0), normalized.

    Raises InvalidInputError if the prior names a class outside `class_ids`,
    if a mass is not a finite number >= 0, or if the total is not finite
    and > 0.
    """
    known = set(class_ids)
    for c, m in class_prior.items():
        if c not in known:
            raise InvalidInputError(f"prior assigns mass to class {c!r}, not one of "
                                    f"the filter's classes")
        if not (isinstance(m, numbers.Real) and math.isfinite(m) and m >= 0):
            raise InvalidInputError(f"prior mass of class {c!r} must be a finite number "
                                    f">= 0, got {m!r}")
    probs = np.array([class_prior.get(c, 0.0) for c in class_ids], dtype=float)
    with np.errstate(over="ignore"):  # an overflowing total is rejected just below
        total = probs.sum()
    if not 0.0 < total < math.inf:
        raise InvalidInputError(f"prior masses must have a finite total > 0, got {total}")
    return probs / total


def check_start_points(start_points: dict, dynamics: dict, class_ids: list) -> np.ndarray:
    """The classes' start points as rows; InvalidInputError names a class without
    dynamics or a start point, or whose point is not finite in its samples' dimension."""
    for c in class_ids:
        for what, table in (("dynamics", dynamics), ("start point", start_points)):
            if c not in table:
                raise InvalidInputError(f"class {c} has no {what}")
        p, dim = np.asarray(start_points[c], dtype=float), dynamics[c].positions.shape[1]
        if p.shape != (dim,) or not np.isfinite(p).all():
            raise InvalidInputError(f"class {c}: start point must be {dim} finite coordinates, "
                                    f"as its dynamics samples are, got {start_points[c]!r}")
    return np.array([start_points[c] for c in class_ids], dtype=float)


def check_levels(levels, name: str = "snapshot levels") -> list:
    """The levels as a list, each a finite number >= 0; errors call them `name`."""
    try:
        levels = list(levels)
    except TypeError:
        raise InvalidInputError(
            f"{name} must be a sequence of numbers, got {levels!r}") from None
    for b in levels:
        if not (isinstance(b, numbers.Real) and 0 <= b < math.inf):
            raise InvalidInputError(
                f"no class is alive at level {b!r}: {name} must be finite and >= 0, "
                "as tree levels are")
    return levels


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


class LeafParticleFilter:
    """Flat bootstrap filter: N weighted (class, position) particles over fixed classes.

    With the leaf classes of a tree this is BL1; with one pooled class it is
    BL2. It ignores coarse observations. Step t draws its prediction noise
    and then its resampling from one stream, (PHASE_PREDICT, t).
    `diagnostics` counts uniform weight resets and the particle advances that
    fell back to extrapolation.
    """

    def __init__(self, class_ids, dynamics, class_prior: dict, start_points: dict,
                 n_particles: int, depletion: float, seed):
        check_particles(n_particles, depletion)
        self._leaf_ids = np.asarray(sorted(int(c) for c in class_ids), dtype=int)
        probs = check_prior(class_prior, self._leaf_ids.tolist())
        points = check_start_points(start_points, dynamics, self._leaf_ids.tolist())
        self.dynamics = dynamics
        self.n_particles = int(n_particles)
        self.depletion = float(depletion)
        self.seed = as_seed_sequence(seed)
        self._t = 0
        self._rng_t = None  # the step whose stream self._rng is
        self.diagnostics = {"uniform_resets": 0, "extrapolated": 0}

        rng = substream(self.seed, PHASE_INIT)
        self.leaf_labels = rng.choice(self._leaf_ids, size=self.n_particles, p=probs)
        self.leaf_positions = points[self._cols]
        self._set_weights(np.full(self.n_particles, 1.0 / self.n_particles))

    @property
    def t(self) -> int:
        return self._t

    def _step_rng(self) -> np.random.Generator:
        """The (PHASE_PREDICT, t) stream of the current step t, made on first use."""
        if self._rng_t != self._t:
            self._rng, self._rng_t = substream(self.seed, PHASE_PREDICT, self._t), self._t
        return self._rng

    @property
    def leaf_labels(self) -> np.ndarray:
        return self._labels

    @leaf_labels.setter
    def leaf_labels(self, labels: np.ndarray) -> None:
        """Set the labels and regroup the particles by class, once per label change.

        The stored labels are read-only, so the grouping cannot go stale
        under an in-place write: assign a new array instead.
        """
        self._labels = read_only(labels)
        self._cols = np.searchsorted(self._leaf_ids, labels)
        self._leaf_groups = group_slices(self._cols, len(self._leaf_ids))

    def _set_weights(self, weights: np.ndarray) -> None:
        """Set the particle weights and the class masses they give (`class_masses`)."""
        self.leaf_weights = weights
        self._masses = class_masses(weights, self._cols, len(self._leaf_ids))

    @property
    def class_probs(self) -> dict[int, float]:
        """{class id: its particles' share of the weight}."""
        return dict(zip(self._leaf_ids.tolist(), self._masses.tolist()))

    def predict(self) -> None:
        """Advance every particle by its class's dynamics."""
        self.diagnostics["extrapolated"] += advance_particles(
            self.leaf_positions, self._leaf_ids, self._leaf_groups, self.dynamics,
            self._step_rng())

    def _update_fine(self, xi: np.ndarray) -> None:
        """Reweight the particles by distance to xi; equidistant ones reset to uniform."""
        d = np.sqrt(((self.leaf_positions - xi) ** 2).sum(axis=1))
        w = bounded_log_weights(d)
        s = w.sum()
        if s <= 0.0:
            w = np.full(self.n_particles, 1.0 / self.n_particles)
            self.diagnostics["uniform_resets"] += 1
        else:
            w = w / s
        self._set_weights(w)

    def resample(self) -> None:
        """Resample the particles (`resample_particles`) and make the weights uniform."""
        self.leaf_positions, self.leaf_labels, reset = resample_particles(
            self.leaf_positions, self.leaf_labels, self.leaf_weights, self._leaf_ids,
            self.depletion, self._step_rng())
        self.diagnostics["uniform_resets"] += reset
        self._set_weights(np.full(self.n_particles, 1.0 / self.n_particles))

    def point_estimate(self) -> np.ndarray:
        """Weight-averaged particle position."""
        return weighted_mean(self.leaf_positions, self.leaf_weights)

    def snapshot(self) -> dict:
        """Class probabilities and MAP class (ties: smallest id) at level 0, point estimate."""
        probs = self.class_probs
        return {
            "t": self._t,
            "levels": [{"b": 0.0, "classes": [{"id": c, "prob": p} for c, p in probs.items()]}],
            "point_estimate": [float(x) for x in self.point_estimate()],
            "map_class": [{"b": 0.0, "class_id": min(probs, key=lambda c: (-probs[c], c))}],
        }

    def step(self, observations=()) -> dict:
        """One filtering iteration; returns the post-update snapshot.

        Check every observation (a bad one raises InvalidInputError before
        any state changes), predict, reweight by each fine observation in
        arrival order, then resample. Coarse observations carry class-level
        evidence this filter has no hierarchy to interpret; they are ignored.
        """
        observations = check_observations(observations, self.leaf_positions.shape[1])
        self._t += 1
        self.predict()
        for obs in observations:
            if isinstance(obs, FineObservation):
                self._update_fine(np.asarray(obs.position, dtype=float))
        snap = self.snapshot()
        self.resample()
        return snap


class FilterStack(LeafParticleFilter):
    """Single-writer filter state machine over a cluster tree.

    The particles and leaf masses are a LeafParticleFilter's over the tree's
    leaves, in `ClusterTree.leaves()` order. The tree adds the masses' copy
    from before the step's observations, the coarse update, and node-level
    queries: `class_probs` and `prev_probs` give every node the sum of the
    leaf masses under it.
    """

    def __init__(self, tree, dynamics, class_prior: dict, start_points: dict,
                 n_particles: int, depletion: float, seed):
        super().__init__(tree.leaves(), dynamics, class_prior, start_points,
                         n_particles, depletion, seed)
        self.tree = tree
        self._node_ids = sorted(tree.nodes)
        self._membership = tree.membership.astype(float)
        self._prev_masses = self._masses

    # -- level bookkeeping ---------------------------------------------------

    def _node_probs(self, masses: np.ndarray) -> np.ndarray:
        """Probabilities on the tree's rows: each node sums the leaf masses under it."""
        return self._membership @ masses

    @property
    def class_probs(self) -> dict[int, float]:
        return dict(zip(self._node_ids, self._node_probs(self._masses).tolist()))

    @property
    def prev_probs(self) -> dict[int, float]:
        return dict(zip(self._node_ids, self._node_probs(self._prev_masses).tolist()))

    # -- tree probability rebuild ----------------------------------------------

    def rebuild_tree(self, part, weights, cls=None) -> np.ndarray:
        """Recompute the leaf masses from one level's particle weights.

        Each class c of the partition `part` gets P(c), its particles' share
        of `weights` (`class_masses`; `cls` gives each particle's class
        position in `part` when the caller has it, else the labels do). A
        leaf that is itself a class takes P(c). The leaves strictly under a
        class scale their pre-observation masses by P(c)/P_prev(c), where
        P_prev(c) is those masses' sum in leaf order. An exhausted class
        (P_prev(c) = 0) splits P(c) evenly over its leaves, not over its
        children, so in an uneven subtree each leaf gets the same share.
        Bad weights raise InvalidInputError before any state changes.

        Returns the per-leaf ratio: P(c)/P_prev(c) for a leaf under a class
        with prior mass, 1 for every other leaf.
        """
        if cls is None:
            cls = part.leaf_class[self._cols]
        probs = class_masses(weights, cls, len(part.ids))
        ratio = np.ones(len(self._leaf_ids))
        lc = part.leaf_class
        prev = np.bincount(lc, weights=self._prev_masses, minlength=len(probs))
        scaled = part.leaf_below & (prev > 0.0)[lc]
        c = lc[scaled]
        ratio[scaled] = probs[c] / prev[c]
        masses = probs[lc] / np.bincount(lc)[lc]
        masses[scaled] = self._prev_masses[scaled] * ratio[scaled]
        self._masses = masses
        return ratio

    # -- observation updates ---------------------------------------------------

    def _apply(self, obs: FineObservation | CoarseObservation) -> None:
        if isinstance(obs, FineObservation):
            self._update_fine(np.asarray(obs.position, dtype=float))
        else:
            self._update_coarse(int(obs.class_id), float(obs.level))

    def _update_coarse(self, class_id: int, level_value: float) -> None:
        part = self.tree.partition(self.tree.alive_ids(level_value))
        values = bounded_log_weights(self.tree.lca_birth[part.rows, self.tree.row(class_id)])
        if values.sum() <= 0.0:
            values = np.full(len(part.ids), 1.0 / self.n_particles)
            self.diagnostics["uniform_resets"] += 1
        # Every particle takes the value of its class in the level.
        cls = part.leaf_class[self._cols]
        w = values[cls]
        level_total = w.sum()
        if level_total <= 0.0:
            # Every populated class scored zero: no usable information.
            w[:] = 1.0 / self.n_particles
            self.diagnostics["uniform_resets"] += 1
        else:
            # Keep the level's particle weights a distribution; the class
            # masses only depend on their ratios.
            w /= level_total
        ratio = self.rebuild_tree(part, w, cls)
        # Leaf classes in the level take these weights; the rest keep theirs,
        # rescaled by their class's probability ratio.
        weights = self.leaf_weights * ratio[self._cols]
        in_level = ~part.leaf_below[self._cols]
        weights[in_level] = w[in_level]
        s = weights.sum()
        if s <= 0.0:
            self.leaf_weights = np.full(self.n_particles, 1.0 / self.n_particles)
            self.diagnostics["uniform_resets"] += 1
        else:
            self.leaf_weights = weights / s

    # -- queries -----------------------------------------------------------------

    def _level_probs(self, b: float, probs: np.ndarray):
        """The classes alive at level b and their entries of the row array `probs`."""
        alive = self.tree.alive_ids(b)
        if not alive:  # only a loaded tree with gaps in its levels gets here
            raise InvalidInputError(f"no class is alive at level {b!r}")
        return alive, probs[self.tree.partition(alive).rows].tolist()

    def _most_probable(self, alive, probs) -> int:
        """Highest-probability class of a level (ties: birth, then id)."""
        nodes = self.tree.nodes
        return min(zip(alive, probs), key=lambda cp: (-cp[1], nodes[cp[0]].birth, cp[0]))[0]

    def map_class(self, b: float) -> int:
        """Highest-probability alive class at level b (ties: birth, then id)."""
        (b,) = check_levels([b])
        return self._most_probable(*self._level_probs(b, self._node_probs(self._masses)))

    def snapshot(self, levels=None) -> dict:
        """Class probabilities and MAP class per level (default: every birth), point estimate."""
        return self._snapshot(None if levels is None else check_levels(levels))

    def _snapshot(self, levels) -> dict:
        if levels is None:
            levels = self.tree.unique_births()
        probs = self._node_probs(self._masses)
        per_level, maps = [], []
        for b in map(float, levels):
            alive, p = self._level_probs(b, probs)
            per_level.append({"b": b, "classes": [{"id": int(c), "prob": q}
                                                  for c, q in zip(alive, p)]})
            maps.append({"b": b, "class_id": int(self._most_probable(alive, p))})
        return {
            "t": self._t,
            "levels": per_level,
            "point_estimate": [float(x) for x in self.point_estimate()],
            "map_class": maps,
        }

    # -- main loop ----------------------------------------------------------------

    def step(self, observations=(), snapshot_levels=None) -> dict:
        """One filtering iteration; returns the post-update snapshot.

        Order: check every observation and snapshot level (a bad one raises
        InvalidInputError before any state changes), keep the pre-observation
        masses, predict the particles, apply the observations in arrival
        order, then resample, which resets the masses with the weights.
        """
        observations = check_observations(observations, self.leaf_positions.shape[1],
                                          self.tree)
        if snapshot_levels is not None:
            snapshot_levels = check_levels(snapshot_levels)
        self._t += 1
        # Updates replace the mass array, so this is a snapshot.
        self._prev_masses = self._masses
        self.predict()
        for obs in observations:
            self._apply(obs)
        snap = self._snapshot(snapshot_levels)
        self.resample()
        return snap


def check_consistency(stack: FilterStack) -> None:
    """Assert per-level normalization, parent additivity, and level counts.

    Checks CONSISTENCY_LEVELS evenly spaced levels from 0 to the root birth,
    to within CONSISTENCY_ATOL.
    """
    tree = stack.tree
    cols = np.searchsorted(tree.leaves(), stack.leaf_labels)
    root_birth = tree.root_birth
    if root_birth > 0:
        levels = np.linspace(0.0, root_birth, CONSISTENCY_LEVELS)
    else:
        levels = np.zeros(1)
    probs = stack.class_probs
    for b in levels:
        alive = tree.alive_at(float(b))
        total = sum(probs.get(c, 0.0) for c in alive)
        if abs(total - 1.0) > CONSISTENCY_ATOL:
            raise AssertionError(f"level {b}: probabilities sum to {total}")
        count = int(tree.membership[[tree.row(c) for c in alive]][:, cols].sum())
        if count != stack.n_particles:
            raise AssertionError(f"level {b}: {count} particles != N={stack.n_particles}")
    for nid, node in tree.nodes.items():
        if node.children:
            child_sum = sum(probs.get(ch, 0.0) for ch in node.children)
            if abs(child_sum - probs.get(nid, 0.0)) > CONSISTENCY_ATOL:
                raise AssertionError(f"node {nid}: children sum {child_sum} != {probs.get(nid)}")
