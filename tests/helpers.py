"""Independent oracles used to cross-check the production implementations."""

import itertools
import math

import numpy as np

from mhpf.dynamics import ClassDynamics
from mhpf.filtration import ClusterNode, ClusterTree
from mhpf.geometry import Trajectory, euclidean
from mhpf.seeding import PHASE_INIT, PHASE_PREDICT, as_seed_sequence, substream
from mhpf.stack import (FineObservation, advance_particles, bounded_log_weights,
                        check_observations, check_particles, check_prior, class_masses,
                        group_slices, read_only, resample_particles, weighted_mean)


def brute_force_frechet(p: np.ndarray, q: np.ndarray) -> float:
    """Minimum over all monotone couplings of the max pointwise distance.

    Exponential enumeration; only usable for len(p) + len(q) <= ~12.
    """
    n, m = len(p), len(q)
    best = math.inf

    def extend(i, j, cur):
        nonlocal best
        cur = max(cur, euclidean(p[i], q[j]))
        if cur >= best:
            return
        if i == n - 1 and j == m - 1:
            best = min(best, cur)
            return
        if i + 1 < n:
            extend(i + 1, j, cur)
        if j + 1 < m:
            extend(i, j + 1, cur)
        if i + 1 < n and j + 1 < m:
            extend(i + 1, j + 1, cur)

    extend(0, 0, 0.0)
    return best


def reference_frechet(p: np.ndarray, q: np.ndarray) -> float:
    """Discrete Frechet distance by the textbook O(P*Q) coupling recursion.

    Each cell's Euclidean distance is its squared differences summed
    coordinate by coordinate, then rooted; the recursion runs on the rooted
    distances, one cell at a time in row-major order.
    """
    n, m = len(p), len(q)
    c = np.full((n, m), np.inf)
    for i in range(n):
        for j in range(m):
            sq = 0.0
            for a, b in zip(p[i], q[j]):
                sq += (a - b) * (a - b)
            d = math.sqrt(sq)
            if i == 0 and j == 0:
                c[i, j] = d
                continue
            best = min(c[i - 1, j] if i else math.inf,
                       c[i, j - 1] if j else math.inf,
                       c[i - 1, j - 1] if i and j else math.inf)
            c[i, j] = max(d, best)
    return float(c[n - 1, m - 1])


def naive_single_linkage(d: np.ndarray):
    """O(M^3) single linkage over dict-of-frozensets.

    Returns the merge sequence [(height, members_frozenset), ...] in merge
    order, using minimum pairwise distance between cluster members.
    """
    m = d.shape[0]
    clusters = {frozenset([i]) for i in range(m)}
    merges = []
    while len(clusters) > 1:
        best = None
        for a, b in itertools.combinations(sorted(clusters, key=sorted), 2):
            dist = min(d[i, j] for i in a for j in b)
            if best is None or dist < best[0]:
                best = (dist, a, b)
        dist, a, b = best
        clusters.remove(a)
        clusters.remove(b)
        merged = a | b
        clusters.add(merged)
        merges.append((dist, merged))
    return merges


def reference_single_linkage(d: np.ndarray, member_ids=None) -> ClusterTree:
    """Single linkage over the active block, copied out with np.ix_ before every merge.

    Merges the first minimum of the active x active block in row-major order
    (the lexicographically smallest closest pair), so it builds the same
    nodes as `single_linkage` from a valid distance matrix.
    """
    m = d.shape[0]
    if member_ids is None:
        member_ids = [str(i) for i in range(m)]
    if m == 1:
        return ClusterTree({0: ClusterNode(0, frozenset(member_ids), 0.0, math.inf, None, ())}, 0)
    total = 2 * m - 1
    members = {i: frozenset([member_ids[i]]) for i in range(m)}
    births = dict.fromkeys(range(m), 0.0)
    children, deaths, parents = {}, {}, {}
    work = np.full((total, total), np.inf)
    work[:m, :m] = d
    np.fill_diagonal(work, np.inf)
    active = np.zeros(total, dtype=bool)
    active[:m] = True
    for nid in range(m, total):
        sub = work[np.ix_(active, active)]
        flat = int(np.argmin(sub))
        ids = np.flatnonzero(active)
        i, j = sorted((int(ids[flat // sub.shape[0]]), int(ids[flat % sub.shape[0]])))
        dist = float(work[i, j])
        members[nid] = members[i] | members[j]
        births[nid] = dist
        children[nid] = (i, j)
        deaths[i] = deaths[j] = dist
        parents[i] = parents[j] = nid
        merged = np.minimum(work[i], work[j])
        work[nid, :] = merged
        work[:, nid] = merged
        work[nid, nid] = np.inf
        active[i] = active[j] = False
        active[nid] = True
    nodes = {nid: ClusterNode(nid, members[nid], births[nid], deaths.get(nid, math.inf),
                              parents.get(nid), children.get(nid, ()))
             for nid in range(total)}
    return ClusterTree(nodes, total - 1)


def reference_harvest(trajectories):
    """(positions, velocities, velocity scale) from np.vstack over np.diff of each trajectory.

    Single-point trajectories contribute no samples; the scale is the mean of
    the row norms of the stacked velocities.
    """
    multi = [t.points for t in trajectories if len(t) >= 2]
    velocities = np.vstack([np.diff(p, axis=0) for p in multi])
    scale = float(np.sqrt((velocities ** 2).sum(axis=1)).mean())
    return np.vstack([p[:-1] for p in multi]), velocities, scale


def reference_pooled_dynamics(tree, trajectories, kappa: float,
                              epsilon_floor: float) -> ClassDynamics:
    """The pooled root class that `build_dynamics` once built beside the leaf classes.

    Every leaf's members, sorted by id, each contributing its `points[:-1]`
    and `velocities`, joined with one np.concatenate; the scale is the mean
    of their joined speeds and the radius the root's birth floored at
    `epsilon_floor`.
    """
    pool = sorted((t for ts in tree.leaf_trajectories(trajectories).values() for t in ts),
                  key=lambda t: t.id)
    return ClassDynamics(class_id=tree.root,
                         positions=np.concatenate([t.points[:-1] for t in pool]),
                         velocities=np.concatenate([t.velocities for t in pool]),
                         epsilon=max(tree.root_birth, epsilon_floor), kappa=float(kappa),
                         velocity_scale=float(np.concatenate([t.speeds for t in pool]).mean()))


def reference_bbox_diagonal(trajectories) -> float:
    """Bounding-box diagonal from the min and max over all points stacked together."""
    pts = np.vstack([t.points for t in trajectories])
    span = pts.max(axis=0) - pts.min(axis=0)
    return float(np.sqrt((span ** 2).sum()))


def reference_mean_spacing(trajectories) -> float:
    """Mean over multi-point trajectories of arc length per step, from np.diff."""
    return float(np.mean([np.sqrt((np.diff(t.points, axis=0) ** 2).sum(axis=1)).sum()
                          / (len(t) - 1) for t in trajectories if len(t) >= 2]))


def walk_lca(tree, a: int, b: int) -> int:
    """Lowest common ancestor by walking parent links (every node is its own ancestor)."""
    ancestors = []
    n = a
    while n is not None:
        ancestors.append(n)
        n = tree.nodes[n].parent
    n = b
    while n not in ancestors:
        n = tree.nodes[n].parent
    return n


def brute_alive(tree, b: float) -> set:
    """Nodes with birth <= b < death, by scanning every node."""
    return {n for n, node in tree.nodes.items() if node.birth <= b < node.death}


def reference_rebuild(tree, class_ids, leaf_labels, weights, prev) -> dict:
    """Class probabilities {id: p} rebuilt from one level's weights by dict walks.

    Each class gets its particles' weights summed in particle order, over the
    total summed in ascending class order; nodes below a class scale by their
    share of `prev`, and an exhausted parent splits its mass over its
    children in proportion to their leaf counts (so each leaf under it gets
    an even share); nodes above sum their children with the builtin `sum`.
    It walks the tree level by level, so it rounds differently from the
    leaf-mass rebuild and agrees with it only up to rounding.
    """
    def leaves_under(nid):
        node = tree.nodes[nid]
        return [nid] if node.is_leaf else [x for ch in node.children for x in leaves_under(ch)]

    ids = sorted(class_ids)
    sums = [float(weights[np.isin(leaf_labels, leaves_under(c))].sum()) for c in ids]
    total = sum(sums)
    out = {c: s / total for c, s in zip(ids, sums)}

    def push_down(nid):
        children = tree.nodes[nid].children
        for ch in children:
            prev_parent = prev.get(nid, 0.0)
            if prev_parent > 0.0:
                out[ch] = prev.get(ch, 0.0) * out[nid] / prev_parent
            else:
                out[ch] = out[nid] * len(leaves_under(ch)) / len(leaves_under(nid))
            push_down(ch)

    def pull_up(nid):
        if nid not in out:
            out[nid] = sum(pull_up(ch) for ch in tree.nodes[nid].children)
        return out[nid]

    for c in ids:
        push_down(c)
    pull_up(tree.root)
    return out


def reference_leaf_masses(tree, class_ids, leaf_labels, weights, prev_masses) -> list:
    """Leaf masses rebuilt from one level's weights, one plain loop per quantity.

    The arithmetic of `FilterStack.rebuild_tree`, in its order: each class's
    weight sum adds its particles in particle order, the total adds the class
    sums with the builtin `sum` in ascending class order, and P(c) is a class
    sum over the total. Each class's prior mass adds the masses of its leaves
    in leaf order. A leaf that is a class takes P(c); a leaf under a class
    with prior mass takes prev * (P(c) / prior); a leaf under an exhausted
    class takes P(c) / (the class's leaf count). Masses and prior masses are
    listed in `tree.leaves()` order.
    """
    ids = sorted(class_ids)
    leaves = tree.leaves()
    leaf_class = []
    for leaf in leaves:
        node = leaf
        while node not in ids:
            node = tree.nodes[node].parent
        leaf_class.append(ids.index(node))
    sums = [0.0] * len(ids)
    for label, w in zip(leaf_labels.tolist(), weights.tolist()):
        sums[leaf_class[leaves.index(label)]] += w
    total = sum(sums)
    probs = [s / total for s in sums]
    prior = [0.0] * len(ids)
    n_leaves = [0] * len(ids)
    for c, m in zip(leaf_class, prev_masses):
        prior[c] += m
        n_leaves[c] += 1
    masses = []
    for leaf, c, m in zip(leaves, leaf_class, prev_masses):
        if ids[c] != leaf and prior[c] > 0.0:
            masses.append(m * (probs[c] / prior[c]))
        else:
            masses.append(probs[c] / n_leaves[c])
    return masses


def random_corpus(rng, lattice: bool) -> list[Trajectory]:
    """2 to 9 random-walk trajectories in a few bundles; on a lattice many births tie."""
    out = []
    for i in range(int(rng.integers(2, 10))):
        start = rng.integers(0, 3) * 4.0 + rng.normal(scale=0.5, size=2)
        pts = start + np.cumsum(rng.normal(loc=1.0, scale=0.6, size=(int(rng.integers(4, 12)), 2)),
                                axis=0)
        out.append(Trajectory(f"r{i}", np.round(pts) if lattice else pts))
    return out


def ragged_corpus(rng, dim: int):
    """Random walks of 1 to 8 points in `dim` dimensions, and a two-level tree over them.

    Every leaf of the tree pools two or three trajectories, one with at least
    two points, so each class has dynamics samples while single-point
    members still occur.
    """
    groups, corpus = [], []
    for g in range(int(rng.integers(2, 6))):
        lengths = [int(rng.integers(2, 9))]
        lengths += [int(rng.integers(1, 9)) for _ in range(rng.integers(1, 3))]
        ids = []
        for n in lengths:
            ids.append(f"g{g}t{len(ids)}")
            corpus.append(Trajectory(ids[-1], np.cumsum(rng.normal(size=(n, dim)), axis=0)))
        groups.append(frozenset(ids))
    root = len(groups)
    nodes = {k: ClusterNode(k, members, 0.0, 1.0, root, ()) for k, members in enumerate(groups)}
    nodes[root] = ClusterNode(root, frozenset().union(*groups), 1.0, math.inf, None,
                              tuple(range(root)))
    order = rng.permutation(len(corpus))
    return [corpus[k] for k in order], ClusterTree(nodes, root)


def reference_nearest_distances(tree, trajectories, samples: np.ndarray, class_ids) -> np.ndarray:
    """(class, sample) distance from each sample to the class's nearest member point.

    One class at a time, over the points of the trajectories it holds; each
    squared distance is summed coordinate by coordinate in coordinate order.
    """
    by_id = {t.id: t for t in trajectories}
    out = np.empty((len(class_ids), len(samples)))
    for r, c in enumerate(class_ids):
        points = np.vstack([by_id[m].points for m in sorted(tree.nodes[c].members)])
        sq = np.zeros((len(samples), len(points)))
        for k in range(points.shape[1]):
            diff = samples[:, k, None] - points[None, :, k]
            sq += diff * diff
        out[r] = np.sqrt(sq.min(axis=1))
    return out


def apply_observation(stack, obs) -> None:
    """Check, then apply one observation to a stack's current particles, as `step` does."""
    for o in check_observations(obs, stack.leaf_positions.shape[1], stack.tree):
        stack._apply(o)


def start_sampler(starts: dict):
    """ReferenceLeafFilter's position sampler: a copy of the class's start point."""
    return lambda c, rng: starts[c].copy()


class ReferenceLeafFilter:
    """Flat bootstrap filter over a fixed set of classes.

    With the leaf classes of a tree this is BL1; with a single pooled class it
    is BL2. Stream keys, update formulas, and resampling mirror the
    hierarchical stack's bottom level exactly.
    """

    def __init__(self, class_ids, dynamics, class_prior, position_sampler,
                 n_particles: int, depletion: float, seed):
        check_particles(n_particles, depletion)
        self._class_ids = np.asarray(sorted(int(c) for c in class_ids), dtype=int)
        probs = check_prior(class_prior, self._class_ids.tolist())
        self.dynamics = dynamics
        self.n_particles = int(n_particles)
        self.depletion = float(depletion)
        self.seed = as_seed_sequence(seed)
        self._t = 0
        rng = substream(self.seed, PHASE_INIT)
        self.labels = rng.choice(self._class_ids, size=self.n_particles, p=probs)
        self.positions = np.stack([
            np.asarray(position_sampler(int(c), rng), dtype=float) for c in self.labels
        ])
        self.weights = np.full(self.n_particles, 1.0 / self.n_particles)

    @property
    def t(self) -> int:
        return self._t

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @labels.setter
    def labels(self, labels: np.ndarray) -> None:
        """Set the labels and regroup the particles by class, once per label change.

        The stored labels are read-only, so the grouping cannot go stale
        under an in-place write: assign a new array instead.
        """
        self._labels = read_only(labels)
        self._cols = np.searchsorted(self._class_ids, labels)
        self._groups = group_slices(self._cols, len(self._class_ids))

    def class_probs(self) -> dict[int, float]:
        masses = class_masses(self.weights, self._cols, len(self._class_ids))
        return dict(zip(self._class_ids.tolist(), masses.tolist()))

    def point_estimate(self) -> np.ndarray:
        return weighted_mean(self.positions, self.weights)

    def snapshot(self) -> dict:
        probs = self.class_probs()
        classes = [{"id": int(c), "prob": float(probs[int(c)])} for c in self._class_ids]
        return {
            "t": self._t,
            "levels": [{"b": 0.0, "classes": classes}],
            "point_estimate": [float(x) for x in self.point_estimate()],
            "map_class": [{"b": 0.0, "class_id": _most_probable(probs)}],
        }

    def step(self, observations=()) -> dict:
        observations = check_observations(observations, self.positions.shape[1])
        self._t += 1
        rng = substream(self.seed, PHASE_PREDICT, self._t)
        advance_particles(self.positions, self._class_ids, self._groups, self.dynamics, rng)
        for obs in observations:
            if isinstance(obs, FineObservation):
                xi = np.asarray(obs.position, dtype=float)
                d = np.sqrt(((self.positions - xi) ** 2).sum(axis=1))
                w = bounded_log_weights(d)
                s = w.sum()
                if s <= 0.0:
                    w = np.full(self.n_particles, 1.0 / self.n_particles)
                else:
                    w = w / s
                self.weights = w
            # Coarse observations carry class-level evidence this filter has no
            # hierarchy to interpret; they are ignored.
        snap = self.snapshot()
        self._resample(rng)
        return snap

    def _resample(self, rng: np.random.Generator) -> None:
        self.positions, self.labels, _ = resample_particles(
            self.positions, self.labels, self.weights, self._class_ids, self.depletion, rng)
        self.weights = np.full(self.n_particles, 1.0 / self.n_particles)


def _most_probable(probs: dict[int, float]) -> int:
    """The class of highest probability; ties go to the smallest id."""
    return min(probs, key=lambda c: (-probs[c], c))
