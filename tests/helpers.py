"""Independent oracles used to cross-check the production implementations."""

import itertools
import math

import numpy as np

from mhpf.geometry import Trajectory, euclidean


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
