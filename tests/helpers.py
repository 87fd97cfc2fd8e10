"""Independent oracles used to cross-check the production implementations."""

import itertools
import math

import numpy as np

from mhpf.geometry import euclidean


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
