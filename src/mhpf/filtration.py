"""Single-linkage agglomeration of trajectories into a birth-indexed tree.

Each merge at distance b creates a cluster node born at b and kills its two
children at the same value. Reading the dendrogram by threshold gives, for any
b >= 0, an "alive" set of nodes (born at or before b, not yet dead) that
partitions the trajectory corpus; the tree-class distance between two nodes is
the birth index of their lowest common ancestor.

The queries a filter step makes are answered from arrays built once per tree,
on first use: the alive set of every interval between consecutive births (and
deaths), a node x leaf membership matrix, a node x node table of the birth of
each pair's lowest common ancestor, and per alive set the class of every leaf
(`Partition`). A node's probability is the sum of the leaf masses under it,
one `membership` row times the leaf masses, so no walk over the tree keeps
the levels consistent.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, record_field
from .geometry import check_common_dim, validate_distance_matrix


@dataclass(frozen=True)
class ClusterNode:
    id: int
    members: frozenset
    birth: float
    death: float  # math.inf for the root
    parent: int | None
    children: tuple[int, ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True, eq=False)
class Partition:
    """Tree nodes that cover every leaf exactly once, e.g. the classes alive at a level.

    `ids` are the classes in ascending order and `rows` their rows in the
    tree's tables. Leaf columns follow `ClusterTree.leaves()`: `leaf_class`
    gives, per leaf column, the position in `ids` of the class above that leaf,
    and `leaf_below` marks the leaves strictly under a class (not themselves
    a class).
    """

    ids: tuple[int, ...]
    rows: np.ndarray
    leaf_class: np.ndarray
    leaf_below: np.ndarray


@dataclass(frozen=True, eq=False)
class _Tables:
    ids: list            # node ids, ascending; row r of every table is node ids[r]
    row: dict            # node id -> row
    leaf_rows: np.ndarray  # rows of the leaves, ascending ids
    membership: np.ndarray  # (node, leaf) bool: leaf column j lies in the subtree of row r
    lca_birth: np.ndarray  # (node, node) birth of the pair's lowest common ancestor
    breaks: list         # sorted births and finite deaths: the alive set changes only here
    alive: list          # per break, the ids alive from it up to the next, ascending


class ClusterTree:
    """Immutable cluster hierarchy with level queries.

    Node ids are assigned in creation order: leaves 0..M-1 in corpus order,
    then one id per merge. Children therefore always carry smaller ids than
    their parents, which gives a topological order for free.
    """

    def __init__(self, nodes: dict[int, ClusterNode], root: int):
        self.nodes = dict(nodes)
        self.root = root
        self._leaves = tuple(sorted(n for n, node in self.nodes.items() if node.is_leaf))
        self._partitions: dict[tuple[int, ...], Partition] = {}
        self._leaf_by_member = {}
        for nid in self._leaves:
            for m in self.nodes[nid].members:
                self._leaf_by_member[m] = nid

    @property
    def leaf_count(self) -> int:
        """Number of leaf nodes, counted from the nodes."""
        return len(self._leaves)

    def leaves(self) -> list[int]:
        """The leaf ids, ascending (sorted once, at construction)."""
        return list(self._leaves)

    @cached_property
    def _leaf_members(self) -> dict[int, tuple]:
        """{leaf id: its member ids, ascending}, in `leaves()` order."""
        return {nid: tuple(sorted(self.nodes[nid].members)) for nid in self._leaves}

    def leaf_for(self, trajectory_id) -> int:
        try:
            return self._leaf_by_member[trajectory_id]
        except KeyError:
            raise InvalidInputError(f"unknown trajectory id {trajectory_id!r}") from None

    def leaf_trajectories(self, trajectories) -> dict[int, list]:
        """Each leaf's member trajectories in ascending id order, keyed in `leaves()` order.

        This is where tree members resolve to `Trajectory` objects. An empty
        list, mixed dimensions, a repeated id or a member missing from
        `trajectories` raises InvalidInputError; trajectories in no leaf are ignored.
        """
        check_common_dim(trajectories)
        by_id = {}
        for t in trajectories:
            if t.id in by_id:
                raise InvalidInputError(f"duplicate trajectory id {t.id!r}")
            by_id[t.id] = t
        out = {}
        for nid, members in self._leaf_members.items():
            try:
                out[nid] = [by_id[m] for m in members]
            except KeyError:
                missing = [m for m in members if m not in by_id]
                raise InvalidInputError(f"class {nid}: unknown member trajectories "
                                        f"{missing!r}") from None
        return out

    @cached_property
    def _tables(self) -> _Tables:
        ids = sorted(self.nodes)
        row = {nid: r for r, nid in enumerate(ids)}
        n = len(ids)
        nodes = [self.nodes[nid] for nid in ids]
        parent = [-1 if nd.parent is None else row[nd.parent] for nd in nodes]
        children = [tuple(row[ch] for ch in nd.children) for nd in nodes]
        births = np.array([nd.birth for nd in nodes])
        topdown = [row[self.root]]
        for r in topdown:
            topdown.extend(children[r])
        subtree = np.zeros((n, n), dtype=bool)
        for r in reversed(topdown):
            subtree[r, r] = True
            for ch in children[r]:
                subtree[r] |= subtree[ch]
        # A node's row is its parent's, except over its own subtree, where the
        # node itself is the lowest common ancestor.
        lca_birth = np.full((n, n), np.nan)
        for r in topdown:
            if parent[r] >= 0:
                lca_birth[r] = lca_birth[parent[r]]
            lca_birth[r, subtree[r]] = births[r]
        deaths = np.array([nd.death for nd in nodes])
        breaks = sorted(set(births.tolist()) | set(deaths[np.isfinite(deaths)].tolist()))
        ids_arr = np.array(ids)
        alive = [tuple(ids_arr[(births <= b) & (b < deaths)].tolist()) for b in breaks]
        leaf_rows = np.array([row[nid] for nid in self._leaves], dtype=int)
        return _Tables(ids, row, leaf_rows, subtree[:, leaf_rows], lca_birth, breaks, alive)

    def row(self, node_id: int) -> int:
        """Row of a node in `membership` and `lca_birth` (rows follow ascending ids)."""
        try:
            return self._tables.row[node_id]
        except KeyError:
            raise InvalidInputError(f"unknown node id {node_id!r}") from None

    @property
    def membership(self) -> np.ndarray:
        """(node, leaf) bool matrix: leaf column j lies under node row r.

        Columns follow `leaves()`.
        """
        return self._tables.membership

    @property
    def lca_birth(self) -> np.ndarray:
        """(node, node) birth of each pair's lowest common ancestor."""
        return self._tables.lca_birth

    def alive_ids(self, b: float) -> tuple[int, ...]:
        """Ascending ids of the nodes with birth <= b < death (cached per interval)."""
        if b < 0:
            raise InvalidInputError(f"level must be >= 0, got {b}")
        t = self._tables
        k = bisect_right(t.breaks, b) - 1
        if k < 0 or not b < math.inf:  # also NaN: no node has birth <= b < death
            return ()
        return t.alive[k]

    def alive_at(self, b: float) -> set[int]:
        """Nodes with birth <= b < death; their members partition the corpus."""
        return set(self.alive_ids(b))

    def partition(self, node_ids) -> Partition:
        """The given nodes as a Partition; raises unless they cover every leaf once."""
        # Alive sets come as sorted tuples, which are their own keys.
        cached = self._partitions.get(node_ids) if isinstance(node_ids, tuple) else None
        if cached is not None:
            return cached
        key = tuple(sorted({int(c) for c in node_ids}))
        cached = self._partitions.get(key)
        if cached is not None:
            return cached
        t = self._tables
        rows = np.array([self.row(c) for c in key], dtype=int)
        cover = t.membership[rows]
        if not np.all(cover.sum(axis=0) == 1):
            raise InvalidInputError(f"nodes {list(key)} do not partition the leaves")
        leaf_class = cover.argmax(axis=0)
        part = Partition(key, rows, leaf_class, rows[leaf_class] != t.leaf_rows)
        self._partitions[key] = part
        return part

    def tree_class_distance(self, c1: int, c2: int) -> float:
        """Birth index of the lowest common ancestor of the two nodes."""
        return float(self._tables.lca_birth[self.row(c1), self.row(c2)])

    def ancestor_alive_at(self, node_id: int, b: float) -> int:
        """The unique node on the path from node_id to the root alive at b."""
        if b < 0:
            raise InvalidInputError(f"level must be >= 0, got {b}")
        if node_id not in self.nodes:
            raise InvalidInputError(f"unknown node id {node_id!r}")
        nid = node_id
        n = self.nodes[nid]
        while not (n.birth <= b < n.death):
            if n.parent is None:
                return nid
            nid = n.parent
            n = self.nodes[nid]
        return nid

    def unique_births(self) -> list[float]:
        return sorted({node.birth for node in self.nodes.values()})

    @property
    def root_birth(self) -> float:
        return self.nodes[self.root].birth

    def to_dict(self) -> dict:
        nodes = []
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            nodes.append({
                "id": n.id,
                "members": sorted(n.members),
                "birth": n.birth,
                "death": None if math.isinf(n.death) else n.death,
                "parent": n.parent,
                "children": list(n.children),
            })
        return {"nodes": nodes, "root": self.root}

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterTree":
        """Inverse of `to_dict`; raises InvalidInputError unless the records form a tree.

        A missing, malformed or dangling field, a repeated node id, a parent
        or child link the other node does not confirm, a root with a parent,
        a node not reached exactly once from the root, a leaf with no members,
        a member under two leaves, or an internal node whose members are not
        its children's union is rejected. Births and deaths may be in any order.
        """
        nodes = {}
        for i, rec in enumerate(record_field(data, "nodes", list, "tree")):
            where = f"node record {i}"
            node = ClusterNode(
                id=record_field(rec, "id", int, where),
                members=record_field(rec, "members", frozenset, where),
                birth=record_field(rec, "birth", float, where),
                death=record_field(rec, "death", lambda d: math.inf if d is None else float(d),
                                   where),
                parent=record_field(rec, "parent", lambda p: None if p is None else int(p), where),
                children=record_field(rec, "children", lambda c: tuple(map(int, c)), where),
            )
            if node.id in nodes:
                raise InvalidInputError(f"tree: repeated node id {node.id}")
            nodes[node.id] = node
        root = record_field(data, "root", int, "tree")
        refs = {root} | {r for n in nodes.values() for r in (n.parent, *n.children)}
        refs.discard(None)
        if not refs <= nodes.keys():
            raise InvalidInputError(f"tree: unknown node ids {sorted(refs - nodes.keys())}")
        _check_tree_shape(nodes, root)
        return cls(nodes, root)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ClusterTree":
        with open(path) as fh:
            data = json.load(fh)
        try:
            return cls.from_dict(data)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}: {exc}") from None

    def render_text(self) -> str:
        """Indented dendrogram listing birth and member count per node."""
        lines: list[str] = []

        def walk(nid: int, depth: int) -> None:
            n = self.nodes[nid]
            death = "inf" if math.isinf(n.death) else f"{n.death:g}"
            label = f"node {nid} [birth {n.birth:g}, death {death}] {len(n.members)} member(s)"
            if n.is_leaf:
                label += ": " + ", ".join(sorted(map(str, n.members)))
            lines.append("  " * depth + label)
            for ch in n.children:
                walk(ch, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


def _check_tree_shape(nodes: dict[int, ClusterNode], root: int) -> None:
    """Raise InvalidInputError unless the linked nodes form one tree whose leaves split the members."""
    # With every child link confirmed and every node reached once from a
    # parentless root, each parent link is confirmed too.
    for nid, node in nodes.items():
        for ch in node.children:
            if nodes[ch].parent != nid:
                raise InvalidInputError(f"tree: node {nid} lists child {ch}, "
                                        f"whose parent is {nodes[ch].parent}")
    if nodes[root].parent is not None:
        raise InvalidInputError(f"tree: root {root} has parent {nodes[root].parent}")
    reached = set()
    todo = [root]
    while todo:
        nid = todo.pop()
        if nid in reached:
            raise InvalidInputError(f"tree: node {nid} is reached more than once from the root")
        reached.add(nid)
        todo.extend(nodes[nid].children)
    if len(reached) < len(nodes):
        raise InvalidInputError(f"tree: nodes {sorted(nodes.keys() - reached)} "
                                "are not reached from the root")
    leaf_of = {}
    for nid, node in nodes.items():
        if not node.is_leaf:
            continue
        if not node.members:
            raise InvalidInputError(f"tree: leaf {nid} has no members")
        for m in node.members:
            if leaf_of.setdefault(m, nid) != nid:
                raise InvalidInputError(f"tree: member {m!r} is under leaves {leaf_of[m]} and {nid}")
    for nid, node in nodes.items():
        if node.children and node.members != frozenset().union(
                *(nodes[ch].members for ch in node.children)):
            raise InvalidInputError(f"tree: members of node {nid} are not the union "
                                    "of its children's")


def single_linkage(d, member_ids=None) -> ClusterTree:
    """Single-linkage dendrogram of a distance matrix.

    Repeatedly merges the pair of active clusters at minimum distance,
    breaking ties by the lexicographically smallest (i, j) node-id pair, and
    updates distances with the pointwise minimum rule. Merge distances become
    birth indices; leaves are born at 0 and the root never dies. Member ids
    must be distinct.
    """
    d = validate_distance_matrix(d)
    m = d.shape[0]
    if member_ids is None:
        member_ids = [str(i) for i in range(m)]
    if len(member_ids) != m:
        raise InvalidInputError("member_ids length must match matrix size")
    seen = set()
    for mid in member_ids:
        if mid in seen:
            raise InvalidInputError(f"duplicate member id {mid!r}")
        seen.add(mid)

    total = 2 * m - 1
    nodes: dict[int, ClusterNode] = {}
    members: dict[int, frozenset] = {}
    births = {}
    children: dict[int, tuple[int, int]] = {}
    for i in range(m):
        members[i] = frozenset([member_ids[i]])
        births[i] = 0.0

    if m == 1:
        nodes[0] = ClusterNode(0, members[0], 0.0, math.inf, None, ())
        return ClusterTree(nodes, 0)

    # Working matrix indexed by node id. The diagonal and the rows and columns
    # of nodes not active (merged away, or not yet created) hold +inf, so the
    # first minimum of the whole matrix in row-major order is the active pair
    # at minimum distance with the smallest i, then the smallest j > i.
    work = np.full((total, total), np.inf)
    work[:m, :m] = d
    np.fill_diagonal(work, np.inf)

    deaths = {}
    parents = {}
    for nid in range(m, total):
        i, j = divmod(int(work.argmin()), total)
        dist = float(work[i, j])

        members[nid] = members[i] | members[j]
        births[nid] = dist
        children[nid] = (i, j)
        deaths[i] = dist
        deaths[j] = dist
        parents[i] = nid
        parents[j] = nid

        merged = np.minimum(work[i], work[j])
        merged[i] = merged[j] = np.inf
        work[i] = work[j] = np.inf
        work[:, i] = work[:, j] = np.inf
        work[nid] = work[:, nid] = merged

    root = total - 1
    for nid in range(total):
        nodes[nid] = ClusterNode(
            id=nid,
            members=members[nid],
            birth=births[nid],
            death=deaths.get(nid, math.inf),
            parent=parents.get(nid),
            children=children.get(nid, ()),
        )
    return ClusterTree(nodes, root)


def flat_tree(member_ids, root_birth: float = 1.0) -> ClusterTree:
    """Degenerate hierarchy: one root directly over one leaf per trajectory."""
    m = len(member_ids)
    if m < 1:
        raise InvalidInputError("need at least one member")
    nodes: dict[int, ClusterNode] = {}
    if m == 1:
        nodes[0] = ClusterNode(0, frozenset([member_ids[0]]), 0.0, math.inf, None, ())
        return ClusterTree(nodes, 0)
    for i, mid in enumerate(member_ids):
        nodes[i] = ClusterNode(i, frozenset([mid]), 0.0, float(root_birth), m, ())
    nodes[m] = ClusterNode(m, frozenset(member_ids), float(root_birth), math.inf, None, tuple(range(m)))
    return ClusterTree(nodes, m)


def single_class_tree(member_ids) -> ClusterTree:
    """A one-node tree whose sole class pools every trajectory.

    Used to express a classless filter over the combined corpus in the same
    machinery; the usual one-trajectory-per-leaf shape is deliberately relaxed.
    """
    if len(member_ids) < 1:
        raise InvalidInputError("need at least one member")
    nodes = {0: ClusterNode(0, frozenset(member_ids), 0.0, math.inf, None, ())}
    return ClusterTree(nodes, 0)
