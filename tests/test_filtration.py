import itertools
import json
import math

import numpy as np
import pytest

from helpers import brute_alive, naive_single_linkage, reference_single_linkage, walk_lca
from mhpf.errors import InvalidInputError
from mhpf.filtration import ClusterTree, flat_tree, single_class_tree, single_linkage
from mhpf.geometry import distance_matrix


def random_distance_matrix(rng, m):
    a = rng.uniform(0.1, 10.0, size=(m, m))
    d = (a + a.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


def test_single_element_tree():
    tree = single_linkage(np.zeros((1, 1)))
    assert tree.leaf_count == 1
    node = tree.nodes[tree.root]
    assert node.birth == 0.0 and math.isinf(node.death)


def test_hand_trace_merge_order(hand_tree):
    tree = hand_tree
    assert tree.leaf_count == 3
    first = tree.nodes[3]
    assert first.birth == 1.0
    assert first.members == frozenset({"0", "1"})
    root = tree.nodes[tree.root]
    assert root.birth == 2.0
    assert root.members == frozenset({"0", "1", "2"})


def test_hand_trace_birth_death_links(hand_tree):
    tree = hand_tree
    assert tree.nodes[0].death == 1.0
    assert tree.nodes[1].death == 1.0
    assert tree.nodes[3].death == 2.0
    assert tree.nodes[2].death == 2.0
    for nid, node in tree.nodes.items():
        if node.parent is not None:
            assert tree.nodes[node.parent].birth == node.death


def test_alive_at_zero_gives_leaves(hand_tree):
    assert hand_tree.alive_at(0.0) == {0, 1, 2}


def test_alive_at_root(hand_tree):
    assert hand_tree.alive_at(2.0) == {hand_tree.root}
    assert hand_tree.alive_at(99.0) == {hand_tree.root}


def test_alive_at_intermediate(hand_tree):
    assert hand_tree.alive_at(1.5) == {3, 2}


def test_alive_at_rejects_negative(hand_tree):
    with pytest.raises(InvalidInputError):
        hand_tree.alive_at(-0.1)


def test_tree_class_distance(hand_tree):
    tree = hand_tree
    assert tree.tree_class_distance(0, 2) == 2.0
    assert tree.tree_class_distance(0, 1) == 1.0
    assert tree.tree_class_distance(2, 0) == tree.tree_class_distance(0, 2)
    # A node is its own first shared parent.
    assert tree.tree_class_distance(3, 3) == 1.0
    assert tree.tree_class_distance(0, 0) == 0.0
    with pytest.raises(InvalidInputError, match="unknown node id 99"):
        tree.tree_class_distance(0, 99)


def test_tree_distance_to_alive_ancestor(hand_tree):
    tree = hand_tree
    assert tree.ancestor_alive_at(0, 1.5) == 3
    assert tree.ancestor_alive_at(2, 1.5) == 2
    assert tree.ancestor_alive_at(0, 5.0) == tree.root


def test_matches_naive_oracle_heights_and_members():
    rng = np.random.default_rng(21)
    for _ in range(40):
        m = int(rng.integers(2, 13))
        d = random_distance_matrix(rng, m)
        tree = single_linkage(d)
        expected = naive_single_linkage(d)
        internal = [tree.nodes[i] for i in sorted(tree.nodes) if not tree.nodes[i].is_leaf]
        got = [(n.birth, frozenset(int(x) for x in n.members)) for n in internal]
        want = [(h, frozenset(mem)) for h, mem in expected]
        assert got == want


def test_ultrametric_over_leaf_triples():
    rng = np.random.default_rng(22)
    d = random_distance_matrix(rng, 9)
    tree = single_linkage(d)
    leaves = tree.leaves()
    for a, b, c in itertools.permutations(leaves, 3):
        dab = tree.tree_class_distance(a, b)
        dbc = tree.tree_class_distance(b, c)
        dac = tree.tree_class_distance(a, c)
        assert dac <= max(dab, dbc)


def test_merge_births_monotone():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = int(rng.integers(2, 15))
        tree = single_linkage(random_distance_matrix(rng, m))
        births = [tree.nodes[i].birth for i in sorted(tree.nodes) if not tree.nodes[i].is_leaf]
        assert births == sorted(births)


def test_alive_sets_partition_leaves():
    rng = np.random.default_rng(24)
    tree = single_linkage(random_distance_matrix(rng, 11))
    all_members = tree.nodes[tree.root].members
    for _ in range(100):
        b = float(rng.uniform(0, tree.root_birth * 1.2))
        alive = tree.alive_at(b)
        union = set()
        total = 0
        for c in alive:
            union |= tree.nodes[c].members
            total += len(tree.nodes[c].members)
        assert union == all_members
        assert total == len(all_members)


def test_tie_break_is_lexicographic():
    # Three pairwise-equal options: (0,1) must merge first, then the rest.
    d = np.array([
        [0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ])
    tree = single_linkage(d)
    assert tree.nodes[3].members == frozenset({"0", "1"})
    assert tree.nodes[4].members == frozenset({"0", "1", "2"})
    assert tree.nodes[3].birth == tree.nodes[4].birth == 1.0


def tie_heavy_distance_matrix(rng, m):
    """Symmetric matrix of integer distances from {1, 2, 3}: most merges tie."""
    a = rng.integers(1, 4, size=(m, m)).astype(float)
    d = np.triu(a, 1)
    return d + d.T


@pytest.mark.parametrize("make", [random_distance_matrix, tie_heavy_distance_matrix])
def test_matches_reference_single_linkage_node_for_node(make):
    rng = np.random.default_rng(31)
    for m in list(range(1, 13)) * 4 + [40]:
        d = make(rng, m)
        ids = [f"t{k}" for k in rng.permutation(m)]
        tree, ref = single_linkage(d, member_ids=ids), reference_single_linkage(d, ids)
        assert tree.root == ref.root
        assert tree.nodes == ref.nodes


def test_rejects_duplicate_member_ids():
    with pytest.raises(InvalidInputError, match="duplicate member id 'x'"):
        single_linkage(random_distance_matrix(np.random.default_rng(0), 3),
                       member_ids=["x", "x", "y"])


def test_internal_nodes_are_binary():
    rng = np.random.default_rng(25)
    tree = single_linkage(random_distance_matrix(rng, 10))
    for node in tree.nodes.values():
        if not node.is_leaf:
            assert len(node.children) == 2


def test_member_union_invariant(fixed_tree):
    for node in fixed_tree.nodes.values():
        if node.children:
            union = frozenset()
            for ch in node.children:
                union |= fixed_tree.nodes[ch].members
            assert union == node.members
        else:
            assert len(node.members) == 1


def test_serialization_round_trip(hand_tree, tmp_path):
    path = tmp_path / "tree.json"
    hand_tree.save(path)
    loaded = ClusterTree.load(path)
    assert loaded.root == hand_tree.root
    assert loaded.leaf_count == hand_tree.leaf_count
    for nid, node in hand_tree.nodes.items():
        other = loaded.nodes[nid]
        assert other.members == node.members
        assert other.birth == node.birth
        assert other.death == node.death
        assert other.parent == node.parent
        assert tuple(other.children) == tuple(node.children)


def test_serialization_golden(hand_tree):
    data = hand_tree.to_dict()
    expected = {
        "nodes": [
            {"id": 0, "members": ["0"], "birth": 0.0, "death": 1.0, "parent": 3, "children": []},
            {"id": 1, "members": ["1"], "birth": 0.0, "death": 1.0, "parent": 3, "children": []},
            {"id": 2, "members": ["2"], "birth": 0.0, "death": 2.0, "parent": 4, "children": []},
            {"id": 3, "members": ["0", "1"], "birth": 1.0, "death": 2.0, "parent": 4,
             "children": [0, 1]},
            {"id": 4, "members": ["0", "1", "2"], "birth": 2.0, "death": None, "parent": None,
             "children": [2, 3]},
        ],
        "root": 4,
    }
    assert json.loads(json.dumps(data)) == expected


def test_flat_tree_shape():
    tree = flat_tree(["a", "b", "c"], root_birth=2.5)
    assert tree.leaf_count == 3
    assert tree.alive_at(0.0) == {0, 1, 2}
    assert tree.alive_at(2.5) == {3}
    assert tree.tree_class_distance(0, 1) == 2.5


def test_single_class_tree_shape():
    tree = single_class_tree(["a", "b"])
    assert tree.leaf_count == 1
    assert tree.alive_at(0.0) == {0}
    assert tree.nodes[0].members == frozenset({"a", "b"})


def test_junction_merges_within_branch_first(junction_corpus):
    tree = single_linkage(distance_matrix(junction_corpus),
                          member_ids=[t.id for t in junction_corpus])
    # The last merge joins the two branches; every earlier merge stays inside one.
    internal = [tree.nodes[i] for i in sorted(tree.nodes) if not tree.nodes[i].is_leaf]
    for node in internal[:-1]:
        branches = {m.split("_")[0] for m in node.members}
        assert len(branches) == 1
    assert len({m.split("_")[0] for m in internal[-1].members}) == 2
    births = [n.birth for n in internal]
    assert births == sorted(births)


def test_render_text_lists_every_node(hand_tree):
    text = hand_tree.render_text()
    for nid in hand_tree.nodes:
        assert f"node {nid} " in text


def non_monotone_tree():
    """A loaded tree whose root is born before its child, with a death that is no birth.

    Leaf 2 is born at 0.25 and dies at 1.7; node 3 (born 2.0) dies at its
    parent's birth 1.5, so it is never alive, and leaves 0 and 1 outlive the root's birth.
    """
    return ClusterTree.from_dict({"nodes": [
        {"id": 0, "members": ["a"], "birth": 0.0, "death": 2.0, "parent": 3, "children": []},
        {"id": 1, "members": ["b"], "birth": 0.0, "death": 2.0, "parent": 3, "children": []},
        {"id": 2, "members": ["c"], "birth": 0.25, "death": 1.7, "parent": 4, "children": []},
        {"id": 3, "members": ["a", "b"], "birth": 2.0, "death": 1.5, "parent": 4,
         "children": [0, 1]},
        {"id": 4, "members": ["a", "b", "c"], "birth": 1.5, "death": None, "parent": None,
         "children": [2, 3]},
    ], "root": 4})


def oracle_trees():
    rng = np.random.default_rng(31)
    trees = [non_monotone_tree()]
    for i in range(30):
        m = int(rng.integers(1, 12))
        if i % 2:
            # Integer distances: many merges share a birth.
            a = rng.integers(1, 4, size=(m, m)).astype(float)
            d = np.triu(a, 1) + np.triu(a, 1).T
        else:
            d = random_distance_matrix(rng, m)
        trees.append(single_linkage(d))
    return trees


def test_cached_alive_sets_match_brute_force():
    for tree in oracle_trees():
        points = sorted({n.birth for n in tree.nodes.values()}
                        | {n.death for n in tree.nodes.values() if math.isfinite(n.death)})
        probes = set(points)
        probes |= {(a + b) / 2.0 for a, b in zip(points, points[1:])}
        probes |= {0.0, points[-1] + 1.0, tree.root_birth * 10.0 + 1.0, math.inf}
        for b in sorted(probes):
            assert tree.alive_at(b) == brute_alive(tree, b), b
            assert tree.alive_ids(b) == tuple(sorted(brute_alive(tree, b)))
        assert tree.alive_at(float("nan")) == set()
    tree = oracle_trees()[1]
    tree.alive_at(0.0).add(99)  # callers get their own copy of the cached set
    assert 99 not in tree.alive_at(0.0)


def test_lca_table_matches_parent_walk():
    for tree in oracle_trees():
        for a, b in itertools.product(tree.nodes, repeat=2):
            assert tree.tree_class_distance(a, b) == tree.nodes[walk_lca(tree, a, b)].birth


def test_membership_matches_leaves_under(hand_tree):
    leaves_seen = 0
    for tree in [hand_tree, *oracle_trees()]:
        under = {n: set() for n in tree.nodes}  # oracle: walk parent links up from each leaf
        for leaf in tree.leaves():
            n = leaf
            while n is not None:
                under[n].add(leaf)
                n = tree.nodes[n].parent
        for n in tree.nodes:
            assert tree.membership[tree.row(n)].tolist() == [c in under[n] for c in tree.leaves()]
            leaves_seen += len(under[n])
    assert leaves_seen > 0


def spoiled(tree, node=None, **fields):
    """`tree.to_dict()` with `fields` set on one node record, or on the top level."""
    data = tree.to_dict()
    (data if node is None else data["nodes"][node]).update(fields)
    return data


@pytest.mark.parametrize("make, message", [
    (lambda t: {"root": 0}, "tree: missing field 'nodes'"),
    (lambda t: [t.to_dict()], "tree: expected a JSON object, got list"),
    (lambda t: spoiled(t, nodes=7), "tree: malformed field 'nodes'"),
    (lambda t: {"nodes": t.to_dict()["nodes"]}, "tree: missing field 'root'"),
    (lambda t: spoiled(t, root="top"), "tree: malformed field 'root'"),
    (lambda t: spoiled(t, root=9), r"tree: unknown node ids \[9\]"),
    (lambda t: {"nodes": [[0], *t.to_dict()["nodes"][1:]], "root": 4},
     "node record 0: expected a JSON object, got list"),
    (lambda t: {"nodes": [{k: v for k, v in r.items() if k != "members"}
                          for r in t.to_dict()["nodes"]], "root": 4},
     "node record 0: missing field 'members'"),
    (lambda t: spoiled(t, 2, birth="x"), "node record 2: malformed field 'birth'"),
    (lambda t: spoiled(t, 3, children=[0, "one"]), "node record 3: malformed field 'children'"),
    (lambda t: spoiled(t, 1, parent=6), r"tree: unknown node ids \[6\]"),
    (lambda t: spoiled(t, nodes=[*t.to_dict()["nodes"], t.to_dict()["nodes"][0]]),
     "tree: repeated node id 0"),
    (lambda t: spoiled(t, 1, parent=4), "tree: node 3 lists child 1, whose parent is 4"),
    (lambda t: spoiled(t, 4, children=[2, 3, 0]), "tree: node 4 lists child 0, whose parent is 3"),
    # A node that lists itself as a child: a cycle.
    (lambda t: spoiled(t, 2, children=[2]), "tree: node 2 lists child 2, whose parent is 4"),
    (lambda t: spoiled(t, root=3), "tree: root 3 has parent 4"),
    (lambda t: spoiled(t, 3, children=[0, 1, 0]), "tree: node 0 is reached more than once"),
    # A self-parented cycle off the root, with links that confirm each other.
    (lambda t: spoiled(t, nodes=[*t.to_dict()["nodes"], {
        "id": 5, "members": ["0"], "birth": 0.0, "death": None, "parent": 5, "children": [5]}]),
     r"tree: nodes \[5\] are not reached from the root"),
    (lambda t: spoiled(t, 0, members=[]), "tree: leaf 0 has no members"),
    (lambda t: spoiled(t, 2, members=["0", "2"]), "tree: member '0' is under leaves 0 and 2"),
    (lambda t: spoiled(t, 4, members=["0", "1"]), "tree: members of node 4 are not the union"),
])
def test_tree_loader_names_the_bad_field(hand_tree, tmp_path, make, message):
    with pytest.raises(InvalidInputError, match=message):
        ClusterTree.from_dict(make(hand_tree))
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(make(hand_tree)))
    with pytest.raises(InvalidInputError, match=message) as exc:
        ClusterTree.load(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_partition_rejects_sets_that_do_not_cover_every_leaf_once(hand_tree):
    assert hand_tree.partition({3, 2}).ids == (2, 3)
    for bad in ({0, 1}, {3, 0, 2}, {4, 2}, {7}):
        with pytest.raises(InvalidInputError):
            hand_tree.partition(bad)
