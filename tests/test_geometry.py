import json
import time

import numpy as np
import pytest

from helpers import brute_force_frechet
from mhpf.errors import InvalidInputError
from mhpf.geometry import (Trajectory, distance_matrix, euclidean, frechet_distance,
                           load_trajectories, save_trajectories, validate_distance_matrix)


def test_euclidean_identity():
    assert euclidean((0, 0), (0, 0)) == 0.0


def test_euclidean_3_4_5():
    assert euclidean((0, 0), (3, 4)) == 5.0


def test_euclidean_matches_sum_of_squares_formula():
    rng = np.random.default_rng(3)
    a = rng.normal(size=5)
    b = rng.normal(size=5)
    expected = sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5
    assert euclidean(a, b) == pytest.approx(expected, abs=1e-12)


def test_euclidean_symmetric():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert euclidean(a, b) == euclidean(b, a)


def test_euclidean_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        euclidean((0, 0), (0, 0, 0))


def test_trajectory_rejects_nan():
    with pytest.raises(InvalidInputError):
        Trajectory("bad", np.array([[0.0, np.nan]]))


def test_trajectory_rejects_empty():
    with pytest.raises(InvalidInputError):
        Trajectory("bad", np.empty((0, 2)))


def test_frechet_identical_is_zero():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    assert frechet_distance(pts, pts.copy()) == 0.0


def test_frechet_single_points_reduce_to_euclidean():
    assert frechet_distance(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0


def test_frechet_hand_example_sqrt2():
    t1 = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    t2 = np.array([[0.0, 1.0], [2.0, 1.0]])
    assert frechet_distance(t1, t2) == pytest.approx(np.sqrt(2.0), abs=0)


def test_frechet_empty_rejected():
    with pytest.raises(InvalidInputError):
        frechet_distance(np.empty((0, 2)), np.array([[0.0, 0.0]]))


def test_frechet_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        frechet_distance(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0, 0.0]]))


def test_frechet_matches_brute_force_small():
    rng = np.random.default_rng(11)
    for _ in range(80):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        p = rng.integers(-4, 5, size=(n, 2)).astype(float)
        q = rng.integers(-4, 5, size=(m, 2)).astype(float)
        assert frechet_distance(p, q) == brute_force_frechet(p, q)


def test_frechet_symmetric():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = rng.normal(size=(int(rng.integers(1, 12)), 2))
        q = rng.normal(size=(int(rng.integers(1, 12)), 2))
        assert frechet_distance(p, q) == frechet_distance(q, p)


def test_frechet_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(50):
        t = [rng.normal(size=(int(rng.integers(1, 9)), 2)) for _ in range(3)]
        d01 = frechet_distance(t[0], t[1])
        d12 = frechet_distance(t[1], t[2])
        d02 = frechet_distance(t[0], t[2])
        assert d02 <= d01 + d12 + 1e-9


def test_frechet_endpoint_lower_bounds():
    rng = np.random.default_rng(14)
    for _ in range(30):
        p = rng.normal(size=(int(rng.integers(1, 10)), 2))
        q = rng.normal(size=(int(rng.integers(1, 10)), 2))
        d = frechet_distance(p, q)
        assert d >= euclidean(p[0], q[0]) - 1e-12
        assert d >= euclidean(p[-1], q[-1]) - 1e-12


def test_distance_matrix_single():
    d = distance_matrix([np.array([[0.0, 0.0], [1.0, 0.0]])])
    assert d.shape == (1, 1) and d[0, 0] == 0.0


def test_distance_matrix_identical_pair_zero():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    d = distance_matrix([pts, pts.copy()])
    assert np.all(d == 0.0)


def test_distance_matrix_matches_pairwise_calls():
    rng = np.random.default_rng(15)
    # Heterogeneous lengths exercise the stutter padding.
    trajs = [rng.normal(size=(int(rng.integers(1, 14)), 2)) for _ in range(6)]
    d = distance_matrix(trajs)
    validate_distance_matrix(d)
    for i in range(6):
        for j in range(6):
            assert d[i, j] == frechet_distance(trajs[i], trajs[j])


def test_distance_matrix_rejects_mixed_dims():
    with pytest.raises(InvalidInputError):
        distance_matrix([np.zeros((2, 2)), np.zeros((2, 3))])


@pytest.mark.slow
def test_distance_matrix_runtime_200x100():
    rng = np.random.default_rng(16)
    trajs = [np.cumsum(rng.normal(size=(100, 2)), axis=0) for _ in range(200)]
    start = time.monotonic()
    d = distance_matrix(trajs)
    elapsed = time.monotonic() - start
    validate_distance_matrix(d)
    assert elapsed < 60.0


def test_trajectory_jsonl_round_trip(tmp_path):
    trajs = [Trajectory("a", np.array([[0.0, 1.0], [2.0, 3.0]])),
             Trajectory("b", np.array([[5.0, 5.0]]))]
    path = tmp_path / "t.jsonl"
    save_trajectories(path, trajs)
    loaded = load_trajectories(path)
    assert [t.id for t in loaded] == ["a", "b"]
    assert np.array_equal(loaded[0].points, trajs[0].points)


def test_trajectory_reader_rejects_ragged_points(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "x", "points": [[0, 0], [1]]}) + "\n")
    with pytest.raises(InvalidInputError):
        load_trajectories(path)


@pytest.mark.parametrize("record, message", [
    ({"id": "x", "pts": []}, "missing field 'points'"),
    ({"points": [[0, 0]]}, "missing field 'id'"),
    ([[0, 0]], "expected a JSON object, got list"),
    ({"id": "x", "points": 5}, "points must be a non-empty list of points"),
    ({"id": "x", "points": []}, "points must be a non-empty list of points"),
    ({"id": "x", "points": [[0, "a"]]}, "malformed field 'points'"),
])
def test_trajectory_reader_names_the_line_and_field(tmp_path, record, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "ok", "points": [[0, 0]]}) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(InvalidInputError, match=message) as exc:
        load_trajectories(path)
    assert str(exc.value).startswith(f"{path}:2: ")


def test_trajectory_reader_rejects_cross_record_dims(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [json.dumps({"id": "x", "points": [[0, 0]]}),
             json.dumps({"id": "y", "points": [[0, 0, 0]]})]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError):
        load_trajectories(path)
