"""Trajectory primitives and the discrete Frechet distance.

A trajectory is an ordered sequence of d-dimensional points. The discrete
Frechet distance between two trajectories is the minimum over monotone
point couplings of the maximum pointwise Euclidean distance (Eiter and
Mannila 1994). One dynamic program computes it for a list of trajectory
pairs at once: the pairs go in blocks of B with B * (P + Q) at most
_FRECHET_BLOCK_POINTS, each block stored pair-minor so that one antidiagonal
of every pair's coupling grid is one contiguous slice. The recursion computes
each antidiagonal's squared point distances as it reaches them, keeps three
rolling rows, and takes one square root at the end, so no (P, Q) array of
distances is ever held.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, record_field

# A block of B pairs holds B * (P + Q) <= this many points (128 pairs of 100-point
# trajectories), so its scratch stays near 1 MB for planar points at any corpus size.
_FRECHET_BLOCK_POINTS = 25_600


def euclidean(a, b) -> float:
    """L2 distance between two points of equal dimension."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Trajectory:
    """An identified, ordered, finite sequence of d-dimensional points.

    The points are a read-only copy, so the per-trajectory facts derived from
    them (`velocities`, `speeds`, `bounds`) are computed once, on first use,
    and shared by every corpus, tree and scenario that holds the trajectory.
    """

    id: str
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InvalidInputError(f"trajectory {self.id!r}: points must be a non-empty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError(f"trajectory {self.id!r}: non-finite coordinates")
        object.__setattr__(self, "points", _read_only(pts.copy()))

    def __reduce__(self):
        # Unpickled arrays are writable; rebuilding through __post_init__ makes
        # the points read-only again, and leaves the cached facts to be recomputed.
        return Trajectory, (self.id, self.points)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def velocities(self) -> np.ndarray:
        """(n-1, d) read-only consecutive differences next - current."""
        return _read_only(np.diff(self.points, axis=0))

    @cached_property
    def speeds(self) -> np.ndarray:
        """(n-1,) read-only Euclidean lengths of `velocities`."""
        return _read_only(np.sqrt((self.velocities ** 2).sum(axis=1)))

    @cached_property
    def bounds(self) -> np.ndarray:
        """(2, d) read-only per-coordinate minimum (row 0) and maximum (row 1)."""
        return _read_only(np.stack([self.points.min(axis=0), self.points.max(axis=0)]))

    def arc_length(self) -> float:
        return float(self.speeds.sum())


def _as_points(t) -> np.ndarray:
    if isinstance(t, Trajectory):
        return t.points
    pts = np.asarray(t, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InvalidInputError("trajectory must be a non-empty (n, d) array")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("trajectory has non-finite coordinates")
    return pts


def _frechet_pairs(x: np.ndarray, y: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Discrete Frechet distances between x[..., ia[s]] and y[..., ib[s]] for every s.

    `x` (d, P, m) and `y` (d, Q, n) hold trajectories pair-minor (point p of
    trajectory a is x[:, p, a]). A block of B pairs is copied into X (d, P, B)
    and, points reversed, Yr (d, Q, B): the cells (i, k-i) of antidiagonal k
    of every pair are then one contiguous slice of each, whose squared point
    distances are summed in coordinate order as the recursion reaches them.
    Cell (i, j) needs C[i, j-1] and C[i-1, j] from antidiagonal k-1 and
    C[i-1, j-1] from k-2, so three rolling (P+1, B) rows suffice: slot i+1
    holds cell i; slot 0 and every slot not yet reached stay +inf. sqrt is
    monotone and correctly rounded, so one sqrt of the squared min/max equals
    the min/max of the roots bit for bit. Besides a reversed copy of `y`,
    scratch memory is O(d B (P+Q)); no (P, Q) array is made.
    """
    dim, P, Q = x.shape[0], x.shape[1], y.shape[1]
    n = len(ia)
    size = max(1, min(n, _FRECHET_BLOCK_POINTS // (P + Q)))
    y_rev = np.ascontiguousarray(y[:, ::-1])
    X = np.empty((dim, P, size))
    Yr = np.empty((dim, Q, size))
    sq = np.empty((dim, min(P, Q), size))
    rows = np.empty((3, P + 1, size))
    out = np.empty(n)
    for start in range(0, n, size):
        # A short last block is moved back to end at the last pair; the pairs
        # it shares with its predecessor get the same values again.
        start = min(start, n - size)
        np.take(x, ia[start:start + size], axis=2, out=X, mode="clip")
        np.take(y_rev, ib[start:start + size], axis=2, out=Yr, mode="clip")
        rows.fill(np.inf)
        for k in range(P + Q - 1):
            lo, hi = max(0, k - Q + 1), min(k, P - 1)
            diff = sq[:, :hi - lo + 1]
            np.subtract(X[:, lo:hi + 1], Yr[:, Q - 1 - k + lo:Q - k + hi], out=diff)
            np.square(diff, out=diff)
            dist = diff[0]
            for c in range(1, dim):
                dist += diff[c]
            cur = rows[k % 3, lo + 1:hi + 2]  # C[i, j] for i in lo..hi
            if k == 0:
                cur[...] = dist
                continue
            prev, prev2 = rows[(k - 1) % 3], rows[(k - 2) % 3]
            np.minimum(prev[lo + 1:hi + 2], prev[lo:hi + 1], out=cur)  # C[i, j-1], C[i-1, j]
            np.minimum(cur, prev2[lo:hi + 1], out=cur)  # C[i-1, j-1]
            np.maximum(cur, dist, out=cur)
        out[start:start + size] = rows[(P + Q - 2) % 3, P]
    return np.sqrt(out, out=out)


def frechet_distance(t1, t2) -> float:
    """Discrete Frechet distance between two trajectories of equal dimension."""
    p = _as_points(t1)
    q = _as_points(t2)
    if p.shape[1] != q.shape[1]:
        raise InvalidInputError(f"dimension mismatch: {p.shape[1]} vs {q.shape[1]}")
    return float(_frechet_pairs(p.T[:, :, None], q.T[:, :, None], [0], [0])[0])


def check_common_dim(trajectories) -> None:
    """Reject an empty list of trajectories or (n, d) arrays, or one of mixed dimensions."""
    dims = {t.shape[1] if isinstance(t, np.ndarray) else t.dim for t in trajectories}
    if not dims:
        raise InvalidInputError("need at least one trajectory")
    if len(dims) > 1:
        raise InvalidInputError(f"trajectories must share one dimension, got {sorted(dims)}")


def _pad_to(pts: np.ndarray, length: int) -> np.ndarray:
    # Repeating the final point leaves the discrete Frechet distance unchanged:
    # couplings may dwell on a point, so stuttered sequences realize pairings of
    # exactly the same Euclidean values.
    if pts.shape[0] == length:
        return pts
    tail = np.repeat(pts[-1:, :], length - pts.shape[0], axis=0)
    return np.vstack([pts, tail])


def distance_matrix(trajectories) -> np.ndarray:
    """All-pairs discrete Frechet matrix.

    Trajectories are padded to the longest by repeating their last point and
    stacked pair-minor as (d, P, m); the upper-triangle pairs, in row-major
    order, go through one blocked coupling DP (`_frechet_pairs`).
    """
    pts = [_as_points(t) for t in trajectories]
    check_common_dim(pts)
    m = len(pts)
    longest = max(p.shape[0] for p in pts)
    block = np.stack([_pad_to(p, longest).T for p in pts], axis=2)
    ia, ib = np.triu_indices(m, 1)
    out = np.zeros((m, m))
    out[ia, ib] = out[ib, ia] = _frechet_pairs(block, block, ia, ib)
    return out


def validate_distance_matrix(d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 1:
        raise InvalidInputError("distance matrix must be square and non-empty")
    if not np.all(np.isfinite(d)):
        raise InvalidInputError("distance matrix has non-finite entries")
    if np.any(d < 0):
        raise InvalidInputError("distance matrix has negative entries")
    if np.any(np.diag(d) != 0):
        raise InvalidInputError("distance matrix diagonal must be zero")
    if not np.array_equal(d, d.T):
        raise InvalidInputError("distance matrix must be symmetric")
    return d


def save_trajectories(path, trajectories) -> None:
    """Write newline-delimited JSON records {"id", "points"}."""
    with open(path, "w") as fh:
        for t in trajectories:
            rec = {"id": t.id, "points": t.points.tolist()}
            fh.write(json.dumps(rec) + "\n")


def load_trajectories(path) -> list[Trajectory]:
    """Read newline-delimited trajectory records.

    A record that is not an object, lacks `id` or `points`, has ragged,
    non-numeric or mixed-dimension points, or repeats an earlier record's id
    raises InvalidInputError naming its line.
    """
    out: list[Trajectory] = []
    first_line: dict[str, int] = {}
    dim = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            where = f"{path}:{lineno}"
            # Ragged or non-numeric points fail the conversion as malformed.
            pts = record_field(rec, "points", lambda p: np.asarray(p, dtype=float), where)
            if pts.ndim != 2 or len(pts) == 0:
                raise InvalidInputError(f"{where}: points must be a non-empty list of points")
            t = Trajectory(record_field(rec, "id", str, where), pts)
            if dim is None:
                dim = t.dim
            elif t.dim != dim:
                raise InvalidInputError(f"{where}: dimension {t.dim} != {dim}")
            if t.id in first_line:
                raise InvalidInputError(f"{where}: duplicate trajectory id {t.id!r} "
                                        f"(first on line {first_line[t.id]})")
            first_line[t.id] = lineno
            out.append(t)
    if not out:
        raise InvalidInputError(f"{path}: no trajectory records")
    return out
