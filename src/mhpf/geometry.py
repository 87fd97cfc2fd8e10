"""Trajectory primitives and the discrete Frechet distance.

A trajectory is an ordered sequence of d-dimensional points. The discrete
Frechet distance between two trajectories is the minimum over monotone
point couplings of the maximum pointwise Euclidean distance; it is computed
by dynamic programming over antidiagonals, which keeps memory at two rows
and lets the all-pairs matrix batch many pairs per numpy call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, record_field


def euclidean(a, b) -> float:
    """L2 distance between two points of equal dimension."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


@dataclass(frozen=True)
class Trajectory:
    """An identified, ordered, finite sequence of d-dimensional points."""

    id: str
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InvalidInputError(f"trajectory {self.id!r}: points must be a non-empty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError(f"trajectory {self.id!r}: non-finite coordinates")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def arc_length(self) -> float:
        if len(self) < 2:
            return 0.0
        return float(np.sqrt((np.diff(self.points, axis=0) ** 2).sum(axis=1)).sum())


def _as_points(t) -> np.ndarray:
    if isinstance(t, Trajectory):
        return t.points
    pts = np.asarray(t, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InvalidInputError("trajectory must be a non-empty (n, d) array")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("trajectory has non-finite coordinates")
    return pts


def _frechet_batch(p: np.ndarray, q_block: np.ndarray) -> np.ndarray:
    """Discrete Frechet distances between `p` (P, d) and a block (B, Q, d).

    Runs the coupling DP along antidiagonals k = i + j. Cell (i, j) needs
    C[i, j-1] and C[i-1, j] from diagonal k-1 and C[i-1, j-1] from k-2, so two
    rolling (B, P) slabs suffice; out-of-range entries are +inf and the k = 0
    base case seeds the recursion.
    """
    P = p.shape[0]
    B, Q, _ = q_block.shape
    prev = np.full((B, P), np.inf)
    prev2 = np.full((B, P), np.inf)
    for k in range(P + Q - 1):
        lo = max(0, k - Q + 1)
        hi = min(k, P - 1)
        ps = p[lo:hi + 1]
        qs = q_block[:, k - hi:k - lo + 1][:, ::-1]
        dk = np.sqrt(np.sum((ps[None, :, :] - qs) ** 2, axis=-1))
        cur = np.full((B, P), np.inf)
        if k == 0:
            cur[:, 0] = dk[:, 0]
        else:
            # At index i: C[i, j-1] = prev[i]; C[i-1, j] = prev[i-1];
            # C[i-1, j-1] = prev2[i-1]. Missing predecessors stay +inf.
            best = prev.copy()
            best[:, 1:] = np.minimum(best[:, 1:], np.minimum(prev[:, :-1], prev2[:, :-1]))
            cur[:, lo:hi + 1] = np.maximum(dk, best[:, lo:hi + 1])
        prev2 = prev
        prev = cur
    return prev[:, P - 1]


def frechet_distance(t1, t2) -> float:
    """Discrete Frechet distance between two trajectories of equal dimension."""
    p = _as_points(t1)
    q = _as_points(t2)
    if p.shape[1] != q.shape[1]:
        raise InvalidInputError(f"dimension mismatch: {p.shape[1]} vs {q.shape[1]}")
    return float(_frechet_batch(p, q[None, :, :])[0])


def _pad_to(pts: np.ndarray, length: int) -> np.ndarray:
    # Repeating the final point leaves the discrete Frechet distance unchanged:
    # couplings may dwell on a point, so stuttered sequences realize pairings of
    # exactly the same Euclidean values.
    if pts.shape[0] == length:
        return pts
    tail = np.repeat(pts[-1:, :], length - pts.shape[0], axis=0)
    return np.vstack([pts, tail])


def distance_matrix(trajectories) -> np.ndarray:
    """All-pairs discrete Frechet matrix, batched one row at a time."""
    pts = [_as_points(t) for t in trajectories]
    if len(pts) == 0:
        raise InvalidInputError("need at least one trajectory")
    dim = pts[0].shape[1]
    for p in pts:
        if p.shape[1] != dim:
            raise InvalidInputError("trajectories must share one dimension")
    m = len(pts)
    longest = max(p.shape[0] for p in pts)
    block = np.stack([_pad_to(p, longest) for p in pts])
    out = np.zeros((m, m))
    for i in range(m - 1):
        row = _frechet_batch(block[i], block[i + 1:])
        out[i, i + 1:] = row
        out[i + 1:, i] = row
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

    A record that is not an object, lacks `id` or `points`, or has ragged,
    non-numeric or mixed-dimension points raises InvalidInputError naming its line.
    """
    out: list[Trajectory] = []
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
            out.append(t)
    if not out:
        raise InvalidInputError(f"{path}: no trajectory records")
    return out
