"""Procedural trajectory corpora and density-grid random walks.

The corpora the filters are exercised on are regenerated rather than shipped:
a Y-junction family, a fixed-endpoints family of bundled lanes, an obstacle
world with corridor templates, and weighted random walks over a density grid
(with a builtin harbor-like grid). All generators are deterministic under a
fixed Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, InvalidInputError
from .geometry import Trajectory

# Points per generated trajectory of the junction corpus, and of the lanes of
# the fixed-endpoints and obstacle corpora.
JUNCTION_POINTS = 40
LANE_POINTS = 80
# Candidate routes drawn per obstacle-world trajectory before giving up.
OBSTACLE_TRIES = 50


def discretize_uniform(t: Trajectory, n_points: int) -> Trajectory:
    """Arc-length uniform resampling to n_points; endpoints preserved exactly."""
    if n_points < 2:
        raise InvalidInputError("n_points must be >= 2")
    pts = t.points
    if len(pts) < 2:
        raise InvalidInputError(f"trajectory {t.id!r}: nothing to discretize")
    seg = np.sqrt((np.diff(pts, axis=0) ** 2).sum(axis=1))
    total = seg.sum()
    if total <= 0:
        raise InvalidInputError(f"trajectory {t.id!r}: zero arc length")
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, total, n_points)
    out = np.column_stack([np.interp(targets, cum, pts[:, k]) for k in range(pts.shape[1])])
    out[0] = pts[0]
    out[-1] = pts[-1]
    return Trajectory(t.id, out)


def gen_junction(n_branches: int, per_branch: int, jitter: float,
                 rng: np.random.Generator) -> list[Trajectory]:
    """Trajectories sharing a stem, then fanning into jittered branches."""
    if n_branches < 2:
        raise InvalidInputError("need at least two branches")
    stem_start = np.array([0.0, -4.0])
    fork = np.array([0.0, 0.0])
    angles = np.linspace(-math.pi / 3, math.pi / 3, n_branches)
    out = []
    for b, theta in enumerate(angles):
        tip = fork + 6.0 * np.array([math.sin(theta), math.cos(theta)])
        base = discretize_uniform(
            Trajectory("base", np.vstack([stem_start, fork, tip])), JUNCTION_POINTS).points
        for k in range(per_branch):
            pts = base + rng.uniform(-jitter, jitter, size=base.shape)
            out.append(Trajectory(f"jct{b}_{k}", pts))
    return out


_LANE_AMPS_13 = [
    # Lane amplitudes, four tight bundles: lanes within a bundle sit 0.3
    # apart, bundles on one side 1.5 apart, and the two sides 3.4 apart. The
    # cluster tree then has three separated scales (bundle births ~0.6,
    # same-side merges ~1.5, root ~3.4), so bundle identity is a meaningful
    # mid-tree question while side confusion costs the full root birth.
    4.7, 4.4, 4.1, 3.8,
    2.3, 2.0, 1.7,
    -1.7, -2.0, -2.3,
    -3.8, -4.1, -4.4,
]


def gen_fixed_endpoints(n: int, rng: np.random.Generator) -> list[Trajectory]:
    """n lane trajectories all sharing the exact same start and end point."""
    if n < 1:
        raise InvalidInputError("need at least one trajectory")
    start = np.array([0.0, 0.0])
    end = np.array([10.0, 0.0])
    amps = [_LANE_AMPS_13[i % len(_LANE_AMPS_13)] for i in range(n)]
    ts = np.linspace(0.0, 1.0, LANE_POINTS)
    out = []
    for i, amp in enumerate(amps):
        amp = amp + rng.uniform(-0.08, 0.08)
        y = amp * np.sin(math.pi * ts)
        pts = np.column_stack([ts * (end[0] - start[0]) + start[0], y])
        pts[1:-1] += rng.uniform(-0.05, 0.05, size=pts[1:-1].shape)
        pts[0] = start
        pts[-1] = end
        out.append(Trajectory(f"fix{i:02d}", pts))
    return out


# Axis-aligned obstacles (xmin, ymin, xmax, ymax) and corridor waypoint
# templates that route around them.
OBSTACLES = [
    (3.0, 1.2, 4.2, 3.4),
    (6.2, 2.8, 7.4, 5.0),
]

_CORRIDORS = [
    [(3.6, 0.5), (6.8, 1.6)],   # below both
    [(3.6, 4.4), (6.8, 5.6)],   # above first, above second
    [(3.6, 4.4), (6.8, 1.6)],   # above first, below second
    [(3.6, 0.5), (5.4, 2.2), (6.8, 1.6)],  # below, through the middle gap
]


def _inside_any_obstacle(pts: np.ndarray, margin: float = 0.0) -> bool:
    for (x0, y0, x1, y1) in OBSTACLES:
        hit = ((pts[:, 0] > x0 - margin) & (pts[:, 0] < x1 + margin)
               & (pts[:, 1] > y0 - margin) & (pts[:, 1] < y1 + margin))
        if hit.any():
            return True
    return False


def gen_obstacle_world(n: int, rng: np.random.Generator) -> list[Trajectory]:
    """n collision-free lane trajectories with varied start/end positions."""
    if n < 1:
        raise InvalidInputError("need at least one trajectory")
    out = []
    for i in range(n):
        template = _CORRIDORS[i % len(_CORRIDORS)]
        for attempt in range(OBSTACLE_TRIES):
            start = np.array([rng.uniform(0.0, 0.5), rng.uniform(0.5, 5.5)])
            end = np.array([rng.uniform(9.5, 10.0), rng.uniform(0.5, 5.5)])
            way = [start]
            for wx, wy in template:
                way.append(np.array([wx + rng.uniform(-0.25, 0.25),
                                     wy + rng.uniform(-0.25, 0.25)]))
            way.append(end)
            path = discretize_uniform(Trajectory("cand", np.vstack(way)), LANE_POINTS)
            if not _inside_any_obstacle(path.points, margin=0.05):
                out.append(Trajectory(f"obs{i:02d}", path.points))
                break
        else:
            raise GenerationError(f"could not route trajectory {i} in {OBSTACLE_TRIES} tries")
    return out


@dataclass
class DensityGrid:
    """Row-major occupancy densities; cells[row, col] >= 0."""

    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=float)
        if cells.ndim != 2:
            raise InvalidInputError("grid must be 2-d")
        if np.any(cells < 0) or not np.all(np.isfinite(cells)):
            raise InvalidInputError("grid densities must be finite and >= 0")
        if not np.any(cells > 0):
            raise InvalidInputError("grid must contain at least one positive cell")
        self.cells = cells

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]


@dataclass
class WalkConfig:
    n_trajectories: int
    starts: list[tuple[int, int]]  # (col, row)
    max_steps: int = 400
    direction_persistence: float = 0.8
    density_exponent: float = 1.0

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise InvalidInputError("need at least one trajectory")
        if not self.starts:
            raise InvalidInputError("need at least one start cell")
        if not (0.0 <= self.direction_persistence <= 1.0):
            raise InvalidInputError("direction_persistence must be in [0, 1]")
        if self.density_exponent < 0:
            raise InvalidInputError("density_exponent must be >= 0")


_MOVES = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _walk_once(grid: DensityGrid, start, cfg: WalkConfig, rng) -> np.ndarray:
    col, row = int(start[0]), int(start[1])
    cells = grid.cells
    h, w = cells.shape
    if not (0 <= col < w and 0 <= row < h):
        raise InvalidInputError(f"start cell {start} outside grid")
    if cells[row, col] <= 0:
        raise InvalidInputError(f"start cell {start} has zero density")
    path = [(col + 0.5, row + 0.5)]
    prev = None
    for _ in range(cfg.max_steps):
        cands = []
        weights = []
        for dc, dr in _MOVES:
            c, r = col + dc, row + dr
            if 0 <= c < w and 0 <= r < h and cells[r, c] > 0:
                cands.append((dc, dr))
                weights.append(cells[r, c] ** cfg.density_exponent)
        if not cands:
            break
        move = None
        if prev is not None and prev in cands and rng.random() < cfg.direction_persistence:
            move = prev
        else:
            p = np.asarray(weights)
            p = p / p.sum()
            move = cands[int(rng.choice(len(cands), p=p))]
        col += move[0]
        row += move[1]
        prev = move
        path.append((col + 0.5, row + 0.5))
    return np.asarray(path)


def walk_from_density(grid: DensityGrid, cfg: WalkConfig,
                      rng: np.random.Generator) -> list[Trajectory]:
    """Weighted random walks: denser neighbors attract, headings persist.

    Walks round-robin over the start cells and stop at max_steps or a
    zero-density dead end.
    """
    out = []
    for i in range(cfg.n_trajectories):
        start = cfg.starts[i % len(cfg.starts)]
        out.append(Trajectory(f"walk{i:03d}", _walk_once(grid, start, cfg, rng)))
    return out


def load_density_grid(path) -> DensityGrid:
    """Read an ASCII grid ("width height" header, row-major reals) or 8-bit PGM."""
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head in (b"P2", b"P5"):
        return _load_pgm(path)
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise InvalidInputError(f"{path}: not a grid file")
    w, h = int(tokens[0]), int(tokens[1])
    vals = np.asarray([float(x) for x in tokens[2:]])
    if vals.size != w * h:
        raise InvalidInputError(f"{path}: expected {w * h} cells, found {vals.size}")
    return DensityGrid(vals.reshape(h, w))


def save_density_grid(path, grid: DensityGrid) -> None:
    with open(path, "w") as fh:
        fh.write(f"{grid.width} {grid.height}\n")
        for row in grid.cells:
            fh.write(" ".join(f"{v:g}" for v in row) + "\n")


def _load_pgm(path) -> DensityGrid:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        tok = b""
        while pos < len(data) and not data[pos:pos + 1].isspace():
            tok += data[pos:pos + 1]
            pos += 1
        tokens.append(tok)
    magic, w, h, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval > 255:
        raise InvalidInputError(f"{path}: only 8-bit PGM supported")
    if magic == b"P5":
        raw = np.frombuffer(data[pos + 1:pos + 1 + w * h], dtype=np.uint8)
    elif magic == b"P2":
        raw = np.asarray([int(x) for x in data[pos:].split()[:w * h]], dtype=np.uint8)
    else:
        raise InvalidInputError(f"{path}: not a PGM file")
    if raw.size != w * h:
        raise InvalidInputError(f"{path}: truncated pixel data")
    return DensityGrid(raw.reshape(h, w).astype(float) / 255.0)


# -- harbor-like corpus ------------------------------------------------------

_HARBOR_LANES = [
    [(6, 44), (30, 40), (58, 34), (86, 28), (112, 24)],
    [(6, 44), (28, 48), (52, 56), (80, 64), (112, 70)],
    [(60, 6), (58, 22), (58, 34), (60, 50), (64, 70)],
    [(6, 12), (30, 18), (58, 34), (88, 52), (112, 70)],
]


# The builtin harbor grid: its size and its lanes' Gaussian width, in cells.
HARBOR_WIDTH, HARBOR_HEIGHT = 120, 80
HARBOR_LANE_WIDTH = 2.5
# Harbor corpus walks: steps per walk, the fewest raw points a kept walk has,
# and the walks tried per requested trajectory before giving up.
HARBOR_MAX_STEPS = 260
HARBOR_MIN_RAW_POINTS = 30
HARBOR_TRIES_FACTOR = 20


def harbor_grid() -> tuple[DensityGrid, list[tuple[int, int]]]:
    """Synthetic harbor traffic density: Gaussian ridges along shipping lanes.

    Returns the grid plus the manually selected lane-entry start cells.
    """
    cols, rows = np.meshgrid(np.arange(HARBOR_WIDTH) + 0.5, np.arange(HARBOR_HEIGHT) + 0.5)
    cells = np.zeros((HARBOR_HEIGHT, HARBOR_WIDTH))
    for lane in _HARBOR_LANES:
        pts = np.asarray(lane, dtype=float)
        for a, b in zip(pts[:-1], pts[1:]):
            d = _segment_distance(cols, rows, a, b)
            cells += np.exp(-d ** 2 / (2 * HARBOR_LANE_WIDTH ** 2))
    cells[cells < 0.05] = 0.0
    starts = [(int(lane[0][0]), int(lane[0][1])) for lane in _HARBOR_LANES]
    starts += [(int(lane[-1][0]), int(lane[-1][1])) for lane in _HARBOR_LANES]
    return DensityGrid(cells), starts


def _segment_distance(px, py, a, b):
    ab = b - a
    denom = float(ab @ ab)
    tx = ((px - a[0]) * ab[0] + (py - a[1]) * ab[1]) / denom
    tx = np.clip(tx, 0.0, 1.0)
    qx = a[0] + tx * ab[0]
    qy = a[1] + tx * ab[1]
    return np.sqrt((px - qx) ** 2 + (py - qy) ** 2)


def gen_harbor_corpus(n: int, rng: np.random.Generator, n_points: int = 100) -> list[Trajectory]:
    """n density-walk trajectories over the builtin harbor grid."""
    grid, starts = harbor_grid()
    cfg = WalkConfig(n_trajectories=1, starts=starts, max_steps=HARBOR_MAX_STEPS,
                     direction_persistence=0.8, density_exponent=1.0)
    out: list[Trajectory] = []
    tries = 0
    while len(out) < n:
        tries += 1
        if tries > HARBOR_TRIES_FACTOR * n:
            raise GenerationError(f"harbor corpus: too many rejected walks ({tries})")
        start = starts[(len(out) + tries) % len(starts)]
        pts = _walk_once(grid, start, cfg, rng)
        if len(pts) < HARBOR_MIN_RAW_POINTS:
            continue
        t = discretize_uniform(Trajectory(f"walk{len(out):03d}", pts), n_points)
        out.append(t)
    return out


# Trajectories in a procedural corpus when no count is given.
DEFAULT_SIZES = {"junction": 14, "fixed": 13, "obstacle": 33, "harbor": 194}


def generate(kind: str, n: int | None, rng: np.random.Generator, n_points: int = 100,
             branches: int = 2, jitter: float = 0.15) -> list[Trajectory]:
    """The procedural corpus `kind` of about n trajectories (DEFAULT_SIZES if n is falsy).

    A junction corpus has n // branches trajectories per branch, at least
    one; harbor walks are resampled to n_points.
    """
    if kind not in DEFAULT_SIZES:
        raise InvalidInputError(f"unknown corpus kind {kind!r}")
    n = n or DEFAULT_SIZES[kind]
    if kind == "junction":
        if branches < 2:
            raise InvalidInputError("need at least two branches")
        return gen_junction(branches, max(1, n // branches), jitter, rng)
    if kind == "fixed":
        return gen_fixed_endpoints(n, rng)
    if kind == "obstacle":
        return gen_obstacle_world(n, rng)
    return gen_harbor_corpus(n, rng, n_points=n_points)
