"""Fine and coarse observation streams from a ground-truth trajectory.

Fine observations are the truth position plus one-sided per-coordinate
uniform noise on [0, psi * L], where L is the corpus bounding-box diagonal
(psi is therefore a dimensionless noise fraction). Coarse observations draw a
handful of Gaussian samples around the truth position and name the class,
among those alive at the requested tree level, whose member points are
generatively closest to the samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .stack import CoarseObservation, FineObservation


@dataclass
class ObsConfig:
    psi: float
    n_coarse_samples: int = 10
    coarse_prob: float = 0.0
    coarse_level: float | None = None
    lead_in_fraction: float = 0.0
    mode: str = "mixed"  # "mixed" | "lead_in"
    coarse_replaces_fine: bool = False

    def __post_init__(self):
        if self.psi < 0:
            raise InvalidInputError("psi must be >= 0")
        if not (0.0 <= self.coarse_prob <= 1.0):
            raise InvalidInputError("coarse_prob must be in [0, 1]")
        if not (0.0 <= self.lead_in_fraction <= 1.0):
            raise InvalidInputError("lead_in_fraction must be in [0, 1]")
        if self.mode not in ("mixed", "lead_in"):
            raise InvalidInputError(f"unknown observation mode {self.mode!r}")
        if self.n_coarse_samples < 1:
            raise InvalidInputError("n_coarse_samples must be >= 1")


def bbox_diagonal(trajectories) -> float:
    """Diagonal of the axis-aligned bounding box of all trajectory points."""
    pts = np.vstack([t.points for t in trajectories])
    span = pts.max(axis=0) - pts.min(axis=0)
    return float(np.sqrt((span ** 2).sum()))


def gen_fine(z, psi: float, scale: float, rng: np.random.Generator) -> FineObservation:
    """Noisy position observation: truth plus uniform offsets on [0, psi*scale]."""
    if psi < 0:
        raise InvalidInputError("psi must be >= 0")
    z = np.asarray(z, dtype=float)
    return FineObservation(z + rng.uniform(0.0, psi * scale, size=z.shape))


class ClassPointIndex:
    """Member-trajectory points of every leaf class, stacked in leaf order.

    Built on first use. A class's nearest point to a query is the nearest
    over the leaves under it (`ClusterTree.membership`).
    """

    def __init__(self, tree, trajectories):
        self.tree = tree
        self._by_id = {t.id: t for t in trajectories}
        self._points: np.ndarray | None = None
        self._starts: np.ndarray | None = None

    def _leaf_points(self):
        if self._points is None:
            blocks = [np.vstack([self._by_id[m].points for m in sorted(self.tree.nodes[c].members)])
                      for c in self.tree.leaves()]
            self._starts = np.cumsum([0] + [len(b) for b in blocks[:-1]])
            self._points = np.vstack(blocks)
        return self._points, self._starts

    def nearest_distances(self, samples: np.ndarray, class_ids) -> np.ndarray:
        """(class, sample) Euclidean distance from each sample to the class's nearest point."""
        points, starts = self._leaf_points()
        # Squared distances summed coordinate by coordinate, as a KD-tree
        # query sums them, so that both give the same bits.
        sq = np.zeros((len(samples), len(points)))
        for k in range(points.shape[1]):
            diff = samples[:, k, None] - points[None, :, k]
            diff *= diff
            sq += diff
        leaf_d = np.sqrt(np.minimum.reduceat(sq, starts, axis=1)).T  # (leaf, sample)
        member = self.tree.membership[[self.tree.row(c) for c in class_ids]]
        return np.where(member[:, :, None], leaf_d[None], np.inf).min(axis=1)


def gen_coarse(z, psi: float, tree, trajectories, level: float, n: int,
               rng: np.random.Generator, scale: float | None = None,
               index: ClassPointIndex | None = None) -> CoarseObservation:
    """Class-level observation at the given tree level.

    Draws n points from an isotropic Gaussian of standard deviation psi*scale
    around z and scores every alive class by a Gaussian kernel on each
    sample's nearest-member-point distance. The kernel bandwidth cancels in
    the argmax, so the winner is the class minimizing the summed squared
    nearest-point distances; ties break toward the smallest node id.
    """
    if level < 0:
        raise InvalidInputError("level must be >= 0")
    if n < 1:
        raise InvalidInputError("need at least one coarse sample")
    if scale is None:
        scale = bbox_diagonal(trajectories)
    if index is None:
        index = ClassPointIndex(tree, trajectories)
    z = np.asarray(z, dtype=float)
    samples = z + rng.normal(0.0, psi * scale, size=(n, z.shape[0]))
    alive = tree.alive_ids(level)
    scores = (index.nearest_distances(samples, alive) ** 2).sum(axis=1)
    return CoarseObservation(int(alive[int(np.argmin(scores))]), float(level))


def default_coarse_level(tree) -> float:
    """The first level whose alive set has at most ceil(M/2) classes."""
    target = max(2, math.ceil(tree.leaf_count / 2))
    for b in tree.unique_births():
        if len(tree.alive_at(b)) <= target:
            return float(b)
    return float(tree.root_birth)


def observation_plan(truth_points, cfg: ObsConfig, tree, trajectories,
                     scale: float, rng: np.random.Generator,
                     index: ClassPointIndex | None = None) -> list[list]:
    """Per-step observation lists for steps 1..T-1 of a discretized truth.

    "mixed" emits a fine observation every step and, with probability
    coarse_prob, a coarse one as well (or instead, with
    coarse_replaces_fine). "lead_in" emits fine-only during the lead-in
    fraction of the trial, then coarse-only.
    """
    if index is None:
        index = ClassPointIndex(tree, trajectories)
    level = cfg.coarse_level if cfg.coarse_level is not None else default_coarse_level(tree)
    pts = np.asarray(truth_points, dtype=float)
    steps = len(pts) - 1
    lead = int(round(cfg.lead_in_fraction * steps))
    plan: list[list] = []
    for t in range(1, steps + 1):
        z = pts[t]
        obs: list = []
        if cfg.mode == "mixed":
            fine = gen_fine(z, cfg.psi, scale, rng)
            coarse = None
            if cfg.coarse_prob > 0 and rng.random() < cfg.coarse_prob:
                coarse = gen_coarse(z, cfg.psi, tree, trajectories, level,
                                    cfg.n_coarse_samples, rng, scale=scale, index=index)
            if coarse is not None and cfg.coarse_replaces_fine:
                obs = [coarse]
            elif coarse is not None:
                obs = [fine, coarse]
            else:
                obs = [fine]
        else:  # lead_in
            if t <= lead:
                obs = [gen_fine(z, cfg.psi, scale, rng)]
            else:
                obs = [gen_coarse(z, cfg.psi, tree, trajectories, level,
                                  cfg.n_coarse_samples, rng, scale=scale, index=index)]
        plan.append(obs)
    return plan


def save_observations(path, plan: list[list]) -> None:
    """Newline-delimited JSON: {"t", "kind", "position"|"class_id"+"level"}."""
    with open(path, "w") as fh:
        for t, obs_list in enumerate(plan, start=1):
            for obs in obs_list:
                if isinstance(obs, FineObservation):
                    rec = {"t": t, "kind": "fine",
                           "position": [float(x) for x in obs.position]}
                else:
                    rec = {"t": t, "kind": "coarse",
                           "class_id": int(obs.class_id), "level": float(obs.level)}
                fh.write(json.dumps(rec) + "\n")


def _parse_record(rec) -> tuple[int, object]:
    """(step, observation) of one saved record; KeyError, TypeError or ValueError if malformed."""
    if not isinstance(rec, dict):
        raise TypeError(f"expected a JSON object, got {type(rec).__name__}")
    t = int(rec["t"])
    if rec["kind"] == "fine":
        return t, FineObservation(np.asarray(rec["position"], dtype=float))
    if rec["kind"] == "coarse":
        return t, CoarseObservation(int(rec["class_id"]), float(rec["level"]))
    raise ValueError(f"unknown observation kind {rec['kind']!r}")


def load_observations(path) -> list[list]:
    """Per-step observation lists from a file written by save_observations.

    A line that is not a JSON object, or a record with a missing or malformed
    field, raises InvalidInputError naming its line number.
    """
    by_step: dict[int, list] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                t, obs = _parse_record(json.loads(line))
            except KeyError as exc:
                raise InvalidInputError(f"{path}: line {lineno}: missing field {exc}") from None
            except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
                raise InvalidInputError(f"{path}: line {lineno}: {exc}") from None
            by_step.setdefault(t, []).append(obs)
    if not by_step:
        return []
    return [by_step.get(t, []) for t in range(1, max(by_step) + 1)]
