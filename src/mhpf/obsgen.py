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
from scipy.spatial import cKDTree

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
    """Per-class nearest-point lookup over member-trajectory points."""

    def __init__(self, tree, trajectories):
        self.tree = tree
        self._by_id = {t.id: t for t in trajectories}
        self._trees: dict[int, cKDTree] = {}

    def kdtree_for(self, node_id: int) -> cKDTree:
        t = self._trees.get(node_id)
        if t is None:
            node = self.tree.nodes[node_id]
            pts = np.vstack([self._by_id[m].points for m in sorted(node.members)])
            t = cKDTree(pts)
            self._trees[node_id] = t
        return t


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
    best, best_score = None, math.inf
    for c in sorted(tree.alive_at(level)):
        d, _ = index.kdtree_for(c).query(samples)
        score = float((d ** 2).sum())
        if score < best_score:
            best, best_score = c, score
    return CoarseObservation(int(best), float(level))


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


def load_observations(path) -> list[list]:
    by_step: dict[int, list] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            t = int(rec["t"])
            if rec["kind"] == "fine":
                obs = FineObservation(np.asarray(rec["position"], dtype=float))
            elif rec["kind"] == "coarse":
                obs = CoarseObservation(int(rec["class_id"]), float(rec["level"]))
            else:
                raise InvalidInputError(f"unknown observation kind {rec['kind']!r}")
            by_step.setdefault(t, []).append(obs)
    if not by_step:
        return []
    return [by_step.get(t, []) for t in range(1, max(by_step) + 1)]
