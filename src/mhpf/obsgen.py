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
from scipy.spatial.distance import cdist

from .errors import InvalidInputError
from .geometry import check_common_dim
from .stack import CoarseObservation, FineObservation, check_levels

# Gaussian samples drawn around the truth for one coarse observation.
N_COARSE_SAMPLES = 10


def check_psi(psi: float) -> None:
    if not (0.0 <= psi < math.inf):
        raise InvalidInputError(f"psi must be finite and >= 0, got {psi!r}")


@dataclass
class ObsConfig:
    psi: float
    coarse_prob: float = 0.0
    coarse_level: float | None = None
    lead_in_fraction: float = 0.0
    mode: str = "mixed"  # "mixed" | "lead_in"

    def __post_init__(self):
        check_psi(self.psi)
        if self.coarse_level is not None:
            check_levels([self.coarse_level], "coarse_level")
        if not (0.0 <= self.coarse_prob <= 1.0):
            raise InvalidInputError("coarse_prob must be in [0, 1]")
        if not (0.0 <= self.lead_in_fraction <= 1.0):
            raise InvalidInputError("lead_in_fraction must be in [0, 1]")
        if self.mode not in ("mixed", "lead_in"):
            raise InvalidInputError(f"unknown observation mode {self.mode!r}")


def bbox_diagonal(trajectories) -> float:
    """Diagonal of the axis-aligned bounding box of all trajectory points."""
    check_common_dim(trajectories)
    bounds = np.stack([t.bounds for t in trajectories])  # (trajectory, min|max, d)
    span = bounds[:, 1].max(axis=0) - bounds[:, 0].min(axis=0)
    return float(np.sqrt((span ** 2).sum()))


def gen_fine(z, psi: float, scale: float, rng: np.random.Generator) -> FineObservation:
    """Noisy position observation: truth plus uniform offsets on [0, psi*scale]."""
    check_psi(psi)
    z = np.asarray(z, dtype=float)
    return FineObservation(z + rng.uniform(0.0, psi * scale, size=z.shape))


class ClassPointIndex:
    """Member-trajectory points of every leaf class of a tree, stacked in leaf order.

    A class's nearest point to a query is the nearest over the leaves under
    it (`ClusterTree.membership`).
    """

    def __init__(self, tree, trajectories):
        self.tree = tree
        members = tree.leaf_trajectories(trajectories).values()
        sizes = [sum(len(t) for t in ts) for ts in members]
        self._starts = np.cumsum([0] + sizes[:-1])
        self._points = np.concatenate([t.points for ts in members for t in ts])

    def nearest_distances(self, samples: np.ndarray, class_ids) -> np.ndarray:
        """(class, sample) Euclidean distance from each sample to the class's nearest point.

        One `cdist` call sums the squared differences in coordinate order; numpy's
        (sample, point) temporaries per coordinate would be page-faulted in on every call.
        """
        sq = cdist(samples, self._points, "sqeuclidean")
        leaf_d = np.sqrt(np.minimum.reduceat(sq, self._starts, axis=1)).T  # (leaf, sample)
        member = self.tree.membership[[self.tree.row(c) for c in class_ids]]
        return np.where(member[:, :, None], leaf_d[None], np.inf).min(axis=1)


def gen_coarse(z, psi: float, index: ClassPointIndex, level: float,
               rng: np.random.Generator, scale: float) -> CoarseObservation:
    """Class-level observation at the given level of the index's tree.

    Draws N_COARSE_SAMPLES points from an isotropic Gaussian of standard
    deviation psi*scale around z and scores every alive class by a Gaussian
    kernel on each sample's nearest-member-point distance. The kernel
    bandwidth cancels in the argmax, so the winner is the class minimizing
    the summed squared nearest-point distances; ties break toward the
    smallest node id. A level where no class is alive (negative, NaN,
    infinite, or a gap in a loaded tree) raises InvalidInputError.
    """
    check_psi(psi)
    alive = index.tree.alive_ids(level)
    if not alive:
        raise InvalidInputError(f"no class is alive at level {level!r}")
    z = np.asarray(z, dtype=float)
    samples = z + rng.normal(0.0, psi * scale, size=(N_COARSE_SAMPLES, z.shape[0]))
    scores = (index.nearest_distances(samples, alive) ** 2).sum(axis=1)
    return CoarseObservation(int(alive[int(np.argmin(scores))]), float(level))


def default_coarse_level(tree) -> float:
    """The first level whose alive set has at most ceil(M/2) classes."""
    target = max(2, math.ceil(tree.leaf_count / 2))
    for b in tree.unique_births():
        if len(tree.alive_at(b)) <= target:
            return float(b)
    return float(tree.root_birth)


def observation_plan(truth_points, cfg: ObsConfig, index: ClassPointIndex, scale: float,
                     rng: np.random.Generator) -> list[list]:
    """Per-step observation lists for steps 1..T-1 of a discretized truth.

    "mixed" emits a fine observation every step and, with probability
    coarse_prob, a coarse one as well. "lead_in" emits fine-only during the
    lead-in fraction of the trial, then coarse-only.
    """
    level = cfg.coarse_level if cfg.coarse_level is not None else default_coarse_level(index.tree)
    pts = np.asarray(truth_points, dtype=float)
    steps = len(pts) - 1
    lead = int(round(cfg.lead_in_fraction * steps))
    plan: list[list] = []
    for t in range(1, steps + 1):
        z = pts[t]
        if cfg.mode == "mixed":
            obs = [gen_fine(z, cfg.psi, scale, rng)]
            if cfg.coarse_prob > 0 and rng.random() < cfg.coarse_prob:
                obs.append(gen_coarse(z, cfg.psi, index, level, rng, scale))
        else:  # lead_in
            if t <= lead:
                obs = [gen_fine(z, cfg.psi, scale, rng)]
            else:
                obs = [gen_coarse(z, cfg.psi, index, level, rng, scale)]
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
