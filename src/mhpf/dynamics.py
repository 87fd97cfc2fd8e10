"""Localized per-class dynamics learned from member-trajectory points.

A class's motion model is the inverse-distance-weighted average of the point
velocities harvested from its member trajectories, restricted to a ball of
radius epsilon around the query point, plus one-sided uniform noise scaled by
the class's mean step length.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidInputError

# Query batches are evaluated against the full sample set in dense blocks of
# at most this many (query, sample) pairs; larger batches are chunked.
_DENSE_PAIR_LIMIT = 1 << 22


def check_kappa(kappa: float, owner: str = "") -> None:
    """Reject a negative or non-finite noise fraction; `owner` prefixes the message."""
    if not (math.isfinite(kappa) and kappa >= 0):
        raise InvalidInputError(f"{owner}kappa must be finite and >= 0, got {kappa!r}")


def check_epsilon_floor(epsilon_floor: float) -> None:
    if not (math.isfinite(epsilon_floor) and epsilon_floor > 0):
        raise InvalidInputError(f"epsilon_floor must be finite and > 0, got {epsilon_floor!r}")


@dataclass
class ClassDynamics:
    """Sampled velocity field for one cluster class.

    `positions` and `velocities` hold one row per harvested sample; `epsilon`
    is the neighborhood radius, `kappa` the noise fraction, and
    `velocity_scale` the mean sample-velocity magnitude that gives kappa its
    units. `centered_noise` switches the one-sided uniform noise on
    [0, kappa*scale] to a zero-centered band of the same width.
    """

    class_id: int
    positions: np.ndarray
    velocities: np.ndarray
    epsilon: float
    kappa: float
    velocity_scale: float
    centered_noise: bool = False

    def __post_init__(self):
        # A float64 array, read-only or not, passes through uncopied.
        for name in ("positions", "velocities"):
            try:
                setattr(self, name, np.asarray(getattr(self, name), dtype=float))
            except (TypeError, ValueError):
                raise InvalidInputError(f"class {self.class_id}: {name} must be an array "
                                        "of numbers") from None
        if self.positions.ndim != 2 or self.positions.shape != self.velocities.shape:
            raise InvalidInputError(f"class {self.class_id}: malformed sample arrays")
        if len(self.positions) == 0:
            raise InvalidInputError(f"class {self.class_id}: no dynamics samples")
        if not (np.isfinite(self.positions).all() and np.isfinite(self.velocities).all()):
            raise InvalidInputError(f"class {self.class_id}: non-finite sample positions "
                                    "or velocities")
        self._check_radius_and_kappa()

    def _check_radius_and_kappa(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidInputError(f"class {self.class_id}: epsilon must be finite and > 0, "
                                    f"got {self.epsilon!r}")
        check_kappa(self.kappa, f"class {self.class_id}: ")

    @classmethod
    def from_trajectory(cls, class_id: int, trajectory, epsilon: float, kappa: float,
                        centered_noise: bool = False) -> "ClassDynamics":
        """The class whose samples are one multi-point trajectory's steps.

        Its positions and velocities are the trajectory's read-only
        `points[:-1]` and `velocities`, uncopied, and its scale is the
        trajectory's `mean_speed`. Those arrays are not checked again: a
        `Trajectory` checks its points finite when it is made and its
        velocities when they are first computed. `epsilon` and `kappa` are checked.
        """
        if len(trajectory) < 2:
            raise InvalidInputError(f"class {class_id}: no dynamics samples")
        out = cls.__new__(cls)
        vars(out).update(class_id=class_id, positions=trajectory.points[:-1],
                         velocities=trajectory.velocities, epsilon=epsilon, kappa=kappa,
                         velocity_scale=trajectory.mean_speed, centered_noise=centered_noise)
        out._check_radius_and_kappa()
        return out

    def with_kappa(self, kappa: float) -> "ClassDynamics":
        """Copy at another noise fraction, sharing the sample arrays.

        Only `kappa` is checked: the samples were checked when this class was made.
        """
        kappa = float(kappa)
        check_kappa(kappa, f"class {self.class_id}: ")
        out = copy.copy(self)
        out.kappa = kappa
        return out

    def _shepard(self, d: np.ndarray, inside: np.ndarray) -> np.ndarray:
        """Inverse-distance average over the ball, weighting the distances `d` in place.

        Every row of `d` is positive and finite with at least one entry inside,
        so inside / d is 1/d in the ball and +0.0 outside it, bit for bit the
        weights np.where(inside, 1/d, 0).
        """
        w = np.divide(inside, d, out=d)
        return (w @ self.velocities) / w.sum(axis=1)[:, None]

    def _dense_velocities(self, zs: np.ndarray):
        d = cdist(zs, self.positions)
        # A row's ball is empty exactly when its nearest sample lies outside
        # it. Both fallbacks take the row's first nearest sample: an
        # off-manifold query (empty ball) extrapolates from it, and on a
        # coincident sample the inverse-distance weights blow up, whose limit
        # is that sample's own velocity.
        nearest = d.argmin(axis=1)
        dmin = d[np.arange(len(d)), nearest]
        empty = dmin >= self.epsilon
        special = empty | (dmin == 0.0)
        if special.all():
            return self.velocities[nearest], empty
        inside = d < self.epsilon
        if not special.any():
            return self._shepard(d, inside), empty
        vels = self.velocities[nearest]
        regular = ~special
        # The matmul runs on exactly the regular rows: BLAS may pick another
        # kernel, and other last bits, for another shape.
        vels[regular] = self._shepard(d[regular], inside[regular])
        return vels, empty

    def local_velocities(self, zs: np.ndarray):
        """Velocity estimates for a (k, d) batch and per-row fallback flags."""
        zs = np.asarray(zs, dtype=float)
        k = len(zs)
        if k == 0:
            return np.empty_like(zs), np.zeros(0, dtype=bool)
        if k * len(self.positions) <= _DENSE_PAIR_LIMIT:
            return self._dense_velocities(zs)
        vels = np.empty_like(zs)
        flags = np.zeros(k, dtype=bool)
        step = max(1, _DENSE_PAIR_LIMIT // len(self.positions))
        for lo in range(0, k, step):
            vels[lo:lo + step], flags[lo:lo + step] = self._dense_velocities(zs[lo:lo + step])
        return vels, flags

    def step_batch(self, zs: np.ndarray, rng: np.random.Generator):
        """Advance a batch one step: z + velocity + noise, drawn row-major."""
        zs = np.asarray(zs, dtype=float)
        vels, flags = self.local_velocities(zs)
        width = self.kappa * self.velocity_scale
        if self.centered_noise:
            noise = rng.uniform(-width / 2.0, width / 2.0, size=zs.shape)
        else:
            noise = rng.uniform(0.0, width, size=zs.shape)
        return zs + vels + noise, flags


def harvest_samples(trajectories):
    """(positions, velocities) pairs from consecutive points of each trajectory.

    A trajectory of P points contributes P-1 samples with velocity
    next - current (its cached `velocities`); single-point trajectories
    contribute nothing.
    """
    multi = [t for t in trajectories if len(t) >= 2]
    if not multi:
        return np.empty((0, 0)), np.empty((0, 0))
    return (np.concatenate([t.points[:-1] for t in multi]),
            np.concatenate([t.velocities for t in multi]))


def build_dynamics(tree, trajectories, kappa: float, epsilon_floor: float,
                   centered_noise: bool = False) -> dict[int, ClassDynamics]:
    """One ClassDynamics per leaf class of `tree`, and nothing more.

    The filter stack and the leaf-class baseline move particles by their leaf
    class. The neighborhood radius of a class is its birth index floored at
    `epsilon_floor` (leaves are born at 0, so the floor is what keeps their
    balls non-degenerate). A leaf with one multi-point member trajectory,
    which is every leaf of a single-linkage tree, is
    `ClassDynamics.from_trajectory`: it shares that trajectory's cached,
    already checked arrays and its mean speed, uncopied. The pooled baseline is the one
    leaf of a `single_class_tree` over the corpus, with the root's radius
    as the floor (`evaluation.run_bl2`).
    """
    check_epsilon_floor(epsilon_floor)
    out: dict[int, ClassDynamics] = {}
    for nid, members in tree.leaf_trajectories(trajectories).items():
        multi = [t for t in members if len(t) >= 2]
        if not multi:
            raise InvalidInputError(f"class {nid} has no dynamics samples "
                                    "(all member trajectories are single points)")
        epsilon = max(tree.nodes[nid].birth, epsilon_floor)
        if len(multi) == 1:
            out[nid] = ClassDynamics.from_trajectory(nid, multi[0], epsilon, float(kappa),
                                                     centered_noise)
            continue
        positions, velocities = harvest_samples(multi)
        out[nid] = ClassDynamics(
            class_id=nid,
            positions=positions,
            velocities=velocities,
            epsilon=epsilon,
            kappa=float(kappa),
            # The members' cached speeds, in sample order: the row norms of `velocities`.
            velocity_scale=float(np.concatenate([t.speeds for t in multi]).mean()),
            centered_noise=centered_noise,
        )
    return out
