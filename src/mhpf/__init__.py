"""Multiscale hierarchy of particle filters over trajectory-cluster filtrations."""

from .dynamics import ClassDynamics, build_dynamics
from .errors import GenerationError, InvalidInputError
from .filtration import ClusterNode, ClusterTree, flat_tree, single_class_tree, single_linkage
from .geometry import (Trajectory, distance_matrix, euclidean, frechet_distance,
                       load_trajectories, save_trajectories)
from .obsgen import ObsConfig, bbox_diagonal, default_coarse_level, gen_coarse, gen_fine
from .stack import CoarseObservation, FilterStack, FineObservation, check_consistency

__version__ = "0.1.0"

__all__ = [
    "ClassDynamics", "ClusterNode", "ClusterTree", "CoarseObservation",
    "FilterStack", "FineObservation", "GenerationError", "InvalidInputError",
    "ObsConfig", "Trajectory", "bbox_diagonal", "build_dynamics",
    "check_consistency", "default_coarse_level", "distance_matrix", "euclidean",
    "flat_tree", "frechet_distance", "gen_coarse", "gen_fine",
    "load_trajectories", "save_trajectories", "single_class_tree",
    "single_linkage", "__version__",
]
