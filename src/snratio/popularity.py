"""Content popularity profiles and the file-marked decomposition of helpers.

A profile is a normalized probability vector over the files of a content
database.  The power-law (Zipf) family used in the experiments is provided,
but every consumer accepts arbitrary explicit profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .mc import check_integer

#: Allowed deviation of the weight sum from 1.
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class PopularityProfile:
    """Normalized request probabilities ``a_1 .. a_N`` over N files."""

    weights: np.ndarray

    def __init__(self, weights):
        arr = np.asarray(weights, dtype=float).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterDomainError("weights must be a nonempty 1-d sequence")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ParameterDomainError("weights must lie in [0, 1]")
        if abs(arr.sum() - 1.0) > _SUM_TOL:
            raise ParameterDomainError(
                f"weights must sum to 1 within {_SUM_TOL:g}, got {arr.sum()!r}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @property
    def n_files(self) -> int:
        return int(self.weights.size)

    def __len__(self) -> int:
        return self.n_files


@dataclass(frozen=True)
class ZipfSpec:
    """Power-law popularity: weight of file n proportional to n ** -gamma."""

    n_files: int
    gamma: float

    def __post_init__(self):
        check_integer("n_files", self.n_files, 1)
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ParameterDomainError(f"gamma must be nonnegative, got {self.gamma}")


def zipf(spec: ZipfSpec) -> PopularityProfile:
    """Normalized power-law profile; nonincreasing in the file rank."""
    ranks = np.arange(1, spec.n_files + 1, dtype=float)
    # exp(-gamma * log n) stays finite for the extreme skews used in tests.
    w = np.exp(-spec.gamma * np.log(ranks))
    return PopularityProfile(w / w.sum())


def decompose_densities(profile: PopularityProfile, helper_density: float) -> np.ndarray:
    """Per-file helper densities of the mark-decomposed process.

    File n keeps an independent homogeneous process of density
    ``a_n * helper_density``; the outputs sum back to the total density.
    """
    if not helper_density > 0.0:
        raise ParameterDomainError(f"helper_density must be positive, got {helper_density}")
    return profile.weights * helper_density

