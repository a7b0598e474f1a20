"""Finite weighted point sets standing in for a measure space.

Everything downstream integrates against a :class:`QuadratureSpace`: a fixed,
ordered list of points with strictly positive weights. Integrals are plain
weighted sums, so all operator identities in the package hold up to floating
point rather than up to analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError


@dataclass(frozen=True, eq=False)
class QuadratureSpace:
    """Ordered points with positive weights.

    points : float array of shape (n, dim); coordinates are only used by
        geometric constructors (coverings).
    weights : float array of shape (n,), strictly positive.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise StructuralError("points must be a nonempty (n, dim) array")
        wts = np.asarray(self.weights, dtype=float).reshape(-1)
        if wts.shape[0] != pts.shape[0]:
            raise StructuralError(
                f"{wts.shape[0]} weights for {pts.shape[0]} points"
            )
        if not np.all(np.isfinite(pts)):
            raise StructuralError("points must be finite")
        if not np.all(np.isfinite(wts)) or np.any(wts <= 0.0):
            raise StructuralError("weights must be finite and > 0")
        # equal points sit next to each other once sorted; float comparison
        # counts -0.0 and 0.0 as one point
        ordered = pts[np.lexsort(pts.T)]
        if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
            raise StructuralError("points must be unique")
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def check_function(self, f) -> np.ndarray:
        """Coerce ``f`` to a complex grid function on this space."""
        arr = np.asarray(f, dtype=complex).reshape(-1)
        if arr.shape[0] != self.n_points:
            raise StructuralError(
                f"grid function of length {arr.shape[0]} on {self.n_points} points"
            )
        return arr


def uniform_grid(n: int, spacing: float = 1.0, *, weights=None) -> QuadratureSpace:
    """1-D grid of ``n`` equispaced points from 0; weights default to spacing."""
    if n <= 0 or spacing <= 0:
        raise StructuralError("n and spacing must be positive")
    pts = spacing * np.arange(n, dtype=float)
    if weights is None:
        wts = np.full(n, spacing)
    elif np.isscalar(weights):
        wts = np.full(n, float(weights))
    else:
        wts = np.asarray(weights, dtype=float)
    return QuadratureSpace(pts[:, None], wts)


def product_grid(shape, spacings=None, weight=None) -> QuadratureSpace:
    """Uniform product grid over ``shape`` with one point per lattice cell.

    Points are ordered lexicographically in the index tuple, matching
    ``np.ndindex``; ``weight`` is a single scalar applied to every point
    (default: product of spacings).
    """
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise StructuralError("grid shape entries must be positive")
    if spacings is None:
        spacings = (1.0,) * len(shape)
    spacings = tuple(float(s) for s in spacings)
    axes = [sp * np.arange(s, dtype=float) for s, sp in zip(shape, spacings)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    w = float(np.prod(spacings)) if weight is None else float(weight)
    return QuadratureSpace(pts, np.full(pts.shape[0], w))


def space_from_json(doc: dict) -> QuadratureSpace:
    try:
        return QuadratureSpace(np.asarray(doc["points"], dtype=float),
                               np.asarray(doc["weights"], dtype=float))
    except KeyError as exc:
        raise StructuralError(f"grid document missing key {exc}") from exc


def load_space(path) -> QuadratureSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return space_from_json(json.load(fh))
