"""Finite continuous-frame models: a vector per grid point.

A model couples a quadrature space with one unit vector psi_x in C^d per
point. The frame operator S = sum_x w_x psi_x psi_x^* must be positive
definite; its inverse defines the reproducing kernel

    R(x, y) = psi_x^* S^{-1} psi_y,

a Hermitian kernel that is idempotent under weighted composition and acts
as the identity on the range of both analysis transforms. R has rank d:
with V the (d, n) matrix of frame vectors and A = S^{-1} V the dual
vectors, R = A^* V. The model keeps only V and A, from which the streamed
passes form blocks of R, so no n x n kernel is stored.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularOperatorError, StructuralError
from .quadrature import QuadratureSpace, product_grid, uniform_grid

# Smallest admissible eigenvalue of a model's frame operator.
EIG_FLOOR = 1e-10


class FrameModel:
    """Immutable frame model over a quadrature space.

    Parameters
    ----------
    space : QuadratureSpace with n points.
    vectors : complex array (d, n); column x is psi_x.

    ``duals`` is the read-only (d, n) array A = S^{-1} V of canonical dual
    vectors. A frame operator with an eigenvalue at or below ``EIG_FLOOR``
    is refused rather than regularized.
    """

    def __init__(self, space: QuadratureSpace, vectors):
        psi = np.asarray(vectors, dtype=complex)
        if psi.ndim != 2 or psi.shape[1] != space.n_points:
            raise StructuralError("vectors must be shaped (dim, n_points)")
        if not np.all(np.isfinite(psi.real)) or not np.all(np.isfinite(psi.imag)):
            raise StructuralError("frame vectors must be finite")
        psi.setflags(write=False)
        self.space = space
        self.vectors = psi
        self.dim = psi.shape[0]

        s = (psi * space.weights[None, :]) @ psi.conj().T
        s = 0.5 * (s + s.conj().T)
        evals, evecs = np.linalg.eigh(s)
        if evals.min() <= EIG_FLOOR:
            raise SingularOperatorError(
                f"frame operator eigenvalue {evals.min():.3e} at or below floor "
                f"{EIG_FLOOR:.1e}; the family does not span (use more points "
                f"or a wider spread)"
            )
        self.frame_operator = s
        self.s_eigenvalues = evals
        self.s_inverse = (evecs / evals[None, :]) @ evecs.conj().T
        duals = self.s_inverse @ psi
        duals.setflags(write=False)
        self.duals = duals


def random_vectors(rng: np.random.Generator, dim: int, k: int) -> np.ndarray:
    """A (dim, k) block of complex Gaussian vectors, drawn in one call.

    Column j takes the real and then the imaginary part from the stream, so
    the block holds, bit for bit, what ``k`` successive draws of
    ``rng.standard_normal(dim) + 1j * rng.standard_normal(dim)`` give.
    """
    g = rng.standard_normal((k, 2, dim))
    return (g[:, 0] + 1j * g[:, 1]).T


def _periodized_gaussian(d: int, width: float) -> np.ndarray:
    k = np.arange(d, dtype=float)
    g = np.zeros(d)
    for shift in range(-4, 5):
        g += np.exp(-np.pi * ((k + shift * d) / width) ** 2)
    norm = np.linalg.norm(g)
    if norm == 0.0:
        raise StructuralError("window width too small: window vanished")
    return g / norm


def build_gabor_model(n_time: int, n_freq: int, window_width: float) -> FrameModel:
    """Time-frequency shifted periodized Gaussians on an n_time x n_freq grid.

    The signal length equals ``n_time``; atoms are the window translated to
    every sample and modulated to ``n_freq`` equispaced frequencies, unit
    normalized. Grid weights are d/n so that full frequency sampling gives
    a frame operator equal to the identity.
    """
    if n_time <= 0 or n_freq <= 0:
        raise StructuralError("n_time and n_freq must be positive")
    if not (window_width > 0):
        raise StructuralError("window width must be positive")
    d, n_f = int(n_time), int(n_freq)
    g = _periodized_gaussian(d, float(window_width))
    n = d * n_f
    k, t, j = np.arange(d), np.arange(d), np.arange(n_f)
    # column t * n_f + j is the window rolled by t times the j-th modulation
    shifted = g[(k[:, None] - t[None, :]) % d]
    modulation = np.exp(2j * np.pi * j[None, :] * k[:, None] / float(n_f))
    psi = (shifted[:, :, None] * modulation[:, None, :]).reshape(d, n)
    space = product_grid((d, n_f), spacings=(1.0, d / n_f), weight=d / n)
    return FrameModel(space, psi)


def build_random_smooth_model(d: int, n_points: int, smoothness: float,
                              seed: int) -> FrameModel:
    """Random trigonometric vector field on [0, 1), unit-normalized columns.

    Mode amplitudes decay like (1 + m)^(-smoothness); larger smoothness
    gives slower variation of x -> psi_x. Deterministic for a fixed seed.
    """
    if n_points < d:
        raise StructuralError("need n_points >= dim for a spanning family")
    rng = np.random.default_rng(seed)
    n_modes = max(d, min(n_points, 32))
    decay = (1.0 + np.arange(n_modes)) ** (-float(smoothness))
    coef = (rng.standard_normal((d, n_modes))
            + 1j * rng.standard_normal((d, n_modes))) * decay[None, :]
    x = np.arange(n_points, dtype=float) / n_points
    phases = np.exp(2j * np.pi * np.outer(np.arange(n_modes), x))
    psi = coef @ phases
    norms = np.linalg.norm(psi, axis=0)
    if np.any(norms == 0):
        raise StructuralError("degenerate random field: zero column")
    psi /= norms[None, :]
    space = uniform_grid(n_points, spacing=1.0 / n_points,
                         weights=1.0 / n_points)
    return FrameModel(space, psi)


def build_orthonormal_model(d: int) -> FrameModel:
    """Standard basis as a frame: one point per basis vector, unit weights."""
    space = uniform_grid(d, spacing=1.0, weights=1.0)
    return FrameModel(space, np.eye(d, dtype=complex))
