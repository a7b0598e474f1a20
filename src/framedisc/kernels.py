"""Dense kernels on point pairs and the weighted Schur algebra.

A kernel is a complex (n, n) array ``K[x, y]``. The algebra norm is the
larger of the two weighted Schur integrals

    sup_x sum_y w_y |K(x,y)| m(x,y)   and   sup_y sum_x w_x |K(x,y)| m(x,y),

which makes the quadrature identity kernel have norm one and is
submultiplicative under weighted composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .quadrature import QuadratureSpace


@dataclass(frozen=True, eq=False)
class Weight2D:
    """Symmetric two-point weight ``m`` with a distinguished reference point.

    The one-point trace ``v(x) = m(x, z)`` (z = ``ref_index``) is what the
    sup-weighted function spaces use.
    """

    space: QuadratureSpace
    matrix: np.ndarray
    ref_index: int = 0

    def __post_init__(self):
        n = self.space.n_points
        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape != (n, n):
            raise StructuralError(f"weight matrix shape {mat.shape}, expected {(n, n)}")
        if not np.all(np.isfinite(mat)) or np.any(mat <= 0.0):
            raise StructuralError("weight entries must be finite and > 0")
        if np.max(np.abs(mat - mat.T)) > 1e-12 * max(1.0, mat.max()):
            raise StructuralError("weight matrix must be symmetric")
        if not 0 <= self.ref_index < n:
            raise StructuralError("ref_index out of range")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_trivial", bool(mat.min() == 1.0 == mat.max()))

    @property
    def v(self) -> np.ndarray:
        """One-point weight v(x) = m(x, ref)."""
        return self.matrix[:, self.ref_index]

    @classmethod
    def constant(cls, space: QuadratureSpace, value: float = 1.0,
                 ref_index: int = 0) -> "Weight2D":
        n = space.n_points
        return cls(space, np.full((n, n), float(value)), ref_index)

    @classmethod
    def from_pointwise(cls, space: QuadratureSpace, w, ref_index: int = 0) -> "Weight2D":
        """Associated weight m(x,y) = max{w(x)/w(y), w(y)/w(x)} of a pointwise w."""
        wv = np.asarray(w, dtype=float).reshape(-1)
        if wv.shape[0] != space.n_points:
            raise StructuralError("pointwise weight length mismatch")
        if np.any(wv <= 0):
            raise StructuralError("pointwise weight must be positive")
        ratio = wv[:, None] / wv[None, :]
        # max with the transposed ratios, not reciprocals: exactly symmetric
        return cls(space, np.maximum(ratio, ratio.T), ref_index)

    def max_submultiplicative_defect(self) -> float:
        """max over x,y of m(x,y) / (m(x,z) m(z,y)); <= 1 means submultiplicative."""
        mz = self.matrix[:, self.ref_index]
        prod = mz[:, None] * mz[None, :]
        return float(np.max(self.matrix / prod))


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finite complex combination of point masses sitting on grid points."""

    indices: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int).reshape(-1)
        coef = np.asarray(self.coefficients, dtype=complex).reshape(-1)
        if idx.shape != coef.shape:
            raise StructuralError("one coefficient per atom required")
        idx.setflags(write=False)
        coef.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "coefficients", coef)

    @classmethod
    def dirac(cls, index: int) -> "DiscreteMeasure":
        return cls(np.array([index]), np.array([1.0 + 0.0j]))

    def check_on(self, space: QuadratureSpace) -> None:
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= space.n_points):
            raise StructuralError("measure atom off the grid")


def check_kernel(space: QuadratureSpace, kernel) -> np.ndarray:
    """Coerce to an (n, n) array with finite entries: float for real input,
    complex otherwise."""
    n = space.n_points
    k = np.asarray(kernel)
    k = k.astype(complex if np.iscomplexobj(k) else float, copy=False)
    if k.shape != (n, n):
        raise StructuralError(f"kernel shape {k.shape}, expected {(n, n)}")
    if not np.all(np.isfinite(k)):
        raise StructuralError("kernel entries must be finite")
    return k


def identity_kernel(space: QuadratureSpace) -> np.ndarray:
    """The kernel acting as the identity under weighted application."""
    return np.diag(1.0 / space.weights).astype(complex)


def schur_norm(space: QuadratureSpace, kernel, weight: Weight2D | None = None) -> float:
    """Weighted Schur algebra norm of a kernel."""
    k = check_kernel(space, kernel)
    w = space.weights
    absk = np.abs(k)
    if weight is not None:
        if weight.space is not space and weight.space.n_points != space.n_points:
            raise StructuralError("weight lives on a different space")
        if not weight._trivial:
            absk = absk * weight.matrix
    row = float(np.max(absk @ w))
    col = float(np.max(w @ absk))
    return max(row, col)


def apply_kernel(space: QuadratureSpace, kernel, f) -> np.ndarray:
    """(K f)(x) = sum_y w_y K(x,y) f(y)."""
    k = check_kernel(space, kernel)
    arr = space.check_function(f)
    return k @ (space.weights * arr)


def apply_to_measure(space: QuadratureSpace, kernel, nu: DiscreteMeasure) -> np.ndarray:
    """(K nu)(x) = sum_i lambda_i K(x, x_i); atoms carry no quadrature weight."""
    k = check_kernel(space, kernel)
    nu.check_on(space)
    if nu.indices.size == 0:
        return np.zeros(space.n_points, dtype=complex)
    return k[:, nu.indices] @ nu.coefficients


def compose(space: QuadratureSpace, k1, k2) -> np.ndarray:
    """(k1 o k2)(x,y) = sum_z w_z k1(x,z) k2(z,y)."""
    a = check_kernel(space, k1)
    b = check_kernel(space, k2)
    return (a * space.weights[None, :]) @ b


def involution(kernel) -> np.ndarray:
    """Conjugate transpose K*(x,y) = conj(K(y,x))."""
    return np.conj(np.asarray(kernel, dtype=complex)).T


def save_kernel_binary(kernel, path) -> None:
    """Raw row-major little-endian complex128 (interleaved float64 pairs)."""
    k = np.ascontiguousarray(np.asarray(kernel, dtype=complex))
    with open(path, "wb") as fh:
        fh.write(k.astype("<c16").tobytes())


def load_kernel_binary(path, shape=None) -> np.ndarray:
    with open(path, "rb") as fh:
        flat = np.frombuffer(fh.read(), dtype="<c16")
    if shape is None:
        n = int(round(np.sqrt(flat.size)))
        if n * n != flat.size:
            raise StructuralError("binary kernel is not square; pass shape")
        shape = (n, n)
    return flat.reshape(shape).astype(complex)
