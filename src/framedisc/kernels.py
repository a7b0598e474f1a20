"""Dense kernels on point pairs and the weighted Schur algebra.

A kernel is a complex (n, n) array ``K[x, y]``. The algebra norm is the
larger of the two weighted Schur integrals

    sup_x sum_y w_y |K(x,y)| m(x,y)   and   sup_y sum_x w_x |K(x,y)| m(x,y),

which makes the quadrature identity kernel have norm one and is
submultiplicative under weighted composition. The two-point weight m is
the associated weight of a pointwise weight and is stored pointwise, so
the kernel is the only dense (n, n) array here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .quadrature import QuadratureSpace


@dataclass(frozen=True, eq=False)
class Weight2D:
    """Associated two-point weight m(x, y) = max{w(x)/w(y), w(y)/w(x)} of a
    positive pointwise weight w, with a distinguished reference point.

    Only w is stored; ``block`` evaluates m on index sets. An associated
    weight is symmetric, one on the diagonal and submultiplicative. A
    constant w gives the trivial weight m = 1, for which no m is formed.
    The one-point trace ``v(x) = m(x, z)`` (z = ``ref_index``) is what the
    sup-weighted function spaces use.
    """

    space: QuadratureSpace
    w: np.ndarray
    ref_index: int = 0

    def __post_init__(self):
        n = self.space.n_points
        wv = np.array(self.w, dtype=float).reshape(-1)
        if wv.shape[0] != n:
            raise StructuralError(f"pointwise weight has length {wv.shape[0]}, "
                                  f"expected {n}")
        if not np.all(np.isfinite(wv)) or np.any(wv <= 0.0):
            raise StructuralError("pointwise weight entries must be finite and > 0")
        # every m(x, y) lies in [1, max(w)/min(w)]
        with np.errstate(over="ignore"):
            spread = wv.max() / wv.min()
        if not np.isfinite(spread):
            raise StructuralError("weight ratio max(w)/min(w) must be finite")
        if not 0 <= self.ref_index < n:
            raise StructuralError("ref_index out of range")
        wv.setflags(write=False)
        object.__setattr__(self, "w", wv)

    @property
    def trivial(self) -> bool:
        """True for a constant w, whose m is one everywhere."""
        return bool(self.w.min() == self.w.max())

    @property
    def v(self) -> np.ndarray:
        """One-point weight v(x) = m(x, ref)."""
        return self.block(slice(None), [self.ref_index])[:, 0]

    def block(self, rows, cols) -> np.ndarray:
        """m(x, y) for x in ``rows`` and y in ``cols`` (index arrays or slices)."""
        wr = self.w[rows][:, None]
        wc = self.w[cols][None, :]
        # both quotients, not a reciprocal: m(x, y) and m(y, x) are the same float
        out = wr / wc
        return np.maximum(out, wc / wr, out=out)


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


def schur_norm(space: QuadratureSpace, kernel, weight: Weight2D | None = None) -> float:
    """Weighted Schur algebra norm of a kernel."""
    k = check_kernel(space, kernel)
    w = space.weights
    absk = np.abs(k)
    if weight is not None:
        if weight.space is not space and weight.space.n_points != space.n_points:
            raise StructuralError("weight lives on a different space")
        if not weight.trivial:
            absk *= weight.block(slice(None), slice(None))
    row = float(np.max(absk @ w))
    col = float(np.max(w @ absk))
    return max(row, col)


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
