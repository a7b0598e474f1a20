"""Coverings of the point set, partitions of unity, and covering kernels.

A covering is a finite family of nonempty point-index subsets. Validation
computes the overlap bound N, the smallest set measure D, and the
moderateness constant C~ = max mu(U_i)/mu(U_j) over intersecting pairs,
all by exact enumeration.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StructuralError
from .kernels import Weight2D
from .quadrature import QuadratureSpace


@dataclass(frozen=True, eq=False)
class Covering:
    """Indexed family of point subsets, stored once as point-index arrays.

    The incidence is kept as ``sets`` (sorted, unique indices per set) and
    as the same (set, point) pairs in two flat arrays, set-major
    (``flat_sets``, ``flat_points``), plus a point-major ordering of those
    pairs (a CSR index). No (n_sets, n_points), (n_sets, n_sets) or
    (n_points, n_points) table is formed; everything else is derived (all
    exact):

      cover_counts       number of sets containing each point
      measures           mu(U_i)
      neighbors          sorted lists i* = {j : U_j meets U_i} (i is in i*)
      overlap_bound      N  = max_i #(i*)
      min_measure        D  = min_i mu(U_i)
      moderateness       C~ = max mu(U_i)/mu(U_j) over intersecting pairs
      q_neighborhood(y)  Q_y, the union of the sets containing y
    """

    space: QuadratureSpace
    sets: tuple

    def __post_init__(self):
        n = self.space.n_points
        raw = []
        for s in self.sets:
            try:
                arr = np.asarray(s)
            except ValueError as exc:
                raise StructuralError(f"covering set {s!r} is not an index "
                                      f"array") from exc
            if arr.size == 0:
                raise StructuralError("covering sets must be nonempty")
            if arr.dtype.kind not in "iu":
                raise StructuralError(f"covering set entries must be integer "
                                      f"point indices, got {arr.dtype} values")
            raw.append(arr.astype(int).reshape(-1))
        if not raw:
            raise StructuralError("covering needs at least one set")
        points = np.concatenate(raw)
        if points.min() < 0 or points.max() >= n:
            raise StructuralError("covering set contains invalid point index")

        # sort and dedupe every (set, point) pair at once, keyed set * n + point
        keys = np.unique(np.repeat(np.arange(len(raw)) * n,
                                   [idx.size for idx in raw]) + points)
        flat_sets, flat_points = np.divmod(keys, n)
        sizes = np.bincount(flat_sets, minlength=len(raw))
        flat_points.setflags(write=False)
        object.__setattr__(self, "sets",
                           tuple(np.split(flat_points, np.cumsum(sizes)[:-1])))
        by_point = np.argsort(flat_points, kind="stable")
        point_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(flat_points, minlength=n))))
        for name, arr in (("flat_sets", flat_sets), ("flat_points", flat_points),
                          ("_set_starts", np.cumsum(sizes) - sizes),
                          ("_sets_by_point", flat_sets[by_point]),
                          ("_point_ptr", point_ptr)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_sets(self) -> int:
        return len(self.sets)

    @property
    def cover_counts(self) -> np.ndarray:
        """Number of sets containing each point."""
        return np.bincount(self.flat_points, minlength=self.space.n_points)

    @cached_property
    def measures(self) -> np.ndarray:
        """mu(U_i)."""
        out = self.set_sums(self.space.weights)
        out.setflags(write=False)
        return out

    @cached_property
    def neighbors(self) -> tuple:
        """i* for every set i: the sets holding any point of U_i."""
        # Pair every flat (i, x) with each set j holding x; those j sit at
        # _sets_by_point[ptr[x]:ptr[x + 1]], laid out here pair after pair.
        ptr = self._point_ptr
        holds = np.diff(ptr)[self.flat_points]
        shift = np.repeat(ptr[self.flat_points] - (np.cumsum(holds) - holds), holds)
        holders = self._sets_by_point[shift + np.arange(shift.size)]
        pairs = np.unique(np.repeat(self.flat_sets, holds) * self.n_sets + holders)
        rows, cols = np.divmod(pairs, self.n_sets)
        return tuple(np.split(cols, np.flatnonzero(np.diff(rows)) + 1))

    @property
    def overlap_bound(self) -> int:
        return int(max(len(nb) for nb in self.neighbors))

    @property
    def min_measure(self) -> float:
        return float(self.measures.min())

    @property
    def moderateness(self) -> float:
        mu = self.measures
        rows = np.repeat(np.arange(self.n_sets), [nb.size for nb in self.neighbors])
        return float(np.max(mu[rows] / mu[np.concatenate(self.neighbors)]))

    def set_sums(self, values) -> np.ndarray:
        """out[i] = sum over x in U_i of values[x], for (n_points, ...) values."""
        vals = np.asarray(values)[self.flat_points]
        return np.add.reduceat(vals, self._set_starts, axis=0)

    def set_extrema(self, values) -> tuple:
        """(max, min) over x in U_i of values[x], for every set i."""
        vals = np.asarray(values)[self.flat_points]
        return (np.maximum.reduceat(vals, self._set_starts),
                np.minimum.reduceat(vals, self._set_starts))

    def point_sums(self, values) -> np.ndarray:
        """out[x] = sum over sets U_i containing x of values[i], for
        (n_sets, ...) values; points in no set get 0."""
        return self.pair_sums(np.asarray(values)[self._sets_by_point])

    def holders(self, start: int, stop: int) -> np.ndarray:
        """The sets containing each point of ``start:stop``, point after point."""
        return self._sets_by_point[self._point_ptr[start]:self._point_ptr[stop]]

    def pair_sums(self, values, start: int = 0, stop: int | None = None
                  ) -> np.ndarray:
        """out[x - start] = sum of ``values`` over the pairs of point x, for
        x in ``start:stop`` and one value per set in ``holders(start,
        stop)``, in that order; points in no set get 0."""
        stop = self.space.n_points if stop is None else stop
        ptr = self._point_ptr[start:stop + 1] - self._point_ptr[start]
        counts = np.diff(ptr)
        vals = np.asarray(values)
        out = np.zeros((stop - start,) + vals.shape[1:], dtype=vals.dtype)
        # the k-th pair of every point held by more than k sets, k = 0, 1, ...;
        # a row-wise reduceat over mostly one-pair segments is several times slower
        for k in range(int(counts.max(initial=0))):
            held = np.flatnonzero(counts > k)
            if k == 0:
                out[held] = vals[ptr[held]]
            else:
                out[held] += vals[ptr[held] + k]
        return out

    def q_neighborhood(self, y: int) -> np.ndarray:
        """Q_y: the sorted indices z sharing a covering set with y."""
        holders = self._sets_by_point[self._point_ptr[y]:self._point_ptr[y + 1]]
        if holders.size == 1:
            return self.sets[holders[0]]
        return np.unique(np.concatenate([np.empty(0, dtype=int)]
                                        + [self.sets[i] for i in holders]))

    def identifier(self) -> str:
        """Deterministic content hash used in reports."""
        payload = json.dumps([s.tolist() for s in self.sets]).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class CoveringReport:
    admissible: bool
    moderate: bool
    overlap_bound: int
    min_measure: float
    moderateness: float
    uncovered: tuple

    def to_json_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "moderate": self.moderate,
            "N": self.overlap_bound,
            "D": self.min_measure,
            "C_tilde": self.moderateness,
            "uncovered_points": list(self.uncovered),
        }


def validate_covering(cov: Covering) -> CoveringReport:
    """Exact enumeration of the covering constants.

    A family failing to cover every point is reported inadmissible rather
    than rejected; on a finite space an admissible covering is automatically
    moderate (D > 0 and C~ finite).
    """
    uncovered = tuple(int(x) for x in np.flatnonzero(cov.cover_counts == 0))
    admissible = len(uncovered) == 0
    moderate = admissible and cov.min_measure > 0 and np.isfinite(cov.moderateness)
    return CoveringReport(admissible, moderate, cov.overlap_bound,
                          cov.min_measure, cov.moderateness, uncovered)


def weight_compatibility(cov: Covering, weight: Weight2D) -> float:
    """Largest value of the two-point weight inside any single covering set,
    max_i max w(U_i) / min w(U_i)."""
    hi, lo = cov.set_extrema(weight.w)
    return float(np.max(hi / lo))


@dataclass(frozen=True, eq=False)
class PartitionOfUnity:
    """Nonnegative functions phi_i <= 1 supported in U_i and summing to one.

    ``phi`` holds one value phi_i(x) per (set, point) pair of the covering,
    point-major: in the order of ``covering.holders(0, n_points)``, the
    order ``Covering.pair_sums`` reads. Off those pairs phi_i is zero, so
    no (n_sets, n_points) table is formed.
    """

    covering: Covering
    phi: np.ndarray

    def __post_init__(self):
        cov = self.covering
        arr = np.array(self.phi, dtype=float)
        if arr.shape != cov.flat_points.shape:
            raise StructuralError(
                f"phi must be shaped ({cov.flat_points.size},): one value per "
                f"(set, point) pair of the covering")
        if np.any(arr < -1e-15) or np.any(arr > 1 + 1e-12):
            raise StructuralError("partition values must lie in [0, 1]")
        total = cov.pair_sums(arr)
        if np.max(np.abs(total - 1.0)) > 1e-12:
            raise StructuralError("partition functions must sum to one")
        arr.setflags(write=False)
        object.__setattr__(self, "phi", arr)

    @property
    def masses(self) -> np.ndarray:
        """c_i = integral of phi_i."""
        cov = self.covering
        points = np.repeat(np.arange(cov.space.n_points), cov.cover_counts)
        return np.bincount(cov.holders(0, cov.space.n_points),
                           self.phi * cov.space.weights[points],
                           minlength=cov.n_sets)


def build_pou(cov: Covering, kind: str = "flat") -> PartitionOfUnity:
    """Partition of unity subordinate to a covering.

    flat   : equal sharing, phi_i(x) = 1/#{j : x in U_j} on U_i.
    smooth : Gaussian bump around each set's coordinate center, normalized.
    """
    counts = cov.cover_counts
    if np.any(counts == 0):
        raise StructuralError("cannot build a partition of unity: uncovered points")
    if kind == "flat":
        phi = np.repeat(1.0 / counts, counts)
    elif kind == "smooth":
        pts = cov.space.points
        bumps = []
        for idx in cov.sets:
            center = pts[idx].mean(axis=0)
            d2 = np.sum((pts[idx] - center) ** 2, axis=1)
            spread = max(float(d2.max()), 1e-12)
            bumps.append(np.exp(-d2 / spread))
        # set-major bumps, reordered to the point-major pairs
        phi = np.concatenate(bumps)[np.argsort(cov.flat_points, kind="stable")]
        phi /= np.repeat(cov.pair_sums(phi), counts)
    else:
        raise StructuralError(f"unknown partition kind {kind!r}")
    return PartitionOfUnity(cov, phi)


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    equivalent: bool
    measure_lower: float   # C_1: min mu(V_i)/mu(U_i)
    measure_upper: float   # C_2: max mu(V_i)/mu(U_i)
    cross_weight: float    # C': max over i of sup_{x in U_i, y in V_i} m(x,y)

    def to_json_dict(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "C_1": self.measure_lower,
            "C_2": self.measure_upper,
            "C_prime": self.cross_weight,
        }


def check_m_equivalent(cov_u: Covering, cov_v: Covering,
                       weight: Weight2D) -> EquivalenceReport:
    """Measure-ratio and cross-weight constants linking two coverings.

    Requires identical index sets. On a finite space the constants are
    always finite, so the report mostly carries their magnitudes.
    """
    if cov_u.n_sets != cov_v.n_sets:
        raise StructuralError("coverings must share one index set")
    ratios = cov_v.measures / cov_u.measures
    # sup of m over U_i x V_i: the larger of the two extreme quotients
    hi_u, lo_u = cov_u.set_extrema(weight.w)
    hi_v, lo_v = cov_v.set_extrema(weight.w)
    cross = float(np.max(np.maximum(hi_u / lo_v, hi_v / lo_u)))
    c1, c2 = float(ratios.min()), float(ratios.max())
    ok = np.isfinite(c1) and np.isfinite(c2) and np.isfinite(cross) and c1 > 0
    return EquivalenceReport(bool(ok), c1, c2, cross)


def transfer_kernel(cov_u: Covering, cov_v: Covering) -> np.ndarray:
    """Kernel moving coefficient pile-ups over ``cov_v`` to pile-ups over ``cov_u``.

    L(x, y) = sum_j chi_{U_j}(x) chi_{V_j}(y) / mu(V_j).
    """
    if cov_u.n_sets != cov_v.n_sets:
        raise StructuralError("coverings must share one index set")
    n = cov_u.space.n_points
    out = np.zeros((n, n), dtype=complex)
    for u, v, mu_v in zip(cov_u.sets, cov_v.sets, cov_v.measures):
        out[np.ix_(u, v)] += 1.0 / mu_v
    return out


def permutation_kernel(cov: Covering, pi) -> np.ndarray:
    """Kernel bounding the relabeling lambda -> lambda o pi on pile-up norms.

    K_pi(x, y) = sum_i chi_{U_{pi^{-1}(i)}}(x) chi_{U_i}(y) / mu(U_{pi^{-1}(i)}).
    ``pi`` must be a permutation of range(n_sets).
    """
    pi = np.asarray(pi, dtype=int)
    if sorted(pi.tolist()) != list(range(cov.n_sets)):
        raise StructuralError("pi must be a permutation of the covering index set")
    inv = np.empty_like(pi)
    inv[pi] = np.arange(cov.n_sets)
    n = cov.space.n_points
    out = np.zeros((n, n), dtype=complex)
    for i, j in enumerate(inv):          # j = pi^{-1}(i)
        out[np.ix_(cov.sets[j], cov.sets[i])] += 1.0 / cov.measures[j]
    return out


def is_admissible_permutation(cov: Covering, pi) -> bool:
    """True when pi(i) always lies in the neighbor set i*."""
    pi = np.asarray(pi, dtype=int)
    return all(pi[i] in nb for i, nb in enumerate(cov.neighbors))


def random_admissible_permutation(cov: Covering, rng: np.random.Generator):
    """Random permutation with pi(i) in i*, or None if the greedy draw fails.

    The identity is always admissible, so callers can fall back to it.
    """
    n = cov.n_sets
    order = rng.permutation(n)
    taken = np.zeros(n, dtype=bool)
    pi = np.full(n, -1, dtype=int)
    for i in order:
        options = [j for j in cov.neighbors[i] if not taken[j]]
        if not options:
            return None
        j = options[rng.integers(len(options))]
        pi[i] = j
        taken[j] = True
    return pi


def neighbor_sums(cov: Covering, seq) -> np.ndarray:
    """lambda+_i = sum over j with U_j meeting U_i of lambda_j."""
    arr = np.asarray(seq, dtype=complex).reshape(-1)
    if arr.shape[0] != cov.n_sets:
        raise StructuralError("sequence length must equal number of sets")
    starts = np.cumsum([0] + [nb.size for nb in cov.neighbors[:-1]])
    return np.add.reduceat(arr[np.concatenate(cov.neighbors)], starts)


def singleton_covering(space: QuadratureSpace) -> Covering:
    """One singleton set per point, in point order."""
    return Covering(space, tuple(np.array([i]) for i in range(space.n_points)))


def uniform_covering(space: QuadratureSpace, width, overlap=0.0) -> Covering:
    """Sliding half-open coordinate boxes of the given width and overlap.

    Along every axis, windows [a, a + width) start at the axis minimum and
    advance by ``width - overlap`` while they still start at or below the
    axis maximum; sets are the box preimages on the grid. ``width`` and
    ``overlap`` may be scalars or per-axis sequences.
    """
    dim = space.dim
    widths = np.broadcast_to(np.asarray(width, dtype=float).reshape(-1), (dim,)) \
        if np.ndim(width) else np.full(dim, float(width))
    overlaps = np.broadcast_to(np.asarray(overlap, dtype=float).reshape(-1), (dim,)) \
        if np.ndim(overlap) else np.full(dim, float(overlap))
    if np.any(widths <= 0):
        raise StructuralError("width must be positive")
    if np.any(overlaps < 0) or np.any(overlaps >= widths):
        raise StructuralError("overlap must satisfy 0 <= overlap < width")

    tol = 1e-9
    axis_windows = []
    for a in range(dim):
        coords = space.points[:, a]
        lo, hi = float(coords.min()), float(coords.max())
        stride = widths[a] - overlaps[a]
        starts = []
        s = lo
        while s <= hi + tol:
            starts.append(s)
            s += stride
        masks = []
        for s in starts:
            masks.append((coords >= s - tol) & (coords < s + widths[a] - tol))
        axis_windows.append(masks)

    sets = []
    idx_grid = [range(len(m)) for m in axis_windows]
    for combo in itertools.product(*idx_grid):
        mask = np.ones(space.n_points, dtype=bool)
        for a, k in enumerate(combo):
            mask &= axis_windows[a][k]
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            raise StructuralError(
                "uniform covering produced an empty box; adjust width/overlap"
            )
        sets.append(idx)
    return Covering(space, tuple(sets))


def covering_to_json(cov: Covering) -> dict:
    return {"sets": [s.tolist() for s in cov.sets]}


def covering_from_json(space: QuadratureSpace, doc: dict) -> Covering:
    try:
        sets = doc["sets"]
    except KeyError as exc:
        raise StructuralError(f"covering document missing key {exc}") from exc
    if not isinstance(sets, (list, tuple)):
        raise StructuralError("covering sets must be a list of index lists")
    return Covering(space, tuple(sets))
