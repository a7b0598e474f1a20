"""Coverings of the point set and partitions of unity.

A covering is a finite family of nonempty point-index subsets. Validation
computes the overlap bound N, the smallest set measure D, and the
moderateness constant C~ = max mu(U_i)/mu(U_j) over intersecting pairs,
all by exact enumeration.
"""

from __future__ import annotations

import hashlib
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import StructuralError
from .kernels import Weight2D
from .quadrature import QuadratureSpace


def _segments(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices of the segments [starts[k], starts[k] + sizes[k]), laid
    out one segment after another."""
    shift = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return shift + np.arange(shift.size)


def _segment_sums(values, ptr: np.ndarray) -> np.ndarray:
    """out[k] = sum of ``values[ptr[k]:ptr[k + 1]]`` along the first axis,
    for ascending ``ptr`` from 0; an empty segment gives 0."""
    counts = np.diff(ptr)
    vals = np.asarray(values)
    out = np.zeros((counts.size,) + vals.shape[1:], dtype=vals.dtype)
    # the k-th entry of every segment longer than k, k = 0, 1, ...; a
    # row-wise reduceat over mostly one-entry segments is several times slower
    for k in range(int(counts.max(initial=0))):
        held = np.flatnonzero(counts > k)
        if k == 0:
            out[held] = vals[ptr[held]]
        else:
            out[held] += vals[ptr[held] + k]
    return out


def _index_array(s) -> np.ndarray:
    """One covering set as a flat integer index array; refuses what is not
    a nonempty array of integers."""
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
    return arr.astype(int).reshape(-1)


def _flat_sets(sets) -> tuple:
    """(points, sizes): the entries of every set, one set after another, as
    one integer array, and the number of entries of each set.

    Nonempty lists of Python ints, as a JSON document gives them, are
    chained and converted in one call. Any other family, or one of lists
    that fails that test, goes set by set (``_index_array``), which names
    what is wrong with the first bad set.
    """
    if sets and all(type(s) is list for s in sets):
        flat = [x for s in sets for x in s]
        sizes = np.fromiter(map(len, sets), int, len(sets))
        if sizes.all() and set(map(type, flat)) == {int}:
            points = np.array(flat)
            if points.dtype.kind == "i":        # else an int beyond int64
                return points, sizes
    raw = [_index_array(s) for s in sets]
    if not raw:
        raise StructuralError("covering needs at least one set")
    return np.concatenate(raw), np.array([arr.size for arr in raw])


@dataclass(frozen=True, eq=False)
class Covering:
    """Indexed family of point subsets, stored once as its incidence.

    ``sets`` is read into the (set, point) pairs, sorted and unique, in two
    flat arrays, set-major (``flat_sets``, ``flat_points``), plus a
    point-major ordering of those pairs (a CSR index). No per-set object
    and no (n_sets, n_points), (n_sets, n_sets) or (n_points, n_points)
    table is kept; everything else is derived (all exact):

      cover_counts       number of sets containing each point
      measures           mu(U_i)
      overlap_bound      N  = max_i #(i*), i* = {j : U_j meets U_i} (i is in i*)
      min_measure        D  = min_i mu(U_i)
      moderateness       C~ = max mu(U_i)/mu(U_j) over intersecting pairs
      q_neighborhoods    Q_y for a block of points y, the union of the sets
                         containing y, as sorted (y, z) pairs
      q_bound            max_y |Q_y| <= max_y sum of |U_i| over U_i holding y
    """

    space: QuadratureSpace
    sets: InitVar[tuple]

    def __post_init__(self, sets):
        points, sizes = _flat_sets(sets)
        if points.min() < 0 or points.max() >= self.space.n_points:
            raise StructuralError("covering set contains invalid point index")
        self._index(np.repeat(np.arange(sizes.size), sizes), points)

    @classmethod
    def _from_pairs(cls, space: QuadratureSpace, set_ids, points) -> Covering:
        """The covering of the (set, point) pairs (``set_ids``, ``points``):
        valid points in any order, repeats allowed, no set id left out."""
        cov = cls.__new__(cls)
        object.__setattr__(cov, "space", space)
        cov._index(set_ids, points)
        return cov

    def _index(self, set_ids, points) -> None:
        n = self.space.n_points
        # sort and dedupe every (set, point) pair at once, keyed set * n + point
        flat_sets, flat_points = np.divmod(np.unique(set_ids * n + points), n)
        sizes = np.bincount(flat_sets)
        by_point = np.argsort(flat_points, kind="stable")
        point_ptr = np.cumsum(np.bincount(flat_points, minlength=n))
        for name, arr in (("flat_sets", flat_sets), ("flat_points", flat_points),
                          ("_set_starts", np.cumsum(sizes) - sizes),
                          ("_set_sizes", sizes),
                          ("_sets_by_point", flat_sets[by_point]),
                          ("_point_ptr", np.append(0, point_ptr))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_sets(self) -> int:
        return self._set_sizes.size

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
    def _neighbor_pairs(self) -> tuple:
        """(i, j) for every set i and every j in i*, ordered by i, then j."""
        # Pair every flat (i, x) with each set j holding x; those j sit at
        # _sets_by_point[ptr[x]:ptr[x + 1]], laid out here pair after pair.
        ptr = self._point_ptr
        holds = np.diff(ptr)[self.flat_points]
        holders = self._sets_by_point[_segments(ptr[self.flat_points], holds)]
        pairs = np.unique(np.repeat(self.flat_sets, holds) * self.n_sets + holders)
        return np.divmod(pairs, self.n_sets)

    @property
    def overlap_bound(self) -> int:
        return int(np.bincount(self._neighbor_pairs[0]).max())

    @property
    def min_measure(self) -> float:
        return float(self.measures.min())

    @property
    def moderateness(self) -> float:
        mu = self.measures
        rows, cols = self._neighbor_pairs
        return float(np.max(mu[rows] / mu[cols]))

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

    def holders_of(self, points) -> tuple:
        """(sets, counts): the sets containing each of ``points`` (an index
        array, repeats allowed), point after point, and how many sets hold
        each point."""
        ptr = self._point_ptr
        counts = np.diff(ptr)[points]
        return self._sets_by_point[_segments(ptr[points], counts)], counts

    def pair_sums(self, values) -> np.ndarray:
        """out[x] = sum of ``values`` over the pairs of point x, for one
        value per set in ``holders(0, n_points)``, in that order; points in
        no set get 0."""
        return _segment_sums(values, self._point_ptr)

    def q_neighborhoods(self, start: int, stop: int) -> tuple:
        """Q_y for every y in ``start:stop``, as the sorted pairs (ys, zs):
        ordered by y, then z, each pair once; an uncovered y has none."""
        held = self.holders(start, stop)
        sizes = self._set_sizes[held]
        # every point of every set holding y, laid out holder after holder
        zs = self.flat_points[_segments(self._set_starts[held], sizes)]
        ys = np.repeat(np.repeat(np.arange(start, stop),
                                 np.diff(self._point_ptr[start:stop + 1])), sizes)
        n = self.space.n_points
        return np.divmod(np.unique(ys * n + zs), n)

    @cached_property
    def q_bound(self) -> int:
        """An upper bound on every |Q_y|: the largest sum, over one point y,
        of the sizes of the sets containing y (the pairs
        ``q_neighborhoods`` lists for y before repeats are dropped)."""
        sums = np.bincount(self.flat_points, self._set_sizes[self.flat_sets])
        return int(sums.max(initial=0))

    def identifier(self) -> str:
        """Deterministic content hash used in reports."""
        return self._identifier

    @cached_property
    def _identifier(self) -> str:
        # hashed once per covering: the JSON text of the sorted sets, each
        # point followed by ", " inside a set and by "], [" at a set's end
        ends = (np.diff(self.flat_sets, append=self.n_sets) != 0).tolist()
        text = "".join(f"{x}], [" if end else f"{x}, "
                       for x, end in zip(self.flat_points.tolist(), ends))
        payload = "[[" + text[:-len("], [")] + "]]"
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


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
class Cells:
    """The points of a partition of unity grouped into cells.

    A cell is a class of points held by the same sets with the same phi
    values, so every pile-up over the partition (flat, natural or
    phi-weighted) is constant on it. For the flat partition the cells are
    the classes of points held by the same sets; for a smooth one they are
    mostly single points. Cells are ordered by their sets, then their phi
    values. Cell c holds the points ``members[member_ptr[c]:member_ptr[c +
    1]]``, in ascending order, and its (set, phi_set) pairs are ``sets``
    and ``phi`` at ``pair_ptr[c]:pair_ptr[c + 1]``.
    """

    members: np.ndarray
    member_ptr: np.ndarray
    sets: np.ndarray
    phi: np.ndarray
    pair_ptr: np.ndarray

    @property
    def count(self) -> int:
        return self.member_ptr.size - 1

    def pair_sums(self, values) -> np.ndarray:
        """out[c] = sum of ``values`` over the pairs of cell c, for one
        value per pair in the order of ``sets`` (``values`` itself where
        every cell has one pair)."""
        if self.sets.size == self.count:
            return np.asarray(values)
        return _segment_sums(values, self.pair_ptr)


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

    @cached_property
    def cells(self) -> Cells:
        """The partition's cells (``Cells``), found once per partition by
        sorting the points on their sets and phi values."""
        cov = self.covering
        n = cov.space.n_points
        counts, ptr = cov.cover_counts, cov._point_ptr
        depth = int(counts.max())
        # one row per point: its sets, then its phi values, padded with -1
        key = np.full((n, 2 * depth), -1.0)
        point = np.repeat(np.arange(n), counts)
        slot = np.arange(point.size) - ptr[point]
        key[point, slot] = cov.holders(0, n)
        key[point, depth + slot] = self.phi
        # sorted on its sets first, equal rows sit together in ascending points
        members = np.lexsort(key.T[::-1])
        ordered = key[members]
        starts = np.flatnonzero(np.append(
            True, np.any(ordered[1:] != ordered[:-1], axis=1)))
        reps = members[starts]
        pairs = _segments(ptr[reps], counts[reps])
        cells = Cells(members, np.append(starts, n),
                      cov.holders(0, n)[pairs], self.phi[pairs],
                      np.concatenate(([0], np.cumsum(counts[reps]))))
        for arr in vars(cells).values():
            arr.setflags(write=False)
        return cells


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
        for idx in np.split(cov.flat_points, cov._set_starts[1:]):
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


def singleton_covering(space: QuadratureSpace) -> Covering:
    """One singleton set per point, in point order."""
    every = np.arange(space.n_points)
    return Covering._from_pairs(space, every, every)


def uniform_covering(space: QuadratureSpace, width, overlap=0.0) -> Covering:
    """Sliding half-open coordinate boxes of the given width and overlap.

    Along every axis, windows [a, a + width) start at the axis minimum and
    advance by ``width - overlap`` while they still start at or below the
    axis maximum; sets are the box preimages on the grid, one box per
    choice of a window on every axis, numbered with the last axis fastest.
    ``width`` and ``overlap`` may be scalars or per-axis sequences.
    """
    dim = space.dim
    widths, overlaps = (np.asarray(v, dtype=float).reshape(-1)
                        for v in (width, overlap))
    if {widths.size, overlaps.size} - {1, dim}:
        raise StructuralError(f"width and overlap take 1 or {dim} entries on a "
                              f"{dim}-dimensional grid, got {widths.size} and "
                              f"{overlaps.size}")
    widths, overlaps = np.broadcast_to(widths, dim), np.broadcast_to(overlaps, dim)
    if np.any(widths <= 0):
        raise StructuralError("width must be positive")
    if np.any(overlaps < 0) or np.any(overlaps >= widths):
        raise StructuralError("overlap must satisfy 0 <= overlap < width")

    tol = 1e-9
    # the (box, point) pairs, one axis at a time: each pair of the boxes so
    # far is split over the windows of the next axis holding its point
    boxes, points = np.zeros(space.n_points, dtype=int), np.arange(space.n_points)
    n_boxes = 1
    for a in range(dim):
        coords = space.points[:, a]
        lo, hi = float(coords.min()), float(coords.max())
        stride = widths[a] - overlaps[a]
        starts = [lo]
        while starts[-1] + stride <= hi + tol:
            starts.append(starts[-1] + stride)
        starts = np.array(starts)
        # window k holds x when starts[k] - tol <= x < starts[k] + width - tol;
        # both bounds ascend with k, so x is in windows first[x]:stop[x]
        first = np.searchsorted(starts + widths[a] - tol, coords, side="right")
        stop = np.searchsorted(starts - tol, coords, side="right")
        held = (stop - first)[points]
        boxes = np.repeat(boxes * starts.size, held) + _segments(first[points], held)
        points = np.repeat(points, held)
        n_boxes *= starts.size
    if boxes.size < n_boxes or not np.bincount(boxes, minlength=n_boxes).all():
        raise StructuralError(
            "uniform covering produced an empty box; adjust width/overlap"
        )
    return Covering._from_pairs(space, boxes, points)


def covering_from_json(space: QuadratureSpace, doc: dict) -> Covering:
    try:
        sets = doc["sets"]
    except KeyError as exc:
        raise StructuralError(f"covering document missing key {exc}") from exc
    if not isinstance(sets, (list, tuple)):
        raise StructuralError("covering sets must be a list of index lists")
    return Covering(space, tuple(sets))
