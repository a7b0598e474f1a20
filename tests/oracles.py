"""Independent brute-force references for the vectorized implementations.

Everything named ``*_naive`` is written as plain Python loops over indices,
deliberately avoiding the code paths (matmuls, scatter/gather over flat
index arrays) used by the package itself. The dense reproducing kernel
(``dense_kernel``) and its rank-d rows (``kernel_rows``), the dense
partition-of-unity table (``dense_phi``),
the dense kernel algebra (``identity_kernel`` ... ``involution``), the
dense derived kernels (``oscillation_kernel``, ``sampled_row_kernel``) and
the exact streamed reproducing defect (``reproducing_defect_streamed``) are
the vectorized forms the tests check against those loops and against the
package's streamed Schur sums, rank-d rows and rank-d majorants; only tests
use them, so the package does not carry them. ``osc_rows_loop`` lists the
(y, z) pairs of a block one column at a time, reading Q_y off
``q_neighborhoods_naive``, and forms every pair without reusing mirrors;
the rows built from ``Covering.q_neighborhoods`` must equal it;
``osc_tile_keys_naive`` counts, from the same lists, the distinct rows
each tile of the package's pass must form. The JSON writers of grids and
coverings (``space_to_json``, ``covering_to_json``)
are here too: only the round-trip tests write those documents. So is the
box covering built from one mask per window and box
(``uniform_covering_naive``), which the package builds from each point's
window range along each axis, and the
grid-side verification harness (``residual_suite_grid``,
``bounds_observed_grid``, ``cross_check_grid``): it forms every trial as an
(n_points, n_trials) block of range functions (``random_range_block``),
inverts it on the grid (``apply_inverse``) and measures it there, as the
package did before it measured trials through their coordinates.

The theory layer the tests measure with (measures, ``check_kernel`` and
the dense ``schur_norm``, sequence and decomposition norms, covering
kernels, the sampling operator on grid functions) is in ``theory.py``;
the dense algebra here coerces its kernels through ``theory.check_kernel``.
"""

import hashlib
import itertools
import json

import numpy as np

from framedisc import Covering, StructuralError
from framedisc.discretize import atomic_decomposition, dual_frame, \
    reconstruct_from_samples, synthesize_sampled
from framedisc.kernels import even_step, row_slices
from framedisc.models import random_vectors
from framedisc.spaces import WeightedLp, sup_infinity_space

from theory import DiscreteMeasure, analyze, check_kernel, \
    decomposition_norm, pileup, random_range_function, sets_of, \
    streamed_schur_norm


def dense_kernel(model):
    """The n x n reproducing kernel R = V^* S^{-1} V, made exactly Hermitian
    as 0.5 (R + R^*)."""
    r = model.vectors.conj().T @ (model.s_inverse @ model.vectors)
    return 0.5 * (r + r.conj().T)


def kernel_rows(model, rows):
    """Rows ``rows`` (an index array or slice) of the reproducing kernel read
    from the model's factors, R[rows, :] = A[:, rows]^* V."""
    return model.duals[:, rows].conj().T @ model.vectors


def rank_d_entries(model):
    """R(z, y) = A[:, z]^* V[:, y] for every pair, each a d-term sum formed
    from gathered factor columns the way the phase rules form it
    (not symmetrized)."""
    z, y = np.indices((model.space.n_points,) * 2)
    return (model.duals[:, z].conj() * model.vectors[:, y]).sum(axis=0)


def dense_phi(cov):
    """The (n_sets, n_points) table of a covering's partition of unity:
    phi_i(x) on the covering's (set, point) pairs, zero elsewhere."""
    n = cov.space.n_points
    out = np.zeros((cov.n_sets, n))
    points = np.repeat(np.arange(n), cov.cover_counts)
    out[cov.holders(0, n), points] = cov.phi
    return out


def cells_naive(cov):
    """The cells of a covering by plain loops: the points grouped by their
    sets and phi values (1 / the number of sets holding the point), sorted
    by the sets, then the phi values; one (sets, phis, points) triple per
    cell, the points ascending."""
    holders = [[] for _ in range(cov.space.n_points)]
    for i, x in zip(cov.flat_sets.tolist(), cov.flat_points.tolist()):
        holders[x].append(i)
    groups = {}
    for x, sets in enumerate(holders):
        key = (tuple(sorted(sets)), tuple(1.0 / len(sets) for _ in sets))
        groups.setdefault(key, []).append(x)
    return [(sets, phis, tuple(points))
            for (sets, phis), points in sorted(groups.items())]


def identity_kernel(space):
    """The kernel acting as the identity under weighted application."""
    return np.diag(1.0 / space.weights).astype(complex)


def apply_kernel(space, kernel, f):
    """(K f)(x) = sum_y w_y K(x,y) f(y)."""
    k = check_kernel(space, kernel)
    arr = space.check_function(f)
    return k @ (space.weights * arr)


def apply_to_measure(space, kernel, nu):
    """(K nu)(x) = sum_i lambda_i K(x, x_i); atoms carry no quadrature weight."""
    k = check_kernel(space, kernel)
    nu.check_on(space)
    if nu.indices.size == 0:
        return np.zeros(space.n_points, dtype=complex)
    return k[:, nu.indices] @ nu.coefficients


def compose(space, k1, k2):
    """(k1 o k2)(x,y) = sum_z w_z k1(x,z) k2(z,y)."""
    a = check_kernel(space, k1)
    b = check_kernel(space, k2)
    return (a * space.weights[None, :]) @ b


def involution(kernel):
    """Conjugate transpose K*(x,y) = conj(K(y,x))."""
    return np.conj(np.asarray(kernel, dtype=complex)).T


def oscillation_kernel(model, cov, gamma):
    """The dense oscillation kernel, column by column:
    osc(x, y) = max over z in Q_y of |R(x, y) - Gamma(y, z) R(x, z)|."""
    r = dense_kernel(model)
    n = model.space.n_points
    out = np.empty((n, n))
    for y in range(n):
        zs = cov.q_neighborhoods(y, y + 1)[1]
        out[:, y] = np.abs(r[:, [y]] - r[:, zs] * gamma(y, zs)[None, :]).max(axis=1)
    return out


def osc_rows_loop(model, cov, gamma, start, stop):
    """Columns ``start:stop`` of the oscillation kernel as rows of osc^T, the
    pairs listed one column at a time from ``q_neighborhoods_naive``: the
    term z = y is left out (Gamma(y, y) = 1 makes it exactly 0), a column
    with no term left is 0, and every pair (y, z) is formed in the
    orientation (min, max), whose row has the same moduli under a
    Hermitian phase. Every pair, mirrored ones twice, is a row of one rank-d
    product, and each column is the running maximum of its rows."""
    n = model.space.n_points
    q_of = q_neighborhoods_naive(sets_of(cov), n)
    ys, pairs = [], []
    for y in range(start, stop):
        for z in sorted(q_of[y]):
            if z == y:
                continue
            ys.append(y)
            pairs.append((min(y, z), max(y, z)))
    out = np.zeros((stop - start, n))
    if not pairs:
        return out
    a, b = np.array(pairs).T
    left = model.duals[:, a] - gamma(a, b) * model.duals[:, b]
    rows = np.abs(left.conj().T @ model.vectors)
    for y, row in zip(ys, rows):
        np.maximum(out[y - start], row, out=out[y - start])
    return out


def osc_tile_keys_naive(cov, start, stop, cells):
    """The rows each tile of the oscillation pass forms over columns
    ``start:stop`` in tiles of at most ``cells`` (y, z) cells, one count
    per tile that forms any: the distinct keys (min, max) of its cells'
    pairs (y, z). The cells are the pairs
    ``osc_rows_loop`` lists, laid out one table row per y; a tile is as
    many whole table rows as ``cells`` holds at the longest row's width,
    or, where one row is wider than ``cells``, a piece of one row, the
    rows and pieces cut evenly (``kernels.even_step``)."""
    q_of = q_neighborhoods_naive(sets_of(cov), cov.space.n_points)
    table = [[(y, z) for z in sorted(q_of[y]) if z != y]
             for y in range(start, stop)]
    width = max(len(row) for row in table)
    if width == 0:
        return []
    tall = even_step(len(table), max(1, cells // width))
    chunk = even_step(width, min(width, cells))
    counts = []
    for r0 in range(0, len(table), tall):
        for c0 in range(0, width, chunk):
            keys = {(min(y, z), max(y, z)) for row in table[r0:r0 + tall]
                    for y, z in row[c0:c0 + chunk]}
            if keys:
                counts.append(len(keys))
    return counts


def sampled_row_kernel(model, cov):
    """K(x, y) = sum_i |R(x_i, y)| chi_{U_i}(x): rows of R spread over sets."""
    return cov.point_sums(np.abs(dense_kernel(model)[cov.samples, :]))


def sampled_row_bound_naive(model, cov, w):
    """The certified bound on the sampled-row constant D under the weight
    of the pointwise ``w`` that ``kernel_norms`` reports, written as loops
    over the sets i, the points x and the points y.

    M_i = max over x in U_i of m(x, x_i) and rho_i = sum_y mu_y
    |R(x_i, y)| m(x_i, y); the row bound at x is sum over the sets
    holding x of M_i rho_i, the column bound at y is
    sum_i M_i mu(U_i) |R(x_i, y)| m(x_i, y), and the bound is the largest
    of them all."""
    r = dense_kernel(model)
    mu = model.space.weights
    n = model.space.n_points
    m = weight_matrix_naive(w)
    sets = [list(map(int, s)) for s in sets_of(cov)]
    samples = [int(x) for x in cov.samples]
    spread, rho, measure = [], [], []
    for i, s in enumerate(sets):
        xi = samples[i]
        spread.append(max(m[x][xi] for x in s))
        rho.append(sum(mu[y] * abs(r[xi][y]) * m[xi][y] for y in range(n)))
        measure.append(sum(mu[x] for x in s))
    best = 0.0
    for x in range(n):
        best = max(best, sum(spread[i] * rho[i]
                             for i, s in enumerate(sets) if x in s))
    for y in range(n):
        best = max(best, sum(spread[i] * measure[i] * abs(r[samples[i]][y])
                             * m[samples[i]][y] for i in range(len(sets))))
    return best


def reproducing_defect_streamed(model):
    """Schur norm of R o R - R = V^* (S^{-1} S S^{-1} - S^{-1}) V, its
    rows formed and summed one block at a time (an n^2 d pass)."""
    g = model.s_inverse
    right = (g @ model.frame_operator @ g - g) @ model.vectors
    blocks = ((rows, np.abs(model.vectors[:, rows].conj().T @ right))
              for rows in row_slices(model.space.n_points))
    return streamed_schur_norm(model.space, blocks)


def integrate_naive(weights, values):
    total = 0.0 + 0.0j
    for w, v in zip(weights, values):
        total += w * v
    return total


def schur_norm_naive(weights, kernel, m=None):
    n = len(weights)
    row_best = 0.0
    for x in range(n):
        s = 0.0
        for y in range(n):
            factor = 1.0 if m is None else m[x][y]
            s += weights[y] * abs(kernel[x][y]) * factor
        row_best = max(row_best, s)
    col_best = 0.0
    for y in range(n):
        s = 0.0
        for x in range(n):
            factor = 1.0 if m is None else m[x][y]
            s += weights[x] * abs(kernel[x][y]) * factor
        col_best = max(col_best, s)
    return max(row_best, col_best)


def weight_matrix_naive(w):
    """Associated two-point weight m(x, y) = max{w(x)/w(y), w(y)/w(x)}."""
    n = len(w)
    out = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            out[x][y] = max(w[x] / w[y], w[y] / w[x])
    return out


def apply_naive(weights, kernel, values):
    n = len(weights)
    out = np.zeros(n, dtype=complex)
    for x in range(n):
        for y in range(n):
            out[x] += weights[y] * kernel[x][y] * values[y]
    return out


def apply_measure_naive(kernel, indices, coefficients):
    n = kernel.shape[0]
    out = np.zeros(n, dtype=complex)
    for x in range(n):
        for idx, lam in zip(indices, coefficients):
            out[x] += lam * kernel[x][idx]
    return out


def compose_naive(weights, k1, k2):
    n = len(weights)
    out = np.zeros((n, n), dtype=complex)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                out[x][y] += weights[z] * k1[x][z] * k2[z][y]
    return out


def covering_stats_naive(sets, weights):
    """(N, D, C_tilde) by direct enumeration over set pairs."""
    n_sets = len(sets)
    measures = [sum(weights[i] for i in s) for s in sets]
    overlap = 0
    c_tilde = 0.0
    for j in range(n_sets):
        count = 0
        for i in range(n_sets):
            if set(sets[i]) & set(sets[j]):
                count += 1
                c_tilde = max(c_tilde, measures[i] / measures[j])
        overlap = max(overlap, count)
    return overlap, min(measures), c_tilde


def membership_naive(sets, n_points):
    """Boolean (n_sets, n_points) table, entry [i, x] = (x in U_i)."""
    out = np.zeros((len(sets), n_points), dtype=bool)
    for i, s in enumerate(sets):
        for x in s:
            out[i, int(x)] = True
    return out


def q_neighborhoods_naive(sets, n_points):
    """Q_y for every point y: the points sharing some set with y."""
    q_of = [set() for _ in range(n_points)]
    for s in sets:
        for y in s:
            q_of[int(y)].update(int(z) for z in s)
    return q_of


def phase_table_naive(kernel, rule):
    """Gamma(y, z) for every pair: 1 for rule "one"; for rule "kernel" the
    phase of R(z, y), or 1 where |R(z, y)| <= 1e-12 and on the diagonal.
    R(z, y) is read as the rule reads it: ``kernel[z][y]`` for z > y and
    the conjugate of ``kernel[y][z]`` for z < y."""
    n = kernel.shape[0]
    out = np.ones((n, n), dtype=complex)
    if rule == "one":
        return out
    for y in range(n):
        for z in range(n):
            value = complex(kernel[z][y]) if z > y \
                else complex(kernel[y][z]).conjugate()
            if z != y and abs(value) > 1e-12:
                out[y][z] = value / abs(value)
    return out


def osc_naive(kernel, sets, gamma):
    """Triple loop over (x, y, z in Q_y)."""
    n = kernel.shape[0]
    q_of = q_neighborhoods_naive(sets, n)
    out = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            best = 0.0
            for z in q_of[y]:
                best = max(best, abs(kernel[x][y] - gamma[y][z] * kernel[x][z]))
            out[x][y] = best
    return out


def lp_norm_naive(mu, w, values, p):
    if np.isinf(p):
        best = 0.0
        for wi, v in zip(w, values):
            best = max(best, abs(v) * wi)
        return best
    total = 0.0
    for mui, wi, v in zip(mu, w, values):
        total += mui * (abs(v) * wi) ** p
    return total ** (1.0 / p)


def sampling_operator_naive(kernel, samples, masses, values):
    n = kernel.shape[0]
    out = np.zeros(n, dtype=complex)
    for x in range(n):
        for c, s in zip(masses, samples):
            out[x] += c * values[s] * kernel[x][s]
    return out


def pileup_naive(sets, n_points, seq, measures=None):
    """sum_i |seq_i| chi_{U_i}(x), divided by measures[i] when given."""
    out = np.zeros(n_points)
    for i, s in enumerate(sets):
        coef = abs(seq[i]) if measures is None else abs(seq[i]) / measures[i]
        for x in s:
            out[int(x)] += coef
    return out


def set_masses_naive(sets, indices, coefficients):
    """Per set, the sum of |coefficient| over the atoms lying in the set;
    repeated atoms count once each."""
    out = np.zeros(len(sets))
    for i, s in enumerate(sets):
        members = {int(x) for x in s}
        for idx, lam in zip(indices, coefficients):
            if int(idx) in members:
                out[i] += abs(lam)
    return out


def refine_until_naive(model, Y, delta, gamma_rule="kernel",
                       max_rounds=12):
    """The covering search in Y with every round's budget computed in full.

    The same halving schedule as ``refine_until``, but each round builds the
    complete ``oscillation_report`` (an unscreened pass over the whole
    oscillation kernel, both Schur norms, C_mU) before deciding, and
    returns the first certified round's report; an all-singleton covering
    that is not certified ends the search with CertificationError. The
    raised error carries the last round's report as ``last_report``.
    """
    from framedisc import CertificationError, PhaseFunction, StructuralError, \
        oscillation_report, singleton_covering, uniform_covering

    if delta <= 0:
        raise StructuralError("delta must be positive")
    space = model.space
    gamma = PhaseFunction(model, gamma_rule)
    spans = space.points.max(axis=0) - space.points.min(axis=0)
    width = np.where(spans > 0, spans, 1.0) * 1.0000001 + 1.0
    spacing = np.full(space.dim, np.inf)
    for a in range(space.dim):
        coords = np.unique(space.points[:, a])
        if coords.size > 1:
            spacing[a] = np.diff(coords).min()
    report = None
    for _ in range(max_rounds):
        if np.all(width >= spacing):
            cov = uniform_covering(space, width)
        else:
            cov = singleton_covering(space)
        report = oscillation_report(model, cov, gamma, Y, delta)
        if report.oscillation_ok and report.invertibility_ok:
            return report
        if all(s.size == 1 for s in sets_of(cov)):
            err = CertificationError(
                f"the all-singleton covering meets the oscillation budget but "
                f"not the invertibility condition (condition_lhs "
                f"{report.condition_lhs:.4f} > 1)")
            break
        width = width / 2.0
    else:
        err = CertificationError(
            f"no covering met the oscillation budget within {max_rounds} "
            f"rounds (last osc_norm {report.osc_norm:.3e} vs delta "
            f"{delta:.3e})")
    err.last_report = report
    raise err


def gabor_vectors_naive(n_time, n_freq, window_width):
    """The Gabor frame vectors and grid coordinates of ``build_gabor_model``,
    one column and one coordinate pair at a time."""
    from framedisc.models import _periodized_gaussian

    d = int(n_time)
    g = _periodized_gaussian(d, float(window_width))
    psi = np.empty((d, d * int(n_freq)), dtype=complex)
    k = np.arange(d)
    col = 0
    for t in range(d):
        shifted = np.roll(g, t)
        for j in range(int(n_freq)):
            psi[:, col] = shifted * np.exp(2j * np.pi * j * k / float(n_freq))
            col += 1
    freq_step = d / float(n_freq)
    coords = np.array([(t, j * freq_step) for t in range(d)
                       for j in range(int(n_freq))])
    return psi, coords


def observed_contraction_naive(model, cov, Y, n_iter=200, tol=1e-10,
                               n_probes=20, seed=0):
    """``observed_contraction`` for p != 2, one vector at a time: the power
    iteration analyzes every iterate and image separately and stops at the
    first zero-norm iterate, vanishing image or settled ratio; then the
    probes run one by one."""
    from framedisc.discretize import _restricted_matrix

    rng = np.random.default_rng(seed)
    m = np.eye(model.dim, dtype=complex) - _restricted_matrix(model, cov)
    best = 0.0
    g = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    prev = 0.0
    for _ in range(n_iter):
        F = analyze(model, g)
        nf = Y.norm(F)
        if nf == 0.0:
            break
        g_next = m @ g
        ratio = Y.norm(analyze(model, g_next)) / nf
        best = max(best, ratio)
        scale = np.linalg.norm(g_next)
        if scale == 0.0:
            break
        g = g_next / scale
        if abs(ratio - prev) <= tol * max(1.0, ratio):
            break
        prev = ratio
    for _ in range(n_probes):
        g = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
        F = analyze(model, g)
        nf = Y.norm(F)
        if nf == 0.0:
            continue
        best = max(best, Y.norm(analyze(model, m @ g)) / nf)
    return float(best)


def measure_observed_naive(model, cov, Y, n_trials=50, seed=0):
    """The ``measure_observed`` field of the bounds in
    ``verification_suite``, one trial at a time: after the same ``n_trials``
    range-function draws, the sizes of all trials, then the atom indices of
    all trials, then the coefficients of all trials are drawn, and each
    trial measure's decomposition norm and kernel image are formed on
    their own."""
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        random_range_function(model, rng)
    sizes = rng.integers(1, cov.n_sets + 1, size=n_trials)
    points = rng.choice(model.space.n_points, size=sizes.sum(), replace=True)
    coefs = rng.standard_normal(points.size) \
        + 1j * rng.standard_normal(points.size)
    best = 0.0
    for j, k in enumerate(sizes):
        start = int(sizes[:j].sum())
        idx, coef = points[start:start + k], coefs[start:start + k]
        dec = decomposition_norm(DiscreteMeasure(idx, coef), cov, Y)
        if dec > 0.0:
            applied = model.vectors.conj().T @ (
                model.s_inverse @ (model.vectors[:, idx] @ coef))
            best = max(best, Y.norm(applied) / dec)
    return best


def uniform_covering_naive(space, width, overlap=0.0):
    """``coverings.uniform_covering`` as one boolean mask per window and
    axis, intersected box by box over ``itertools.product`` of the window
    indices; the first empty box raises."""
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


def identifier_naive(cov):
    """A covering's content hash as its JSON writer gives it: the first 12
    hex digits of the SHA-256 of ``json.dumps`` of its sorted sets."""
    payload = json.dumps([s.tolist() for s in sets_of(cov)]).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def covering_to_json(cov):
    """The covering document ``coverings.covering_from_json`` reads; only
    the round-trip tests write one."""
    return {"sets": [s.tolist() for s in sets_of(cov)]}


def space_to_json(space):
    """The grid document ``quadrature.space_from_json`` reads; only the
    round-trip tests write one."""
    return {"points": space.points.tolist(), "weights": space.weights.tolist()}


def random_range_block(model, rng, k):
    """Analyses of ``k`` random vectors (``random_vectors``), one column
    each: an (n_points, k) block of generic elements of the range."""
    return model.vectors.conj().T @ random_vectors(rng, model.dim, k)


def residual_suite_grid(inverse, n_trials=50, seed=0, swap_roles=False):
    """One role's residuals of ``pipeline.verification_suite`` (its
    trials drawn from ``seed``) with every trial formed on the grid: the
    range functions and their duals as (n_points, n_trials) blocks, their
    samples read off those blocks, and their Y-norms and pile-ups summed
    over the whole grid."""
    rng = np.random.default_rng(seed)
    model, cov, Y = inverse.model, inverse.covering, inverse.Y
    duals = dual_frame(inverse, swap_roles=swap_roles)
    f = random_vectors(rng, model.dim, n_trials)
    f /= np.linalg.norm(f, axis=0)

    def errors(rec):
        return np.linalg.norm(rec - f, axis=0)

    lam = atomic_decomposition(inverse, f, swap_roles=swap_roles)
    atomic = errors(synthesize_sampled(model, cov, lam, swap_roles=swap_roles))
    dual_f = model.s_inverse @ f
    base = model.vectors.conj().T @ (dual_f if swap_roles else f)
    dual_base = model.vectors.conj().T @ (f if swap_roles else dual_f)
    samples = base[cov.samples]
    banach = errors(reconstruct_from_samples(inverse, samples,
                                             swap_roles=swap_roles))
    inner = duals.conj() @ f
    duality = np.max(np.abs(lam - inner), axis=0)
    exp_b = errors(synthesize_sampled(model, cov, inner, swap_roles=swap_roles))
    exp_c = errors(duals.T @ samples)
    ny = Y.column_norms(base)
    flat = Y.column_norms(pileup(samples, cov))[ny > 0] / ny[ny > 0]
    nyd = Y.column_norms(dual_base)
    natural = Y.column_norms(pileup(inner, cov, natural=True))[nyd > 0] \
        / nyd[nyd > 0]
    return {
        "atomic_max": float(np.max(atomic)),
        "atomic_mean": float(np.mean(atomic)),
        "banach_max": float(np.max(banach)),
        "banach_mean": float(np.mean(banach)),
        "duality_max": float(np.max(duality)),
        "dual_expansion_max": float(np.max(exp_b)),
        "sample_expansion_max": float(np.max(exp_c)),
        "flat_ratio_lo": float(np.min(flat)),
        "flat_ratio_hi": float(np.max(flat)),
        "natural_ratio_lo": float(np.min(natural)),
        "natural_ratio_hi": float(np.max(natural)),
    }


def bounds_observed_grid(inverse, n_trials=50, seed=0):
    """The observed side of the bounds in ``verification_suite`` with every
    trial formed on the grid: the range functions as an (n_points, n_trials)
    block, the partition-smoothed samples and the kernel images of the
    measure trials likewise, and each trial's per-point atom masses as a
    column of an (n_points, n_trials) density."""
    model, cov, Y = inverse.model, inverse.covering, inverse.Y
    weight = inverse.report.weight
    rng = np.random.default_rng(seed)
    space = model.space
    F = random_range_block(model, rng, n_trials)
    ny = Y.column_norms(F)
    F, ny = F[:, ny > 0.0], ny[ny > 0.0]
    vals = np.abs(F[cov.samples])
    sup = sup_infinity_space(Y).column_norms(F)
    smoothed = cov.pair_sums(cov.phi[:, None]
                             * vals[cov.holders(0, space.n_points)])
    ratios_1y = ny / WeightedLp(space, 1.0, weight.v).column_norms(F)
    sizes = rng.integers(1, cov.n_sets + 1, size=n_trials)
    idx = rng.integers(0, space.n_points, size=sizes.sum())
    coef = random_vectors(rng, idx.size, 1)[:, 0]
    trial = np.repeat(np.arange(n_trials), sizes)
    atoms = np.stack([model.vectors[:, idx[trial == j]] @ coef[trial == j]
                      for j in range(n_trials)], axis=1)
    density = np.bincount(idx * n_trials + trial, np.abs(coef),
                          minlength=space.n_points * n_trials)
    dec = Y.column_norms(pileup(
        cov.set_sums(density.reshape(space.n_points, n_trials)), cov,
        natural=True))
    applied = model.vectors.conj().T @ (model.s_inverse @ atoms)
    keep = dec > 0.0
    return {
        "sampled_flat_observed": np.max(Y.column_norms(pileup(vals, cov)) / ny),
        "pou_pileup_observed": np.max(Y.column_norms(smoothed) / ny),
        "measure_observed": np.max(Y.column_norms(applied[:, keep])
                                   / dec[keep]),
        "range_sup_observed": np.max(sup / ny),
        "l1v_vs_Y_max": np.max(ratios_1y),
        "l1v_vs_Y_min": np.min(ratios_1y),
        "Y_vs_sup_max": np.max(sup / ny),
        "Y_vs_sup_min": np.min(sup / ny),
    }


def apply_inverse(inverse, F):
    """A ``SamplingInverse`` applied to a grid function in the kernel range,
    or to each column of an (n_points, k) block of them: F goes to its
    coordinates a = S^{-1} V (mu F) (anything outside the range is first
    projected onto it), is inverted there (``invert_coords``) and comes
    back as V* a."""
    model = inverse.model
    arr = np.asarray(F, dtype=complex)
    block = arr.reshape(model.space.n_points, -1)
    coords = model.s_inverse @ (model.vectors
                                @ (model.space.weights[:, None] * block))
    out = model.vectors.conj().T @ inverse.invert_coords(coords)
    return out.reshape(arr.shape)


def cross_check_grid(inverse, other, n_trials=20, seed=0):
    """The cross-method gap of ``verification_suite`` between two handles
    with the trials formed on the grid: each side inverts the
    (n_points, n_trials) block of range functions through
    ``apply_inverse``, which first projects it to coordinates."""
    Y = inverse.Y
    F = random_range_block(inverse.model, np.random.default_rng(seed), n_trials)
    nf = Y.column_norms(F)
    F, nf = F[:, nf > 0.0], nf[nf > 0.0]
    gaps = Y.column_norms(apply_inverse(inverse, F) - apply_inverse(other, F))
    return float(np.max(gaps / nf, initial=0.0))
