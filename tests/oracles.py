"""Independent brute-force references for the vectorized implementations.

Everything named ``*_naive`` is written as plain Python loops over indices,
deliberately avoiding the code paths (matmuls, scatter/gather over flat
index arrays) used by the package itself. The dense reproducing kernel
(``dense_kernel``), the dense partition-of-unity table (``dense_pou``),
the dense kernel algebra (``identity_kernel`` ... ``involution``), the
dense derived kernels (``oscillation_kernel``, ``sampled_row_kernel``) and
the exact streamed reproducing defect (``reproducing_defect_streamed``) are
the vectorized forms the tests check against those loops and against the
package's streamed Schur sums, rank-d rows and rank-d majorants; only tests
use them, so the package does not carry them. ``osc_rows_loop`` lists the
(y, z) pairs of a block one column at a time, reading Q_y off
``q_neighborhoods_naive``, and forms every pair without reusing mirrors;
the rows built from ``Covering.q_neighborhoods`` must equal it. The JSON
writers of grids and coverings (``space_to_json``, ``covering_to_json``)
are here too: only the round-trip tests write those documents.

The theory layer the tests measure with (measures, ``check_kernel`` and
the dense ``schur_norm``, sequence and decomposition norms, covering
kernels, the sampling operator on grid functions) is in ``theory.py``;
the dense algebra here coerces its kernels through ``theory.check_kernel``.
"""

import numpy as np

from framedisc.kernels import row_slices, schur_norms

from theory import DiscreteMeasure, check_kernel, decomposition_norm, \
    random_range_function


def dense_kernel(model):
    """The n x n reproducing kernel R = V^* S^{-1} V, made exactly Hermitian
    as 0.5 (R + R^*)."""
    r = model.vectors.conj().T @ (model.s_inverse @ model.vectors)
    return 0.5 * (r + r.conj().T)


def rank_d_entries(model):
    """R(z, y) = A[:, z]^* V[:, y] for every pair, each a d-term sum formed
    from gathered factor columns the way the phase rules form it
    (not symmetrized)."""
    z, y = np.indices((model.space.n_points,) * 2)
    return (model.duals[:, z].conj() * model.vectors[:, y]).sum(axis=0)


def dense_pou(pou):
    """The (n_sets, n_points) table of a partition of unity: phi_i(x) on the
    covering's (set, point) pairs, zero elsewhere."""
    cov = pou.covering
    n = cov.space.n_points
    out = np.zeros((cov.n_sets, n))
    points = np.repeat(np.arange(n), cov.cover_counts)
    out[cov.holders(0, n), points] = pou.phi
    return out


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
    term z = y is left out where Gamma(y, y) == 1 (it is exactly 0), a
    column with no term left is 0, and for a Hermitian phase every pair
    (y, z) is formed in the orientation (min, max), whose row has the same
    moduli. Every pair, mirrored ones twice, is a row of one rank-d
    product, and each column is the running maximum of its rows."""
    n = model.space.n_points
    q_of = q_neighborhoods_naive(cov.sets, n)
    ys, pairs = [], []
    for y in range(start, stop):
        for z in sorted(q_of[y]):
            if z == y and gamma(y, y) == 1.0:
                continue
            ys.append(y)
            pairs.append((min(y, z), max(y, z)) if gamma.hermitian else (y, z))
    out = np.zeros((stop - start, n))
    if not pairs:
        return out
    a, b = np.array(pairs).T
    left = model.duals[:, a] - gamma(a, b) * model.duals[:, b]
    rows = np.abs(left.conj().T @ model.vectors)
    for y, row in zip(ys, rows):
        np.maximum(out[y - start], row, out=out[y - start])
    return out


def sampled_row_kernel(model, plan):
    """K(x, y) = sum_i |R(x_i, y)| chi_{U_i}(x): rows of R spread over sets."""
    return plan.covering.point_sums(np.abs(dense_kernel(model)[plan.samples, :]))


def reproducing_defect_streamed(model):
    """Schur norm of R o R - R = V^* (S^{-1} S S^{-1} - S^{-1}) V, its
    rows formed and summed one block at a time (an n^2 d pass)."""
    g = model.s_inverse
    right = (g @ model.frame_operator @ g - g) @ model.vectors
    blocks = ((rows, np.abs(model.vectors[:, rows].conj().T @ right))
              for rows in row_slices(model.space.n_points))
    return schur_norms(model.space, blocks, [None])[0]


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


def refine_until_naive(model, weight, delta, gamma_rule="kernel",
                       max_rounds=12, require_invertibility=True):
    """The covering search with every round's budget computed in full.

    The same halving schedule as ``refine_until``, but each round builds the
    complete ``oscillation_report`` (an unscreened pass over the whole
    oscillation kernel, both Schur norms, C_mU) before deciding. When the rounds run
    out, the raised error carries the last round's report as ``last_report``.
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
        report = oscillation_report(model, cov, gamma, weight, delta)
        done = report.oscillation_ok and (
            not require_invertibility or report.invertibility_ok)
        singleton = all(s.size == 1 for s in cov.sets)
        if done or (singleton and report.oscillation_ok):
            return cov, report
        width = width / 2.0
    err = CertificationError(
        f"no covering met the oscillation budget within {max_rounds} rounds "
        f"(last osc_norm {report.osc_norm:.3e} vs delta {delta:.3e})"
    )
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


def observed_contraction_naive(model, plan, Y, n_iter=200, tol=1e-10,
                               n_probes=20, seed=0):
    """``observed_contraction`` for p != 2, one vector at a time: the power
    iteration analyzes every iterate and image separately and stops at the
    first zero-norm iterate, vanishing image or settled ratio; then the
    probes run one by one."""
    from framedisc.discretize import _restricted_matrix

    rng = np.random.default_rng(seed)
    m = np.eye(model.dim, dtype=complex) - _restricted_matrix(model, plan)
    best = 0.0
    g = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    prev = 0.0
    for _ in range(n_iter):
        F = model.analyze(g)
        nf = Y.norm(F)
        if nf == 0.0:
            break
        g_next = m @ g
        ratio = Y.norm(model.analyze(g_next)) / nf
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
        F = model.analyze(g)
        nf = Y.norm(F)
        if nf == 0.0:
            continue
        best = max(best, Y.norm(model.analyze(m @ g)) / nf)
    return float(best)


def measure_observed_naive(model, plan, Y, n_trials=50, seed=0):
    """The ``measure_observed`` field of ``verify_sampled_bounds``, one trial
    at a time: after the same ``n_trials`` range-function draws, each trial
    measure's decomposition norm and kernel image are formed on their own."""
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        random_range_function(model, rng)
    cov = plan.covering
    best = 0.0
    for _ in range(n_trials):
        k = rng.integers(1, cov.n_sets + 1)
        idx = rng.choice(model.space.n_points, size=k, replace=True)
        coef = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        dec = decomposition_norm(DiscreteMeasure(idx, coef), cov, Y)
        if dec > 0.0:
            applied = model.vectors.conj().T @ (
                model.s_inverse @ (model.vectors[:, idx] @ coef))
            best = max(best, Y.norm(applied) / dec)
    return best


def covering_to_json(cov):
    """The covering document ``coverings.covering_from_json`` reads; only
    the round-trip tests write one."""
    return {"sets": [s.tolist() for s in cov.sets]}


def space_to_json(space):
    """The grid document ``quadrature.space_from_json`` reads; only the
    round-trip tests write one."""
    return {"points": space.points.tolist(), "weights": space.weights.tolist()}
