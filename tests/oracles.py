"""Reference routes for the tower and its field Jacobian, used only by tests.

``dpsi_wrt_X_fd`` central-differences the tower in each field coefficient and
is the independent check on the tangent recursion of
:func:`saarilab.lie_tower.dpsi_wrt_X`.  ``dpsi_wrt_X_per_column`` is that
recursion as it was first written, rebuilding the Lie chain for every
column; the library route must equal it bit for bit.
``dpsi_wrt_F_per_column`` is the observable Jacobian as first written, one
tower per monomial basis jet, where the library runs ``m`` transposed Lie
sweeps; they must agree to roundoff.  ``lie_derivative_full``
and ``jet_pow_full`` multiply over the full convolution triples, where the
library restricts them to the variables a jet uses; they too must agree bit
for bit.  ``potential_jet_by_jets``, ``field_jet_by_jets`` and
``energy_jet_by_jets`` build the N-body jets one validated jet per
operation, where the library sums coefficient arrays into one jet per
result; their bytes, signed zeros included, must be equal.
``potential_full_table`` is the potential's route before the pair
coordinates, each pair's series on the whole configuration table; the
library must agree with it to roundoff.
``grad_potential_by_pairs`` is the N-body force as first written, one numpy
difference vector per pair, where the library runs one pass over the
system's cached pair plan in Python floats; their bytes must be equal.
``hamiltonian_field_by_concat`` is the Hamiltonian field as first written,
the velocities and the negated force concatenated as two arrays, where the
library takes both in one pass in Python floats; their bytes must be equal.
``shift_by_triples`` re-expands a polynomial's whole table, where the
library shifts only the rows it returns, for one point or a group of
points; their bytes must be equal too.  ``obstruction_scan_per_sample``
scans one sample at a time, where the library builds one set of jet
stacks and runs one stacked tower chain per group of samples; their
reports must be equal byte for byte.  It draws each sample
with ``draw_per_sample``, the rejection loop of one sample as first
written, where the library draws a whole scan in one call and checks the
separations of all pending samples at once, and it evaluates each sample
with ``obstruction_per_sample``, one point's tower with its own
``<grad F, X>`` cross-check and its own norms, where the library checks a
group on its arrays; draws must be equal byte for byte too.  With
``cartesian``, both run N-body energy and inertia towers on Cartesian jets,
the route before the Jacobi chart: the accuracy oracle of the chart's
towers, and the byte oracle of every pair of handles that keeps the
Cartesian chart.  ``jet_from_samples`` estimates a jet of any callable from
central finite differences of its values, with no jet arithmetic: the
independent check on the exact N-body jets, within its error estimates.
``lie_step_per_term`` and ``lie_step_t_per_term`` are the Lie step and
its transpose one product per term, the byte oracles of the fused steps.
The one-jet helpers ``jet_add``, ``jet_scale``, ``jet_partial``,
``jet_truncate``, ``jet_pad``, ``jet_pow`` and ``partials_from_jet`` wrap
the library's array operations one validated jet at a time; no library
code calls them, and the oracles named above are written in them.
"""

import itertools
import math


import numpy as np

from saarilab.errors import (
    DegreeDeficitError,
    EvaluationDomainError,
    InsufficientSamplesError,
    InternalConsistencyError,
    SingularityError,
)
from saarilab.fields import field_coeffs, observable_coeffs, stream_rng
from saarilab.flow import _stencil_1d
from saarilab.genericity import (
    TOL_ZERO,
    ScanReport,
    _TAG_SAMPLE,
    _field_and_system,
)
from saarilab.jet_algebra import (
    JetField,
    TruncatedJet,
    _check_combinable,
    embed_jet,
    jet_mul,
    table_size,
    _mul,
    _pad,
    _pow,
    _space,
    _top_orders,
    _variable_mask,
    _ORDER_SCAN_SIZE,
)
from saarilab.lie_tower import (
    JacobianResult,
    ObstructionSample,
    RANK_THRESHOLD,
    STRUCTURAL_TOL,
    SaariVector,
    _rank_report,
    _structural_check,
    _term_order,
    _tower,
    default_tower_order,
    lie_derivative,
    psi_tower,
)
from saarilab.mech import (
    _chart_jets,
    _jacobi_tower,
    _bodies,
    _bumps,
    _check_collisions,
    _f_prime,
    _pair_terms,
    _quadratic_positions,
    pair_distances,
)

# -- one-jet helpers -----------------------------------------------------------


def jet_add(a: TruncatedJet, b: TruncatedJet) -> TruncatedJet:
    _check_combinable(a, b)
    return TruncatedJet(a.dim, a.degree, a.base_point, a.coeffs + b.coeffs)


def jet_scale(a: TruncatedJet, s: float) -> TruncatedJet:
    return TruncatedJet(a.dim, a.degree, a.base_point, s * a.coeffs)


def jet_partial(a: TruncatedJet, axis: int) -> TruncatedJet:
    """Partial derivative along one coordinate; degree drops by one.

    A degree-0 input has no derivative information and yields the zero jet of
    degree 0 (the only honest answer without extra orders).
    """
    if not 0 <= axis < a.dim:
        raise ValueError(f"axis {axis} out of range for dim {a.dim}")
    if a.degree == 0:
        return TruncatedJet.zero(a.dim, 0, a.base_point)
    sp = _space(a.dim, a.degree)
    c = a.coeffs[sp.diff_src[axis]] * sp.diff_scale[axis]
    return TruncatedJet(a.dim, a.degree - 1, a.base_point, c)


def jet_truncate(a: TruncatedJet, degree: int) -> TruncatedJet:
    """Forget orders above ``degree`` (a prefix slice of the table)."""
    if degree > a.degree:
        raise DegreeDeficitError(
            f"cannot truncate degree-{a.degree} jet up to degree {degree}"
        )
    if degree == a.degree:
        return a
    n = table_size(a.dim, degree)
    return TruncatedJet(a.dim, degree, a.base_point, a.coeffs[:n])


def jet_pad(a: TruncatedJet, degree: int) -> TruncatedJet:
    """Embed into a higher degree with zero coefficients above ``a.degree``.

    Only valid when the extra coefficients are genuinely zero (polynomial
    data); otherwise it fabricates orders, so callers decide.
    """
    if degree < a.degree:
        raise ValueError("jet_pad target degree below current degree")
    if degree == a.degree:
        return a
    return TruncatedJet(a.dim, degree, a.base_point,
                        _pad(a.coeffs, table_size(a.dim, degree)))


def jet_pow(a: TruncatedJet, exponent: float) -> TruncatedJet:
    """``a**exponent`` for real exponents via the truncated binomial series
    of the library's power kernel.

    Requires a nonzero constant term (and a positive one for non-integer
    exponents); the series is exact at the truncation degree.
    """
    return TruncatedJet(a.dim, a.degree, a.base_point,
                        _pow(_space(a.dim, a.degree), a.coeffs, exponent))


def partials_from_jet(a: TruncatedJet, alpha) -> float:
    """Partial-derivative value ``d^alpha f(base) = alpha! * c_alpha``."""
    alpha = tuple(alpha)
    return a.coeff(alpha) * math.prod(math.factorial(int(e)) for e in alpha)


#: Finite-difference step scale: coefficient ``c`` moves by
#: ``WRT_X_STEP_SCALE * max(1, |c|)`` in partial-derivative coordinates.
WRT_X_STEP_SCALE = 1e-5


def rows_inside(sp, mask: int) -> np.ndarray:
    """The rows of ``sp`` whose exponents vanish outside ``mask``, ascending,
    read off the exponent table."""
    outside = [v for v in range(sp.dim) if not mask >> v & 1]
    return np.flatnonzero(~sp.exps[:, outside].any(axis=1))


def lie_derivative_full(f: TruncatedJet, x: JetField) -> TruncatedJet:
    """``L_X F`` with one full-table :func:`jet_mul` per component, the terms
    added in conjugate pairs ``(z_c, z_{h+c})`` for an even ``dim = 2h``, as
    the library adds them, else in component order."""
    h = f.dim // 2
    order = (range(f.dim) if f.dim % 2
             else [i for c in range(h) for i in (c, h + c)])
    out = None
    for i in order:
        term = jet_mul(jet_partial(f, i), jet_truncate(x.components[i], f.degree - 1))
        out = term if out is None else jet_add(out, term)
    return out


def lie_step_per_term(dim: int, degree: int, f: np.ndarray, comps) -> np.ndarray:
    """``lie_tower._lie_step`` one term at a time, on the per-component
    ``(mask, coeffs)`` list ``comps``: one :func:`_mul` per kept term, on
    the same order scan, prefixes and triple sets, the terms added in
    :func:`_term_order` from the first."""
    sp, low = _space(dim, degree), _space(dim, degree - 1)
    if scan := sp.size >= _ORDER_SCAN_SIZE:
        top, used = _top_orders(sp, f)
        tables = sorted({mask for mask, _ in comps if mask is not None},
                        key=int.bit_count)
        cover = {u: next((t for t in tables if not u & ~t), None)
                 for u in set(used)}
    out = None
    for i in _term_order(dim):
        mask, comp = comps[i]
        src, scale, a_mask = sp.diff_src[i], sp.diff_scale[i], None
        if scan:
            if not top[i]:
                continue
            n = low.prefix[top[i] - 1]
            src, scale = src[:n], scale[:n]
            a_mask = cover[used[i]]
        term = _mul(low, f[src] * (scale if f.ndim == 1 else scale[:, None]),
                    comp, mask, a_mask)
        out = term if out is None else np.add(out, term, out)
    if out is None:
        out = np.zeros((low.size,) + f.shape[1:])
    return out


def lie_step_t_per_term(dim: int, degree: int, w: np.ndarray, comps) -> np.ndarray:
    """``lie_tower._lie_step_t`` one term at a time: one ``bincount`` per
    component over its triple set, scattered in :func:`_term_order`."""
    sp, low = _space(dim, degree), _space(dim, degree - 1)
    out = np.zeros(sp.size)
    for i in _term_order(dim):
        mask, comp = comps[i]
        tri_i, tri_j, tri_k = low.triples_within(mask, None)
        v = np.bincount(tri_i, w[tri_k] * comp[tri_j], low.size)
        out[sp.diff_src[i]] += v * sp.diff_scale[i]
    return out


def jet_pow_full(a: TruncatedJet, exponent: float) -> TruncatedJet:
    """The binomial-series Horner loop of ``jet_pow`` with full-table products."""
    a0, d = a.value, a.degree
    one = TruncatedJet.constant(1.0, a.dim, d, a.base_point)
    w = TruncatedJet(a.dim, d, a.base_point, jet_scale(a, 1.0 / a0).coeffs - one.coeffs)
    coeffs = [1.0]
    for k in range(1, d + 1):
        coeffs.append(coeffs[-1] * (exponent - k + 1) / k)
    acc = TruncatedJet.constant(coeffs[d], a.dim, d, a.base_point)
    for k in range(d - 1, -1, -1):
        acc = jet_add(jet_mul(acc, w),
                      TruncatedJet.constant(coeffs[k], a.dim, d, a.base_point))
    return jet_scale(acc, a0 ** exponent)


def shift_by_triples(poly: TruncatedJet, z, degree: int) -> TruncatedJet:
    """A polynomial's jet at ``z`` as first written: the whole table
    re-expanded in one ``bincount`` over every triple, then truncated or
    padded to ``degree``."""
    z = np.asarray(z, float)
    sp = _space(poly.dim, poly.degree)
    tri_i, tri_j, tri_k = sp.triples
    zpow = np.prod((z - poly.base_point)[np.newaxis, :] ** sp.exps, axis=1)
    c = np.bincount(tri_i, sp.tri_binom * poly.coeffs[tri_k] * zpow[tri_j],
                    sp.size)
    jet = TruncatedJet(poly.dim, poly.degree, z, c)
    return jet_pad(jet, degree) if degree > poly.degree else jet_truncate(jet, degree)


def grad_potential_by_pairs(system, q) -> np.ndarray:
    """``grad_potential`` with a numpy difference vector per pair: every
    distance, the square root of the squares summed in coordinate order, is
    checked for a collision before any force; each pair's force is added to
    the first body's row and subtracted from the second's, in pair order,
    then the bumps' gradients are added."""
    q2d = _bodies(system, q)
    terms = _pair_terms(system.potential)
    m = system.masses.tolist()
    pairs = system.pairs()
    diffs = [q2d[i] - q2d[j] for i, j in pairs]
    r = [math.sqrt(np.add.reduce(d * d)) for d in diffs]
    _check_collisions(system, np.array(r))
    grad = np.zeros(q2d.shape)
    for (i, j), d, rk in zip(pairs, diffs, r):
        wd = (-m[i] * m[j] * _f_prime(terms, rk) / rk) * d
        grad[i] += wd
        grad[j] -= wd
    out = grad.ravel()
    for bump in _bumps(system.potential):
        out = out + bump.grad(q2d.ravel())
    return out


def hamiltonian_field_by_concat(field, z) -> np.ndarray:
    """``HamiltonianField(z)`` as ``p / m`` and ``-grad V(q)`` made as two
    arrays and concatenated, the force from :func:`grad_potential_by_pairs`."""
    z = np.asarray(z, float)
    nc = field.system.coord_dim
    return np.concatenate([z[nc:] * field.minv,
                           -grad_potential_by_pairs(field.system, z[:nc])])


def pair_r2_jet(system, q2d, i: int, j: int, degree: int) -> TruncatedJet:
    """Exact jet of ``|q_i - q_j|^2`` about one configuration, placed entry
    by entry."""
    nc = system.coord_dim
    lin, quad = _quadratic_positions(nc)
    a = i * system.space_dim + np.arange(system.space_dim)
    b = j * system.space_dim + np.arange(system.space_dim)
    d = q2d[i] - q2d[j]
    c = np.zeros(_space(nc, degree).size)
    c[0] = d @ d
    if degree >= 1:
        c[lin[a]] = 2.0 * d
        c[lin[b]] = -2.0 * d
    if degree >= 2:
        c[quad[a, a]] = 1.0
        c[quad[b, b]] = 1.0
        c[quad[a, b]] = -2.0
    return TruncatedJet(nc, degree, q2d.ravel(), c)


def potential_full_table(system, q, degree: int) -> TruncatedJet:
    """``potential_config_jet`` by the route it first took, the accuracy
    oracle of the pair-coordinate route: each pair's ``r^2`` placed on the
    whole ``(coord_dim, degree)`` table by :func:`pair_r2_jet`, its binomial
    series there by :func:`jet_pow`, and a jet for every scale and sum."""
    q2d = _bodies(system, q)
    _check_collisions(system, pair_distances(system, q2d))
    terms = _pair_terms(system.potential)
    m = system.masses
    out = TruncatedJet.zero(system.coord_dim, degree, q2d.ravel())
    for i, j in system.pairs():
        r2 = pair_r2_jet(system, q2d, i, j, degree)
        pair_f = None
        for beta, alpha in terms:
            t = jet_scale(jet_pow(r2, alpha / 2.0), beta)
            pair_f = t if pair_f is None else jet_add(pair_f, t)
        out = jet_add(out, jet_scale(pair_f, -m[i] * m[j]))
    for bump in _bumps(system.potential):
        out = jet_add(out, bump.jet(q2d.ravel(), degree))
    return out


def potential_jet_by_jets(system, q, degree: int) -> TruncatedJet:
    """``potential_config_jet`` with a jet for every pair power, scale and
    sum in the pair's relative coordinates ``d = q_i - q_j``, and the
    substitution ``d = delta_i - delta_j`` expanded coefficient by
    coefficient: ``delta_i^a delta_j^b`` takes the pair's ``d^(a+b)``
    coefficient times ``prod_c C(a_c + b_c, a_c) * (-1)^|b|``, pair after
    pair, in Python."""
    q2d = _bodies(system, q)
    _check_collisions(system, pair_distances(system, q2d))
    terms = _pair_terms(system.potential)
    m = system.masses
    sd = system.space_dim
    lin, quad = _quadratic_positions(sd)
    exps = _space(system.coord_dim, degree).exps.tolist()
    out = np.zeros(len(exps))
    for i, j in system.pairs():
        d = q2d[i] - q2d[j]
        c = np.zeros(_space(sd, degree).size)
        c[0] = sum(x * x for x in d.tolist())
        if degree >= 1:
            c[lin] = 2.0 * d
        if degree >= 2:
            c[quad.diagonal()] = 1.0
        r2 = TruncatedJet(sd, degree, d, c)
        pair_f = None
        for beta, alpha in terms:
            t = jet_scale(jet_pow(r2, alpha / 2.0), beta)
            pair_f = t if pair_f is None else jet_add(pair_f, t)
        g = jet_scale(pair_f, -m[i] * m[j])
        for t, row in enumerate(exps):
            a, b = row[i * sd:(i + 1) * sd], row[j * sd:(j + 1) * sd]
            if sum(a) + sum(b) == sum(row):
                weight = math.prod(math.comb(x + y, x) for x, y in zip(a, b))
                out[t] += (-1) ** sum(b) * weight * g.coeff(
                    [x + y for x, y in zip(a, b)])
    jet = TruncatedJet(system.coord_dim, degree, q2d.ravel(), out)
    for bump in _bumps(system.potential):
        jet = jet_add(jet, bump.jet(q2d.ravel(), degree))
    return jet


def field_jet_by_jets(field, z, degree: int) -> JetField:
    """``HamiltonianField.jet_field`` with the forces built by
    :func:`jet_partial`, :func:`embed_jet` and :func:`jet_scale`."""
    z = np.asarray(z, float)
    sys = field.system
    nc = sys.coord_dim
    nph = sys.phase_dim
    lin, _ = _quadratic_positions(nph)
    comps = []
    for c in range(nc):
        coeffs = np.zeros(_space(nph, degree).size)
        coeffs[0] = z[nc + c] * field.minv[c]
        if degree >= 1:
            coeffs[lin[nc + c]] = field.minv[c]
        comps.append(TruncatedJet(nph, degree, z, coeffs))
    vjet = potential_jet_by_jets(sys, z[:nc], degree + 1)
    for c in range(nc):
        dv = jet_partial(vjet, c)
        comps.append(jet_scale(embed_jet(dv, nph, list(range(nc)), z), -1.0))
    return JetField(tuple(comps))


def energy_jet_by_jets(energy, z, degree: int) -> TruncatedJet:
    """``EnergyObservable.jet`` as the sum of a kinetic jet and an embedded
    potential jet."""
    z = np.asarray(z, float)
    sys = energy.system
    nc = sys.coord_dim
    nph = sys.phase_dim
    lin, quad = _quadratic_positions(nph)
    minv = 1.0 / sys.mass_vector
    p = np.arange(nc, nph)
    coeffs = np.zeros(_space(nph, degree).size)
    coeffs[0] = 0.5 * np.sum(z[nc:] ** 2 * minv)
    if degree >= 1:
        coeffs[lin[p]] = z[nc:] * minv
    if degree >= 2:
        coeffs[quad[p, p]] = 0.5 * minv
    kin = TruncatedJet(nph, degree, z, coeffs)
    vjet = potential_jet_by_jets(sys, z[:nc], degree)
    return jet_add(kin, embed_jet(vjet, nph, list(range(nc)), z))


def _bump(table: np.ndarray, idx: int, delta: float) -> np.ndarray:
    out = table.copy()
    out[idx] += delta
    return out


def dpsi_wrt_X_fd(f: TruncatedJet, x: JetField, m: int) -> JacobianResult:
    """Field Jacobian of the tower by central differences.

    Like :func:`dpsi_wrt_X`, it raises :class:`InternalConsistencyError`
    when an entry pinned by the closed form deviates beyond
    ``STRUCTURAL_TOL``.
    """
    n = x.dim
    xdeg = m - 1
    x_work = x.truncated(xdeg)
    spx = _space(n, xdeg)
    f_work = jet_truncate(f, m)
    matrix = np.empty((m, n * spx.size))
    base_tables = [c.coeffs.copy() for c in x_work.components]
    for t in range(spx.size):
        fact = float(spx.factorials[t])
        for i in range(n):
            partial_value = base_tables[i][t] * fact
            h = WRT_X_STEP_SCALE * max(1.0, abs(partial_value))
            dc = h / fact
            plus = [tbl if j != i else _bump(tbl, t, dc)
                    for j, tbl in enumerate(base_tables)]
            minus = [tbl if j != i else _bump(tbl, t, -dc)
                     for j, tbl in enumerate(base_tables)]
            xp = JetField(tuple(
                TruncatedJet(n, xdeg, x.base_point, tb) for tb in plus))
            xm = JetField(tuple(
                TruncatedJet(n, xdeg, x.base_point, tb) for tb in minus))
            matrix[:, t * n + i] = (psi_tower(f_work, xp, m).values
                                    - psi_tower(f_work, xm, m).values) / (2.0 * h)
    x_vals = x_work.values()
    deviation = _structural_check(matrix, spx, x_vals, f_work.gradient(), m, n)
    if deviation > STRUCTURAL_TOL:
        raise InternalConsistencyError(
            f"finite differences deviate from structural entries by "
            f"{deviation:.3e}")
    return JacobianResult(
        matrix=matrix,
        rank_report=_rank_report(matrix, m, RANK_THRESHOLD),
        x_norm=float(np.linalg.norm(x_vals)),
        structural_deviation=float(deviation),
    )


def _tower_tangent(f: TruncatedJet, x: JetField, m: int, comp: int,
                   dot_coeffs: np.ndarray) -> np.ndarray:
    """Directional derivative of the tower along a perturbation of X^comp."""
    n = f.dim
    g = jet_truncate(f, m)
    gdot = TruncatedJet.zero(n, m, f.base_point)
    xdot = TruncatedJet(n, m - 1 if m > 1 else 0, f.base_point,
                        dot_coeffs[: _space(n, max(m - 1, 0)).size])
    out = np.empty(m)
    for k in range(m):
        tang = jet_mul(jet_partial(g, comp), jet_truncate(xdot, g.degree - 1))
        gdot = jet_add(lie_derivative(gdot, x), tang)
        g = lie_derivative(g, x)
        out[k] = gdot.value
    return out


def dpsi_wrt_X_per_column(f: TruncatedJet, x: JetField, m: int) -> np.ndarray:
    """The field Jacobian's matrix, one :func:`_tower_tangent` per column."""
    n = x.dim
    xdeg = max(m - 1, 0)
    x_work = x.truncated(xdeg)
    spx = _space(n, xdeg)
    f_work = jet_truncate(f, m)
    matrix = np.empty((m, n * spx.size))
    for t in range(spx.size):
        fact = float(spx.factorials[t])
        dot = np.zeros(_space(n, xdeg).size)
        dot[t] = 1.0 / fact
        for i in range(n):
            matrix[:, t * n + i] = _tower_tangent(f_work, x_work, m, i, dot)
    return matrix


def dpsi_wrt_F_per_column(x: JetField, m: int) -> JacobianResult:
    """The observable Jacobian as first written: one :func:`psi_tower` on
    each monomial basis jet of degree ``m`` (constant term excluded), in
    partial-derivative coordinates."""
    sp = _space(x.dim, m)
    matrix = np.empty((m, sp.size - 1))
    for idx in range(1, sp.size):
        coeffs = np.zeros(sp.size)
        coeffs[idx] = 1.0 / sp.factorials[idx]
        basis = TruncatedJet(x.dim, m, x.base_point, coeffs)
        matrix[:, idx - 1] = psi_tower(basis, x, m).values
    return JacobianResult(
        matrix=matrix,
        rank_report=_rank_report(matrix, m, RANK_THRESHOLD),
        x_norm=float(np.linalg.norm(x.values())),
    )


def draw_per_sample(sampler, index: int, dim: int, system=None) -> np.ndarray:
    """``Sampler.draw`` as first written: attempt after attempt on the
    sample's own stream, each projected and checked alone."""
    lo, hi = sampler.box
    for attempt in range(sampler.max_attempts):
        rng = stream_rng(sampler.seed, _TAG_SAMPLE, index, attempt)
        z = rng.uniform(lo, hi, dim)
        if system is None:
            return z
        nc = system.coord_dim
        q = z[:nc].reshape(system.n_bodies, system.space_dim)
        p = z[nc:].reshape(system.n_bodies, system.space_dim)
        if system.com_fixed:
            q = q - system.masses @ q / system.total_mass
            p = p - p.sum(axis=0) / system.n_bodies
        if not (pair_distances(system, q) < sampler.min_separation).any():
            return np.concatenate([q.ravel(), p.ravel()])
    raise InsufficientSamplesError(
        f"sample {index}: no collision-free draw in "
        f"{sampler.max_attempts} attempts"
    )


def obstruction_per_sample(F, X, z, m: int, tol_eq: float = 1e-9,
                           tol_crit: float = 1e-9,
                           cartesian: bool = False) -> ObstructionSample:
    """``obstruction_at`` as first written: one point's jets and chain, its
    first entry checked against ``F.grad(z) . X(z)``, and its flags from
    ``np.linalg.norm`` of ``X(z)`` and of the jet's gradient.

    A pair of handles that the library runs on the Jacobi chart
    (``mech._jacobi_tower``) runs there too, one point's chart jets, and
    takes its F-critical flag from ``F.grad(z)``; with ``cartesian`` it
    keeps the Cartesian jets, the route before the chart and the accuracy
    oracle of the chart's towers."""
    z = np.asarray(z, float)
    x_val = np.asarray(X(z), float)
    route = None if cartesian else _jacobi_tower(F, X)
    if route is None:
        g = observable_coeffs(F, z, m)
        jets = field_coeffs(X, z, m - 1)
        n = z.size
        grad = g[1:n + 1][::-1]
    else:
        n, g, jets = _chart_jets(*route, z, m)
        grad = np.asarray(F.grad(z), float)
    sp = _space(n, m - 1)
    comps = []
    for mask, c in jets:
        if mask is None:  # a whole table: onto the table of its variables
            mask = _variable_mask(sp, c)
            if mask is not None:
                c = c[rows_inside(sp, mask)]
        comps.append((mask, c))
    if not (np.isfinite(g).all() and all(np.isfinite(c).all() for _, c in comps)):
        raise ValueError("jet coefficients must be finite")
    values, finite = _tower(n, m, g, comps)
    if not finite:
        raise ValueError("jet coefficients must be finite")
    psi = SaariVector(values=values, order=m, base_point=z)
    if hasattr(F, "grad"):
        dot = float(np.dot(np.asarray(F.grad(z), float), x_val))
        scale = max(1.0, abs(psi.values[0]), abs(dot))
        if abs(psi.values[0] - dot) > 1e-12 * scale:
            raise InternalConsistencyError(
                f"first tower entry {psi.values[0]!r} disagrees with "
                f"<grad F, X> = {dot!r}")
    return ObstructionSample(
        z=z,
        psi=psi,
        norm_inf=psi.norm_inf,
        is_near_equilibrium=bool(np.linalg.norm(x_val) < tol_eq),
        is_near_F_critical=bool(np.linalg.norm(np.array(grad)) < tol_crit),
        tol_eq=tol_eq,
        tol_crit=tol_crit,
    )


def obstruction_scan_per_sample(X, F, sampler, m=None, tol_zero=TOL_ZERO,
                                tol_eq=1e-9, tol_crit=1e-9,
                                cartesian=False) -> ScanReport:
    """``obstruction_scan`` as one :func:`draw_per_sample` and one
    :func:`obstruction_per_sample` per sample, on the Cartesian chart with
    ``cartesian``."""
    fieldX, system = _field_and_system(X)
    dim = fieldX.dim if hasattr(fieldX, "dim") else F.dim
    if m is None:
        n_eff = system.effective_phase_dim if system is not None else dim
        m = default_tower_order(n_eff)
    n_eq = n_crit = n_sing = n_zero = n_nonzero = 0
    min_norm = math.inf
    for idx in range(sampler.count):
        z = draw_per_sample(sampler, idx, dim, system)
        try:
            samp = obstruction_per_sample(F, fieldX, z, m=m, tol_eq=tol_eq,
                                          tol_crit=tol_crit,
                                          cartesian=cartesian)
        except SingularityError:
            n_sing += 1
            continue
        if samp.is_near_equilibrium:
            n_eq += 1
        elif samp.is_near_F_critical:
            n_crit += 1
        elif samp.norm_inf < tol_zero:
            n_zero += 1
            min_norm = min(min_norm, samp.norm_inf)
        else:
            n_nonzero += 1
            min_norm = min(min_norm, samp.norm_inf)
    return ScanReport(
        n_samples=sampler.count,
        n_excluded_equilibrium=n_eq,
        n_excluded_F_critical=n_crit,
        n_excluded_singular=n_sing,
        n_obstruction_zero=n_zero,
        n_obstruction_nonzero=n_nonzero,
        min_nonexcluded_norm=min_norm if min_norm < math.inf else math.nan,
        tol_zero=float(tol_zero),
        tol_eq=float(tol_eq),
        tol_crit=float(tol_crit),
        seed=sampler.seed,
        tower_order=m,
    )


#: Largest degree jet_from_samples will attempt; finite differencing beyond
#: this is numerically meaningless in double precision.
MAX_SAMPLE_DEGREE = 8

_EPS = float(np.finfo(float).eps)


def _fd_partial(f, z, alpha: tuple, h: float, cache: dict) -> tuple[float, float]:
    """Tensor-product central difference estimate of d^alpha f(z).

    Returns the estimate together with the largest sample magnitude seen,
    which feeds the roundoff term of the error model.
    """
    axes = [i for i, e in enumerate(alpha) if e > 0]
    stencils = [_stencil_1d(alpha[i]) for i in axes]
    total = 0.0
    biggest = 0.0
    for combo in itertools.product(*stencils):
        off = np.zeros(len(z))
        w = 1.0
        for ax, (o, c) in zip(axes, combo):
            off[ax] = o
            w *= c
        key = tuple(np.round(off * 2).astype(int))
        if key not in cache:
            val = float(f(z + h * off))
            if not math.isfinite(val):
                raise EvaluationDomainError(
                    f"non-finite sample at offset {h * off} from base point"
                )
            cache[key] = val
        biggest = max(biggest, abs(cache[key]))
        total += w * cache[key]
    return total / h ** sum(alpha), biggest


#: Geometric step ladder explored per coefficient (multiples of the base step).
_STEP_LADDER = (1.0, 2.0, 4.0, 8.0)
#: Largest absolute step attempted, regardless of derivative order.
_MAX_STEP = 0.25


def jet_from_samples(f, z, degree: int) -> tuple[TruncatedJet, np.ndarray]:
    """Estimate a jet by central finite differences with Richardson refinement.

    For a coefficient of derivative order ``k`` the base step is
    ``eps**(1/(k+4))`` — the noise/bias optimum once one Richardson level has
    promoted the central-difference bias from O(h^2) to O(h^4).  Each
    coefficient is estimated on a short geometric step ladder; adjacent rungs
    form Richardson pairs, and the pair with the smallest modeled error
    (extrapolation disagreement plus a roundoff term ``eps*|f|/h^k``) wins.
    Larger rungs are what make polynomial coefficients come out at roundoff
    level instead of being drowned by cancellation noise.

    Returns the jet and the winning error model per coefficient.  Degrees
    above :data:`MAX_SAMPLE_DEGREE` are refused.
    """
    z = np.asarray(z, float)
    dim = z.size
    if degree > MAX_SAMPLE_DEGREE:
        raise DegreeDeficitError(
            f"sampled jets support degree <= {MAX_SAMPLE_DEGREE}, got {degree}"
        )
    sp = _space(dim, degree)
    coeffs = np.zeros(sp.size)
    errors = np.zeros(sp.size)
    f0 = float(f(z))
    if not math.isfinite(f0):
        raise EvaluationDomainError("non-finite sample at the base point")
    coeffs[0] = f0
    errors[0] = abs(f0) * _EPS
    caches: dict[float, dict] = {}
    for idx in range(1, sp.size):
        alpha = tuple(sp.exps[idx].tolist())
        k = int(sp.orders[idx])
        base = _EPS ** (1.0 / (k + 4))
        steps = [base * m for m in _STEP_LADDER if base * m <= _MAX_STEP]
        if not steps:
            steps = [base]
        rungs = []
        for h in steps:
            est, fmax = _fd_partial(f, z, alpha, h, caches.setdefault(h, {}))
            rungs.append((h, est, fmax))
        weight_sum = 2.0 ** k  # sum of |stencil weights|
        best_val, best_err = rungs[0][1], math.inf
        for (h, lo, fm_lo), (_, hi, fm_hi) in zip(rungs, rungs[1:]):
            extrap = (4.0 * lo - hi) / 3.0
            noise = _EPS * max(fm_lo, fm_hi, 1e-300) * weight_sum / h ** k
            err = abs(lo - hi) / 3.0 + noise
            if err < best_err:
                best_val, best_err = extrap, err
        if len(rungs) == 1:
            h, best_val, fm = rungs[0]
            best_err = _EPS * max(fm, 1e-300) * weight_sum / h ** k
        fact = sp.factorials[idx]
        coeffs[idx] = best_val / fact
        errors[idx] = best_err / fact + _EPS * abs(best_val) / fact
    return TruncatedJet(dim, degree, z, coeffs), errors
