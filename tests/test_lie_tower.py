"""Tower map tests: iterated Lie derivatives, Jacobians, exclusion flags."""

import itertools
import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saarilab.errors import (
    CombinabilityError,
    ConfigError,
    DegreeDeficitError,
    InternalConsistencyError,
)
from saarilab.fields import (
    PolynomialField,
    PolynomialObservable,
    SumField,
    SumObservable,
    coordinate_observable,
    linear1d_field,
    observable_coeffs,
    oscillator_energy,
    oscillator_field,
    random_polynomial_field,
    random_polynomial_observable,
    stream_rng,
)
from saarilab import jet_algebra, lie_tower, mech
from saarilab.genericity import PerturbationSpec, Sampler, obstruction_scan, perturb
from saarilab.jet_algebra import (
    JetField, TruncatedJet, _compact, _join, _space, _stack, table_size)
from saarilab.lie_tower import (
    RANK_THRESHOLD,
    SaariVector,
    default_tower_order,
    dpsi_wrt_F,
    dpsi_wrt_X,
    lie_derivative,
    obstruction_at,
    psi_tower,
)
from saarilab.mech import (
    BodySystem,
    NewtonianPotential,
    PowerLawPotential,
    build_hamiltonian_field,
    energy_observable,
    inertia_observable,
)

from fresh import run_fresh
from oracles import (
    dpsi_wrt_F_per_column,
    dpsi_wrt_X_fd,
    dpsi_wrt_X_per_column,
    jet_add,
    jet_pow,
    jet_truncate,
    lie_derivative_full,
    lie_step_per_term,
    lie_step_t_per_term,
    obstruction_per_sample,
)


# -- tower values ------------------------------------------------------------------


def test_tower_linear_growth():
    # x' = x, F = x^2: L^k F = 2^k x^2, so at x=1 the tower is (2, 4, 8).
    field = linear1d_field()
    obs = PolynomialObservable.from_coeffs(1, 2, {(2,): 1.0})
    z = np.array([1.0])
    psi = psi_tower(obs.jet(z, 3), field.jet_field(z, 2), 3)
    np.testing.assert_allclose(psi.values, [2.0, 4.0, 8.0], rtol=1e-14)


def test_tower_oscillator_coordinate():
    # F = q along (q, p) -> (p, -q): derivatives cycle q -> p -> -q -> -p.
    field = oscillator_field()
    obs = coordinate_observable(2, 0)
    z = np.array([1.0, 0.0])
    psi = psi_tower(obs.jet(z, 3), field.jet_field(z, 2), 3)
    np.testing.assert_allclose(psi.values, [0.0, -1.0, 0.0], atol=1e-15)
    assert psi.norm_inf == pytest.approx(1.0)


def test_tower_conserved_energy_vanishes():
    field = oscillator_field()
    obs = oscillator_energy()
    z = np.array([0.7, -0.3])
    psi = psi_tower(obs.jet(z, 4), field.jet_field(z, 3), 4)
    np.testing.assert_allclose(psi.values, 0.0, atol=1e-14)


def _energy_systems():
    """(system, tower orders): the N-body problems whose energy towers are
    checked for exact zeros."""
    two = BodySystem(2, 2, (1.0, 1.3), NewtonianPotential())
    three = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    yield two, (7,)
    yield three, (7, 9)
    yield BodySystem(3, 2, (1.0, 1.3, 0.7),
                     PowerLawPotential(((-1.0, -1.0), (0.3, -2.0)))), (7,)
    yield perturb(PerturbationSpec("potential", 3, 0.05, 7), two), (7,)
    yield BodySystem(2, 3, (1.0, 1.3), NewtonianPotential()), (7,)


def test_n_body_energy_towers_are_exactly_zero():
    # L_X H adds each conjugate pair's two Poisson-bracket products, exact
    # negatives of each other, so it is +0 bit for bit and so is every
    # later step: one point's tower, obstruction_at, a group's stacked
    # chain and a scan.  Added in component order, the terms left roundoff
    # of up to 6e-8 at three-body m = 9 and crossed TOL_ZERO at m = 10.
    for system, orders in _energy_systems():
        X, E = build_hamiltonian_field(system), energy_observable(system)
        sampler = Sampler(box=(-1.0, 1.0), count=4, seed=4, min_separation=0.3)
        points = [sampler.draw(i, system.phase_dim, system) for i in range(4)]
        for m in orders:
            for z in points:
                assert (psi_tower(E.jet(z, m), X.jet_field(z, m - 1), m).values
                        == 0.0).all(), (system, m)
                assert (obstruction_at(E, X, z, m).psi.values == 0.0).all()
            values, *_ = lie_tower._obstructions(E, X, points, m, 1e-9, 1e-9)
            assert values.shape == (m, 4) and (values == 0.0).all(), (system, m)
            rep = obstruction_scan(system, E, sampler, m=m)
            assert rep.n_obstruction_zero == 4
            assert rep.min_nonexcluded_norm == 0.0


def test_lie_derivative_degree_drop_and_product_rule():
    field = oscillator_field()
    z = np.array([0.4, -1.1])
    f = oscillator_energy().jet(z, 3)
    lf = lie_derivative(f, field.jet_field(z, 2))
    assert lf.degree == 2
    assert lf.value == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=25, deadline=None)
@given(
    cf=st.lists(st.floats(-2, 2, allow_nan=False), min_size=10, max_size=10),
    cg=st.lists(st.floats(-2, 2, allow_nan=False), min_size=10, max_size=10),
)
def test_lie_derivative_leibniz(cf, cg):
    z = np.array([0.3, -0.5])
    x = oscillator_field().jet_field(z, 2)
    f = TruncatedJet(2, 3, z, np.array(cf))
    g = TruncatedJet(2, 3, z, np.array(cg))
    from saarilab.jet_algebra import jet_mul

    lhs = lie_derivative(jet_mul(f, g), x)
    rhs = jet_add(
        jet_mul(jet_truncate(f, 2), lie_derivative(g, x)),
        jet_mul(jet_truncate(g, 2), lie_derivative(f, x)),
    )
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)


def test_tower_degree_requirements():
    field = oscillator_field()
    z = np.zeros(2)
    obs = oscillator_energy()
    with pytest.raises(DegreeDeficitError):
        psi_tower(obs.jet(z, 2), field.jet_field(z, 2), 3)
    with pytest.raises(DegreeDeficitError):
        psi_tower(obs.jet(z, 4), field.jet_field(z, 1), 4)
    with pytest.raises(DegreeDeficitError):
        lie_derivative(obs.jet(z, 3), field.jet_field(z, 1))
    with pytest.raises(DegreeDeficitError, match="field jet degree 1"):
        dpsi_wrt_F(field.jet_field(z, 1), m=4)
    # A chain that overflows raises, as psi_tower does.
    huge = JetField(tuple(TruncatedJet.constant(1e200, 2, 2, z) for _ in range(2)))
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        dpsi_wrt_F(huge, m=3)


def test_lie_derivative_rejects_mismatched_base_points():
    f = oscillator_energy().jet(np.array([1.0, 0.0]), 2)
    x = oscillator_field().jet_field(np.array([0.0, 0.0]), 1)
    with pytest.raises(CombinabilityError):
        lie_derivative(f, x)


def test_saari_vector_validation():
    with pytest.raises(ValueError):
        SaariVector(values=np.zeros(3), order=2, base_point=np.zeros(2))


# -- Jacobian with respect to the observable ---------------------------------------


def test_dpsi_wrt_F_small_closed_form():
    # n=1, x' = x at z=1, m=2, basis F1=(x-1), F2=(x-1)^2/2 (partial coords):
    # towers (1, 1) and (0, 1).
    xf = linear1d_field().jet_field(np.array([1.0]), 1)
    res = dpsi_wrt_F(xf, m=2)
    np.testing.assert_allclose(res.matrix, [[1.0, 0.0], [1.0, 1.0]], atol=1e-14)
    assert res.rank_report.numerical_rank == 2
    assert res.rank_report.submersion


def test_dpsi_wrt_F_oscillator_submersion():
    z = np.array([1.0, 0.0])
    xf = oscillator_field().jet_field(z, 3)
    res = dpsi_wrt_F(xf, m=3)
    assert res.matrix.shape == (3, _space(2, 3).size - 1)
    assert res.rank_report.numerical_rank == 3
    assert res.rank_report.submersion
    assert res.x_norm == pytest.approx(1.0)


def test_dpsi_wrt_F_zero_field_rank_zero():
    zero = JetField(tuple(TruncatedJet.zero(2, 2, np.zeros(2)) for _ in range(2)))
    res = dpsi_wrt_F(zero, m=2)
    assert res.rank_report.numerical_rank == 0
    assert not res.rank_report.submersion


def test_dpsi_wrt_F_linearity():
    # The tower is linear in F, so psi == matrix @ (partial coordinates of F).
    rng = np.random.default_rng(7)
    field = random_polynomial_field(2, 3, rng)
    obs = random_polynomial_observable(2, 4, rng)
    z = rng.normal(size=2) * 0.5
    m = 3
    xf = field.jet_field(z, m - 1)
    res = dpsi_wrt_F(xf, m=m)
    fj = obs.jet(z, m)
    sp = _space(2, m)
    partial_coords = fj.coeffs[1:] * sp.factorials[1:]
    psi = psi_tower(fj, xf, m)
    np.testing.assert_allclose(res.matrix @ partial_coords, psi.values,
                               rtol=1e-10, atol=1e-12)


def _wrt_F_cases():
    """(field jet, m): criterion-2 draws, two-body and planar three-body
    Hamiltonian fields, whose components use few variables each, the zero
    field and m = 1."""
    for i in range(30):
        n = 1 + i % 3
        for attempt in itertools.count():
            rng = stream_rng(7101, 0, i, attempt)
            X = random_polynomial_field(n, 4, rng)
            z = rng.uniform(-1.0, 1.0, n)
            if np.linalg.norm(X(z)) > 0.1:
                break
        yield X.jet_field(z, n), n + 1
    for masses, ms in (((1.0, 1.3), (1, 2, 3, 4, 5)), ((1.0, 1.3, 0.7), (2, 4))):
        system = BodySystem(len(masses), 2, masses, NewtonianPotential())
        z = Sampler(box=(-1.0, 1.0), count=1, seed=4,
                    min_separation=0.3).draw(0, system.phase_dim, system)
        X = build_hamiltonian_field(system)
        for m in ms:
            xf = X.jet_field(z, m - 1)
            assert any(mask is not None for mask in xf.masks)
            yield xf, m
    yield JetField(tuple(TruncatedJet.zero(3, 2, np.zeros(3)) for _ in range(3))), 3
    yield oscillator_field().jet_field(np.array([0.6, 0.8]), 2), 1


def test_dpsi_wrt_F_equals_one_tower_per_column():
    # The m transposed sweeps give the matrix of one tower per monomial
    # basis jet, to roundoff, and the same rank.
    for xf, m in _wrt_F_cases():
        got, want = dpsi_wrt_F(xf, m=m), dpsi_wrt_F_per_column(xf, m)
        assert got.matrix.shape == want.matrix.shape
        scale = max(float(np.abs(want.matrix).max()), np.finfo(float).tiny)
        assert np.abs(got.matrix - want.matrix).max() <= 1e-14 * scale, (xf.dim, m)
        assert (got.rank_report.numerical_rank
                == want.rank_report.numerical_rank), (xf.dim, m)
        assert got.x_norm == want.x_norm


def test_transposed_lie_step_is_the_adjoint_of_the_step():
    # <w, L f> = <L_t(w), f> for random w and f, on masked components.
    rng = np.random.default_rng(11)
    system = BodySystem(2, 2, (1.0, 1.3), NewtonianPotential())
    z = Sampler(box=(-1.0, 1.0), count=1, seed=4,
                min_separation=0.3).draw(0, system.phase_dim, system)
    for degree in (1, 3, 5):
        comps = build_hamiltonian_field(system).jet_field(z, degree - 1).joined
        f = rng.normal(size=_space(8, degree).size)
        w = rng.normal(size=_space(8, degree - 1).size)
        lhs = w @ lie_tower._lie_step(8, degree, f, comps)
        rhs = lie_tower._lie_step_t(8, degree, w, comps) @ f
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _chain_inputs(F, X, points, m, jacobi):
    """``(dim, g, comps)`` of a tower chain at ``points`` (one array for
    one point, else sample-minor stacks), on the Jacobi chart or the
    Cartesian one, as :func:`lie_tower._obstructions` builds them."""
    zs = _stack(list(points))
    if jacobi:
        n, g, comps = mech._chart_jets(*mech._jacobi_tower(F, X), zs, m)
    else:
        n, g = len(zs), observable_coeffs(F, zs, m)
        comps = X.field_coeffs(zs, m - 1)
    spx = _space(n, m - 1)
    return n, g, [_compact(spx, c, mask) for mask, c in comps]


def test_fused_lie_steps_are_bitwise_the_per_term_steps():
    # The fused step and its transpose against one product per term
    # (oracles): 1-D arrays and stacks of 3 and 20 samples, tables below
    # and above _ORDER_SCAN_SIZE, steps that skip terms (the inertia's
    # momentum partials are zero), the energy's exactly-zero first step,
    # both charts, and the Cartesian three-body (12, 8) and (12, 7) steps,
    # whose 50 388 and 18 564 output rows split their terms into several
    # chunks, of one term and of several.  Any other order of adding the
    # terms moves bits here.
    cases = []  # (inputs, degree, steps, whether the first step is +0)
    for masses, m, widths in (((1.0, 1.3), 5, (1, 3, 20)),
                              ((1.0, 1.3, 0.7), 7, (1, 3))):
        system = BodySystem(len(masses), 2, masses, NewtonianPotential())
        X = build_hamiltonian_field(system)
        sampler = Sampler(box=(-1.5, 1.5), count=20, seed=5, min_separation=0.3)
        for F in (energy_observable(system), inertia_observable(system)):
            for jacobi in (True, False) if len(masses) == 2 else (True,):
                for s in widths:
                    points = [sampler.draw(i, system.phase_dim, system)
                              for i in range(s)]
                    cases.append((_chain_inputs(F, X, points, m, jacobi), m, m,
                                  F.__class__.__name__ == "EnergyObservable"))
    system = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    z = Sampler(box=(-1.5, 1.5), count=1, seed=5, min_separation=0.3).draw(
        0, 12, system)
    X = build_hamiltonian_field(system)
    cases.append((_chain_inputs(inertia_observable(system), X, [z], 8, False),
                  8, 3, False))
    rng = stream_rng(47, 0)
    for n in (1, 2, 3):
        xf = random_polynomial_field(n, 4, rng).jet_field(np.zeros(n), 4)
        f = random_polynomial_observable(n, 5, rng).jet(np.zeros(n), 5).coeffs
        cases.append(((n, f, list(xf.compact)), 5, 5, False))
    for (n, g, comps), degree, steps, zero in cases:
        field = _join(comps)
        for d in range(degree, degree - steps, -1):
            fused = lie_tower._lie_step(n, d, g, field)
            assert fused.tobytes() == lie_step_per_term(n, d, g, comps).tobytes()
            assert not (zero and d == degree and fused.any())
            g = fused
    for degree, terms in ((7, 1), (6, 2)):
        plans = _space(12, degree).plans.values()
        assert any(len(plan) >= 2 and max(c[0] for c in plan) >= terms
                   for plan in plans)
    for xf in (X.jet_field(z, 6), X.jet_field(z, 3),
               build_hamiltonian_field(_two_body()).jet_field(z[:8], 4),
               random_polynomial_field(3, 4, rng).jet_field(np.zeros(3), 4)):
        n, degree = xf.dim, xf.degree + 1
        w = rng.normal(size=_space(n, degree - 1).size)
        assert (lie_tower._lie_step_t(n, degree, w, xf.joined).tobytes()
                == lie_step_t_per_term(n, degree, w, xf.compact).tobytes())


def test_singular_values_are_the_svd_s_own_descending_order():
    # The rank report keeps np.linalg.svd's values as they come: bitwise the
    # descending sort of them, on the first draws of acceptance criterion 2
    # and on the README's rank config (oscillator energy at (0.6, 0.8)).
    results = []
    for i in range(60):
        n = 1 + i % 3
        m = n + 1
        for attempt in itertools.count():
            rng = stream_rng(7101, 0, i, attempt)
            X = random_polynomial_field(n, 4, rng)
            z = rng.uniform(-1.0, 1.0, n)
            if np.linalg.norm(X(z)) > 0.1:
                break
        results.append(dpsi_wrt_F(X.jet_field(z, m - 1), m=m))
        for attempt in itertools.count():
            rng = stream_rng(7101, 1, i, attempt)
            X = random_polynomial_field(n, 4, rng)
            F = random_polynomial_observable(n, 4, rng)
            z = rng.uniform(-1.0, 1.0, n)
            if np.linalg.norm(F.grad(z)) > 0.1:
                break
        results.append(dpsi_wrt_X(F.jet(z, m), X.jet_field(z, m - 1), m=m))
    z = np.array([0.6, 0.8])
    xf = oscillator_field().jet_field(z, 2)
    results += [dpsi_wrt_F(xf, m=3),
                dpsi_wrt_X(oscillator_energy().jet(z, 3), xf, m=3)]
    for res in results:
        sv = np.linalg.svd(res.matrix, compute_uv=False)
        assert (res.rank_report.singular_values.tobytes()
                == np.sort(sv)[::-1].tobytes())


@pytest.mark.parametrize("m", [0, -1])
def test_jacobians_reject_tower_order_below_one(m):
    z = np.array([1.0, 0.0])
    fj = oscillator_energy().jet(z, 2)
    xf = oscillator_field().jet_field(z, 2)
    with pytest.raises(ConfigError, match="tower order"):
        dpsi_wrt_F(xf, m=m)
    with pytest.raises(ConfigError, match="tower order"):
        dpsi_wrt_X(fj, xf, m=m)


@pytest.mark.parametrize("m", [2.5, True, 3.0, "3", None, 0])
def test_a_tower_order_must_be_an_integer(m):
    # Read like the CLI's tower_order: a float, even an integral one, or a
    # bool is a ConfigError before any jet is built.
    z = np.array([1.0, 0.0])
    F, X = oscillator_energy(), oscillator_field()
    with pytest.raises(ConfigError, match="tower order"):
        obstruction_at(F, X, z, m)
    with pytest.raises(ConfigError, match="tower order"):
        psi_tower(F.jet(z, 3), X.jet_field(z, 2), m)
    if m is not None:  # a scan's default order
        with pytest.raises(ConfigError, match="tower order"):
            obstruction_scan(X, F, Sampler((-1.0, 1.0), 3, 0), m=m)


# -- Jacobian with respect to the field --------------------------------------------


def test_dpsi_wrt_X_structural_entry():
    # F = 2x, X == 3: row 2, pure-power column carries F'(z) X(z) = 6.
    z = np.array([0.0])
    fj = PolynomialObservable.from_coeffs(1, 1, {(1,): 2.0}).jet(z, 2)
    xf = PolynomialField(
        (PolynomialObservable.from_coeffs(1, 0, {(0,): 3.0}),)
    ).jet_field(z, 1)
    exact = dpsi_wrt_X(fj, xf, m=2)
    assert exact.matrix[1, 1] == pytest.approx(6.0, abs=1e-12)
    assert exact.structural_deviation <= 1e-12
    fd = dpsi_wrt_X_fd(fj, xf, m=2)
    assert fd.matrix[1, 1] == pytest.approx(6.0, rel=1e-5)


def test_dpsi_wrt_X_fd_matches_exact():
    rng = np.random.default_rng(11)
    field = random_polynomial_field(2, 3, rng)
    obs = random_polynomial_observable(2, 4, rng)
    z = np.array([0.3, -0.4])
    m = 3
    fj = obs.jet(z, m)
    xf = field.jet_field(z, m - 1)
    exact = dpsi_wrt_X(fj, xf, m=m)
    fd = dpsi_wrt_X_fd(fj, xf, m=m)
    scale = np.max(np.abs(exact.matrix))
    np.testing.assert_allclose(fd.matrix, exact.matrix,
                               atol=1e-6 * max(1.0, scale))
    assert fd.rank_report.numerical_rank == exact.rank_report.numerical_rank


def test_dpsi_wrt_X_tangent_matches_directional_difference():
    # The exact mode is the derivative of m -> psi_tower along a coefficient bump.
    z = np.array([0.2, 0.1])
    m = 3
    fj = oscillator_energy().jet(z, m)
    xf = oscillator_field().jet_field(z, m - 1)
    res = dpsi_wrt_X(fj, xf, m=m)
    spx = _space(2, m - 1)
    t, i = 2, 1  # bump coefficient alpha=(0,1)... of component p'
    h = 1e-6
    tables = [c.coeffs.copy() for c in xf.components]
    fact = float(spx.factorials[t])
    for sgn in (+1, -1):
        tb = [tbl.copy() for tbl in tables]
        tb[i][t] += sgn * h / fact
        xp = JetField(tuple(TruncatedJet(2, m - 1, z, b) for b in tb))
        if sgn > 0:
            plus = psi_tower(fj, xp, m).values
        else:
            minus = psi_tower(fj, xp, m).values
    np.testing.assert_allclose(res.matrix[:, t * 2 + i], (plus - minus) / (2 * h),
                               atol=1e-7)


def test_dpsi_wrt_X_rejects_unknown_method():
    z = np.zeros(2)
    fj = oscillator_energy().jet(z, 2)
    xf = oscillator_field().jet_field(z, 1)
    with pytest.raises(ValueError):
        dpsi_wrt_X(fj, xf, m=2, method="adjoint")
    with pytest.raises(ValueError):
        dpsi_wrt_X(fj, xf, m=2, method="fd")


@pytest.mark.parametrize("m", [1, 2])
def test_dpsi_wrt_X_checks_its_inputs_as_psi_tower_does(m):
    # a field and an observable of different dimensions do not combine,
    # also at m = 1, where the chain takes no Lie step
    for n_f, n_x in ((3, 2), (2, 3)):
        rng = stream_rng(5, n_f, n_x)
        fj = random_polynomial_observable(n_f, 3, rng).jet(np.zeros(n_f), m)
        xf = random_polynomial_field(n_x, 3, rng).jet_field(np.zeros(n_x), m - 1)
        for call in (psi_tower, dpsi_wrt_X):
            with pytest.raises(CombinabilityError):
                call(fj, xf, m)
    field, obs, z = oscillator_field(), oscillator_energy(), np.zeros(2)
    short_f = (obs.jet(z, m + 1), field.jet_field(z, m), m + 2)
    short_x = (obs.jet(z, m + 2), field.jet_field(z, m - 1), m + 2)
    for args, message in ((short_f, "observable jet degree"),
                          (short_x, "field jet degree")):
        for call in (psi_tower, dpsi_wrt_X):
            with pytest.raises(DegreeDeficitError, match=message):
                call(*args)
    huge = JetField(tuple(TruncatedJet.constant(1e200, 2, 3, z) for _ in range(2)))
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        dpsi_wrt_X(obs.jet(z, 3), huge, m=3)


def test_dpsi_wrt_X_multiplies_each_column_on_its_monomial_s_table():
    # The tangent e_t multiplies over the triples of the variables it uses,
    # so a three-body field Jacobian builds no full triple set, where the
    # tangent products built one per degree; the bits stay the per-column
    # recursion's.
    _space.cache_clear()
    system = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    z = Sampler(box=(-1.0, 1.0), count=1, seed=5,
                min_separation=0.3).draw(0, 12, system)
    fj = energy_observable(system).jet(z, 3)
    xf = build_hamiltonian_field(system).jet_field(z, 2)
    got = dpsi_wrt_X(fj, xf, m=3).matrix
    assert not [d for d in range(3) if "triples" in vars(_space(12, d))]
    assert got.tobytes() == dpsi_wrt_X_per_column(fj, xf, 3).tobytes()


def _assert_equals_per_column(fj, xf, m):
    got = dpsi_wrt_X(fj, xf, m=m).matrix
    assert got.tobytes() == dpsi_wrt_X_per_column(fj, xf, m).tobytes()


@pytest.mark.parametrize("n, m", [(1, 2), (1, 4), (2, 3), (2, 4), (3, 4)])
def test_dpsi_wrt_X_equals_the_per_column_recursion(n, m):
    # Sharing the Lie chain across columns keeps every operation of the
    # per-column recursion, so the bits must not move.
    for i in range(2):
        for attempt in itertools.count():
            rng = stream_rng(8801, n, m, i, attempt)
            X = random_polynomial_field(n, 4, rng)
            F = random_polynomial_observable(n, 4, rng)
            z = rng.uniform(-1.0, 1.0, n)
            if np.linalg.norm(F.grad(z)) > 0.1:
                break
        _assert_equals_per_column(F.jet(z, m), X.jet_field(z, m - 1), m)


def test_dpsi_wrt_X_equals_the_per_column_recursion_on_two_bodies():
    system = _two_body()
    field = build_hamiltonian_field(system)
    z = Sampler(box=(-1.0, 1.0), count=1, seed=5).draw(0, 8, system)
    xf = field.jet_field(z, 4)
    for F in (energy_observable(system), inertia_observable(system)):
        _assert_equals_per_column(F.jet(z, 5), xf, 5)


# -- obstruction evaluation ---------------------------------------------------------


def test_obstruction_with_analytic_handles():
    sample = obstruction_at(oscillator_energy(), oscillator_field(),
                            np.array([0.6, 0.8]), m=4)
    assert sample.norm_inf < 1e-13
    assert not sample.excluded


def test_obstruction_with_plain_callables():
    # Handles must bring exact jets: a plain callable is refused by the
    # methods it lacks, before the field is evaluated at the point.
    calls = []

    def field(z):
        calls.append(z)
        return np.array([z[1], -z[0]])

    z = np.array([1.0, 0.0])
    with pytest.raises(ConfigError, match="neither jet_coeffs nor jet"):
        obstruction_at(lambda z: z[0] ** 2, field, z, m=3)
    with pytest.raises(ConfigError, match="neither field_coeffs nor jet_field"):
        obstruction_at(oscillator_energy(), field, z, m=3)
    assert calls == []
    with pytest.raises(ConfigError, match="neither jet_coeffs nor jet"):
        observable_coeffs(lambda z: z[0] ** 2, z, 3)


def test_composite_handles_refuse_parts_of_differing_dims():
    # As JetField does, a composite handle checks its parts' dims when it
    # is built, not when a tower first reaches the mismatch.
    two, three = oscillator_energy(), coordinate_observable(3, 0)
    with pytest.raises(ValueError, match="each component's variable count"):
        PolynomialField((two, three))
    with pytest.raises(CombinabilityError, match=r"differing dims \[2, 3\]"):
        SumObservable(two, three)
    with pytest.raises(CombinabilityError, match=r"differing dims \[1, 2\]"):
        SumField(oscillator_field(), linear1d_field())
    assert SumField(oscillator_field(), oscillator_field()).dim == 2
    # A part without a dim leaves the others' dim to the sum.
    def no_dim(z):
        return np.array([z[1], -z[0]])

    assert SumField(no_dim, oscillator_field()).dim == 2
    assert not hasattr(SumField(no_dim), "dim")


def test_obstruction_flags_equilibrium():
    sample = obstruction_at(oscillator_energy(), oscillator_field(),
                            np.array([1e-12, 0.0]), m=2)
    assert sample.is_near_equilibrium
    assert sample.excluded


def test_obstruction_flags_F_critical():
    obs = PolynomialObservable.from_coeffs(2, 2, {(2, 0): 1.0})  # F = q^2
    sample = obstruction_at(obs, oscillator_field(),
                            np.array([1e-12, 1.0]), m=2)
    assert sample.is_near_F_critical
    assert not sample.is_near_equilibrium
    assert sample.excluded


@pytest.mark.parametrize("kwargs", [
    {"tol_eq": -1.0}, {"tol_eq": 0.0}, {"tol_eq": True},
    {"tol_eq": float("inf")}, {"tol_crit": float("nan")},
    {"tol_crit": 0.0}, {"tol_crit": "1e-9"},
], ids=repr)
def test_obstruction_tolerances_are_config_errors(kwargs):
    # as obstruction_scan checks them: finite numbers > 0, before X(z)
    calls = []

    def field(z):
        calls.append(z)
        return oscillator_field()(z)

    field.jet_field = oscillator_field().jet_field
    with pytest.raises(ConfigError, match="tol_"):
        obstruction_at(oscillator_energy(), field, np.array([0.6, 0.8]),
                       m=2, **kwargs)
    assert calls == []


def test_obstruction_cross_check_catches_lying_gradient():
    class Lying:
        dim = 2

        def __call__(self, z):
            return float(z[0])

        def jet(self, z, degree):
            return coordinate_observable(2, 0).jet(z, degree)

        def grad(self, z):
            return np.array([5.0, 5.0])

    with pytest.raises(InternalConsistencyError):
        obstruction_at(Lying(), oscillator_field(), np.array([1.0, 0.0]), m=2)


class _LyingAt:
    """``F = q`` with analytic jets for a group at once, whose gradient is
    off by ``delta`` at the single point ``at``."""

    dim = 2

    def __init__(self, at, delta=5.0):
        self.at, self.delta = at, delta
        self.poly = coordinate_observable(2, 0)

    def __call__(self, z):
        return float(z[0])

    def jet_coeffs(self, points, degree):
        return observable_coeffs(self.poly, points, degree)

    def grad(self, z):
        return self.poly.grad(z) + (self.delta if np.array_equal(z, self.at) else 0.0)


@pytest.mark.parametrize("k", [0, 13, 19])
def test_a_lying_gradient_is_caught_inside_a_group(k):
    # A scan of 20 oscillator samples at m = 2 is one group, cross-checked on
    # the group's arrays: a gradient off at one sample still raises, and
    # names that sample's first entry, p.
    sampler = Sampler(box=(-1.0, 1.0), count=20, seed=3)
    points = sampler.draw_group(range(20), 2)
    X = oscillator_field()
    obstruction_scan(X, _LyingAt(points[k], 0.0), sampler, m=2)
    with pytest.raises(InternalConsistencyError,
                       match=f"first tower entry {float(points[k][1])!r} disagrees"):
        obstruction_scan(X, _LyingAt(points[k]), sampler, m=2)
    with pytest.raises(InternalConsistencyError):
        lie_tower._obstructions(_LyingAt(points[k], 1e-9), X, points, 2,
                                1e-9, 1e-9)


def test_obstruction_sample_serializes():
    sample = obstruction_at(oscillator_energy(), oscillator_field(),
                            np.array([0.5, 0.5]), m=2)
    d = sample.to_json_dict()
    assert set(d) == {"z", "psi", "norm_inf", "is_near_equilibrium",
                      "is_near_F_critical", "tol_eq", "tol_crit"}
    assert d["norm_inf"] == pytest.approx(sample.norm_inf)


def test_default_tower_order():
    assert default_tower_order(2) == 3
    assert default_tower_order(8) == 9
    assert RANK_THRESHOLD == 1e-8


def _two_body(masses=(1.0, 1.3)):
    return BodySystem(2, 2, masses, NewtonianPotential())


def test_tower_builds_triples_only_for_the_tables_it_multiplies():
    # At m = 9 the two-body inertia and energy run on the Jacobi chart
    # (rho, pi), four variables.  The observable's jet lives on the (4, 9)
    # table, but only the degree-8 field jets are multiplied: the big table
    # never needs triples.  Each field component uses one momentum or the
    # configuration only, so the (4, 8) table holds one triple set per
    # component mask, 5 577 triples, and never the full ones; at 495
    # coefficients it is below the order scan, so every partial multiplies
    # over every row and no component is skipped.  On the Cartesian chart
    # the (8, 8) table held four sets of 5 148 triples for the inertia and
    # eight for both.
    _space.cache_clear()
    system = _two_body()
    field = build_hamiltonian_field(system)
    z = Sampler(box=(-1.0, 1.0), count=1, seed=5).draw(0, 8, system)
    obstruction_at(inertia_observable(system), field, z, m=9)
    sp = _space(4, 8)
    sets = [(0b11, None), (1 << 2, None), (1 << 3, None)]
    assert sorted(sp._within) == sets
    assert sum(len(t[0]) for t in sp._within.values()) == 5_577
    obstruction_at(energy_observable(system), field, z, m=9)
    assert not [name for name in vars(_space(4, 9)) if name.startswith("tri")]
    assert "triples" not in vars(sp)
    assert sorted(sp._within) == sets


_THREE_BODY_M9 = """
import json, time
import saarilab
from saarilab.genericity import Sampler
from saarilab.jet_algebra import _space

system = saarilab.BodySystem(3, 2, (1.0, 1.3, 0.7), saarilab.NewtonianPotential())
z = Sampler(box=(-1, 1), count=10, seed=4, min_separation=0.3).draw(0, 12, system)
X = saarilab.build_hamiltonian_field(system)
start = time.perf_counter()
psi = {"inertia": saarilab.obstruction_at(
    saarilab.inertia_observable(system), X, z, m=9).psi.values}
cold_s = time.perf_counter() - start
psi["energy"] = saarilab.obstruction_at(
    saarilab.energy_observable(system), X, z, m=9).psi.values
sp = _space(8, 8)
print(json.dumps({
    "psi": {name: [float(v).hex() for v in p] for name, p in psi.items()},
    "peak_mb": peak_mb(),
    "cold_s": cold_s,
    "full": "triples" in vars(sp),
    "restricted": sum(len(t[0]) for t in sp._within.values()),
}))
"""

#: The towers on the Jacobi chart, bit for bit.  The energy is conserved,
#: and its tower is exactly zero (see ``lie_tower._lie_step``).
_THREE_BODY_M9_PSI = {
    "inertia": [
        "0x1.2b0dc9c22eaadp-1", "-0x1.f70c8106de55cp-1", "-0x1.cd240d6c19d64p+0",
        "0x1.6e238aa0d0246p+4", "0x1.321892275f258p+1", "0x1.2049b1bc29930p+7",
        "0x1.5997b631183a8p+11", "0x1.496c0955f7c56p+13", "-0x1.97148853b4338p+17",
    ],
    "energy": ["0x0.0p+0"] * 9,
}

#: The inertia tower on the Cartesian chart (twelve variables), the route
#: before the Jacobi chart, with each Lie step's terms in conjugate pairs.
#: Added in component order instead, its last bits moved by up to 6.7e-15
#: relative, and the energy tower was roundoff, up to 6.4e-8 here.
_THREE_BODY_M9_PSI_CARTESIAN = [
    "0x1.2b0dc9c22eaaap-1", "-0x1.f70c8106de556p-1", "-0x1.cd240d6c19d5cp+0",
    "0x1.6e238aa0d0243p+4", "0x1.321892275f34ap+1", "0x1.2049b1bc2991dp+7",
    "0x1.5997b6311839fp+11", "0x1.496c0955f7c07p+13", "-0x1.97148853b4230p+17",
]


def test_three_body_m9_inertia_tower_multiplies_only_restricted_triples():
    # A work guard by counts: on the Jacobi chart the (8, 8) products take
    # one restricted set per (field mask, partial's table), 10 296 triples
    # in all, where the Cartesian (12, 8) sets took 80 190, its full table
    # holds 10 518 300 and one set per field mask alone held 2 783 215.  A
    # fresh process, so that the peak and the cold inertia tower are these
    # towers' own: 94 MB and 0.06 s on 2 vCPUs, where the Cartesian chart
    # took 270 MB and 1.1 s.
    got = run_fresh(_THREE_BODY_M9)
    assert got["psi"] == _THREE_BODY_M9_PSI
    # The chart moved the inertia tower's last bits: it stays within 1e-12
    # relative of the Cartesian one (measured 4.5e-14).
    new = np.array([float.fromhex(v) for v in _THREE_BODY_M9_PSI["inertia"]])
    old = np.array([float.fromhex(v) for v in _THREE_BODY_M9_PSI_CARTESIAN])
    np.testing.assert_allclose(new, old, rtol=1e-12, atol=0.0)
    assert not got["full"]
    assert got["restricted"] == 10_296
    assert got["peak_mb"] <= 150
    assert got["cold_s"] < 0.2


def test_three_body_m9_cartesian_tower_keeps_its_bits():
    # The Cartesian route, the oracle of the chart, keeps its bits.
    system = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    z = Sampler(box=(-1, 1), count=10, seed=4, min_separation=0.3).draw(0, 12, system)
    got = obstruction_per_sample(inertia_observable(system),
                                 build_hamiltonian_field(system), z, 9,
                                 cartesian=True)
    assert [v.hex() for v in got.psi.values] == _THREE_BODY_M9_PSI_CARTESIAN


_CACHE_BOUND = """
import hashlib, json, sys
from concurrent.futures import ThreadPoolExecutor
import saarilab
from saarilab.genericity import Sampler
from saarilab.jet_algebra import _space

system = saarilab.BodySystem(3, 2, (1.0, 1.3, 0.7), saarilab.NewtonianPotential())
X = saarilab.build_hamiltonian_field(system)
sampler = Sampler(box=(-1, 1), count=3, seed=4, min_separation=0.3)
points = [sampler.draw(i, 12, system) for i in range(3)]
m7 = ((7, saarilab.energy_observable(system)),
      (7, saarilab.inertia_observable(system)))

def run(towers):
    for m, F in towers:
        for z in points:
            saarilab.obstruction_at(F, X, z, m)

def state(degrees, dim=8):
    spaces = [_space(dim, d) for d in range(degrees)]
    digest = hashlib.sha256()
    for sp in spaces:
        for key in sorted(sp._within, key=repr):
            for a in sp._within[key]:
                digest.update(a.tobytes())
    return {"keys": [len(sp._within) for sp in spaces],
            "triples": sum(len(t[0]) for sp in spaces
                           for t in sp._within.values()),
            "full": [sp.degree for sp in spaces if "triples" in vars(sp)],
            "digest": digest.hexdigest()}

run(m7)
serial = state(8)
run(((9, saarilab.inertia_observable(system)),))
got = state(10)
_space.cache_clear()
sys.setswitchinterval(1e-6)
with ThreadPoolExecutor(max_workers=2) as pool:
    list(pool.map(run, (m7, m7)))
got["threads_equal"] = state(8) == serial
# dpsi_wrt_F's transposed sweeps on the Cartesian (8, d) tables of a
# two-body field, with the chart's sets cleared first
_space.cache_clear()
two = saarilab.BodySystem(2, 2, (1.0, 1.3), saarilab.NewtonianPotential())
z = Sampler(box=(-1, 1), count=1, seed=4, min_separation=0.3).draw(0, 8, two)
saarilab.dpsi_wrt_F(saarilab.build_hamiltonian_field(two).jet_field(z, 4), m=5)
got["monomials"] = state(5)
print(json.dumps(got))
"""


def test_triple_sets_stay_keyed_by_component_tables():
    # Warm planar three-body m = 7 energy and inertia towers, then an m = 9
    # inertia tower, in a fresh process.  Each table caches one triple set
    # per (component mask, partial's table), so the counts are pinned
    # exactly: 59 sets and 32 194 triples on the Jacobi chart's (8, d)
    # tables, where the Cartesian (12, d) tables took 75 sets and 796 552
    # triples, and one set per component mask 63 and 2 576 420.  No (8, d)
    # table holds full triples: the chart's inertia is built in closed
    # form, not by a Taylor shift.  A two-body dpsi_wrt_F at m = 5 runs
    # its five transposed sweeps on the (8, 4) table alone, over one set
    # per component mask: the four momenta and the configuration.  Keyed
    # by each partial's exact variables, one tower per basis monomial once
    # cached 815 sets there, as per-monomial sets once grew to 1 200 sets
    # and 4.3 M triples in dpsi_wrt_X.  Threads that miss together from an
    # empty cache build the same sets, bit for bit.
    got = run_fresh(_CACHE_BOUND)
    assert got["keys"] == [5, 5, 5, 5, 13, 9, 8, 5, 4, 0]
    assert got["triples"] == 32_194
    assert got["full"] == []
    assert got["threads_equal"]
    assert got["monomials"]["keys"] == [0, 0, 0, 0, 5]
    assert got["monomials"]["triples"] == 4_680
    assert got["monomials"]["full"] == []


def _full_chain_cases():
    """(observable jet, field jet, m).  All but the oscillator's observables
    lie on tables of at least ``_ORDER_SCAN_SIZE`` coefficients, so
    ``lie_derivative`` multiplies only the orders each partial holds."""
    bump = perturb(PerturbationSpec("potential", 3, 0.05, 7),
                   BodySystem(2, 2, (1.0, 1.3), NewtonianPotential()))
    bump3 = perturb(PerturbationSpec("potential", 2, 0.05, 8),
                    BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential()))
    systems = ((BodySystem(2, 2, (1.0, 1.3), NewtonianPotential()), 7),
               (bump, 6),
               (BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential()), 7),
               (bump3, 5))
    for system, m in systems:
        z = Sampler(box=(-1.0, 1.0), count=1, seed=6,
                    min_separation=0.3).draw(0, system.phase_dim, system)
        xf = build_hamiltonian_field(system).jet_field(z, m - 1)
        inertia = inertia_observable(system)
        bumped = perturb(PerturbationSpec("observable", 3, 0.05, 9), inertia)
        for F in (inertia, energy_observable(system), bumped):
            yield F.jet(z, m), xf, m
    # On the last system: a monomial like the basis jets of dpsi_wrt_F,
    # which uses three variables up to order 4, and the zero jet.
    n = system.phase_dim
    alpha = (1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1)
    yield TruncatedJet.monomial(n, m, z, alpha), xf, m
    yield TruncatedJet.zero(n, m, z), xf, m
    z = np.array([0.6, 0.8])
    yield oscillator_energy().jet(z, 6), oscillator_field().jet_field(z, 5), 6


def test_tower_chain_equals_the_full_product_route():
    # lie_derivative multiplies each field component over the triples of the
    # variables it uses, and only the orders of the partial that can be
    # nonzero; every jet of the chain must keep its bits
    for fj, xf, m in _full_chain_cases():
        assert any(mask is not None for mask in xf.masks)
        g = h = fj
        values = []
        for _ in range(m):
            g, h = lie_derivative(g, xf), lie_derivative_full(h, xf)
            assert g.coeffs.tobytes() == h.coeffs.tobytes(), (fj, m, g.degree)
            values.append(h.value)
        assert psi_tower(fj, xf, m).values.tobytes() == np.array(values).tobytes()


class _Switch:
    """The handle ``a`` where z_0 < 0 and ``b`` elsewhere, so that the
    samples of one group differ in the variables and orders their jets use."""

    def __init__(self, a, b):
        self.a, self.b, self.dim = a, b, a.dim

    def _at(self, z):
        return self.a if z[0] < 0 else self.b

    def __call__(self, z):
        return self._at(z)(z)

    def jet(self, z, degree):
        return self._at(z).jet(z, degree)

    def jet_field(self, z, degree):
        return self._at(z).jet_field(z, degree)


def _group_cases():
    """(F, X, points, m): groups of samples for one stacked tower chain."""
    two = BodySystem(2, 2, (1.0, 1.3), NewtonianPotential())
    bumped = perturb(PerturbationSpec("potential", 3, 0.05, 7), two)
    three = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    for system, m, count in ((two, 5, 6), (bumped, 5, 6), (three, 5, 3)):
        sampler = Sampler(box=(-1.5, 1.5), count=count, seed=12,
                          min_separation=0.3)
        points = [sampler.draw(i, system.phase_dim, system) for i in range(count)]
        inertia = inertia_observable(system)
        for F in (inertia, energy_observable(system),
                  perturb(PerturbationSpec("observable", 3, 0.05, 9), inertia)):
            yield F, build_hamiltonian_field(system), points, m
    points = [np.array([0.6, 0.8]), np.array([-0.3, 0.2]), np.array([1.1, -0.4])]
    yield oscillator_energy(), oscillator_field(), points, 4
    # On 8 variables at m = 5 the observable's (8, 5) table takes the order
    # scan, and the two sides differ in masks and in top orders.
    def obs(degree, terms):
        """A polynomial from {((variable, power), ...): coefficient}."""
        entries = {}
        for powers, c in terms.items():
            alpha = [0] * 8
            for v, e in powers:
                alpha[v] = e
            entries[tuple(alpha)] = c
        return PolynomialObservable.from_coeffs(8, degree, entries)

    X = _Switch(
        PolynomialField(tuple(obs(1, {((i + 1, 1),): 1.0} if i < 4 else {})
                              for i in range(8))),
        PolynomialField(tuple(obs(2, {(): 1.0} if i < 4
                                  else {(): 0.3, ((i, 2),): 0.5})
                              for i in range(8))))
    F = _Switch(obs(2, {((0, 2),): 1.0, ((1, 1),): 1.0}),
                obs(5, {((7, 5),): 1.0, ((0, 1), (2, 1)): 2.0, ((1, 1),): -0.5}))
    points = np.random.default_rng(8).uniform(-1.0, 1.0, (5, 8))
    points[:, 0] = (-0.5, 0.4, -0.1, 0.8, 0.2)
    yield F, X, list(points), 5


def test_a_group_s_towers_equal_each_sample_s_tower():
    # One chain runs the group on sample-minor stacks, over the union of its
    # masks and the highest of its top orders; every sample keeps the bits
    # of its own tower, flags and all.
    for F, X, points, m in _group_cases():
        values, near_eq, near_crit, singular = lie_tower._obstructions(
            F, X, points, m, 1e-9, 1e-9)
        assert values.shape == (m, len(points)) and not singular
        for k, z in enumerate(points):
            want = obstruction_per_sample(F, X, z, m)
            assert values[:, k].tobytes() == want.psi.values.tobytes(), (F, z)
            assert near_eq[k] == want.is_near_equilibrium
            assert near_crit[k] == want.is_near_F_critical
            assert obstruction_at(F, X, z, m).to_json_dict() == want.to_json_dict()


def test_an_overflowing_intermediate_still_raises():
    # The kernels keep their intermediates as arrays and validate only the
    # result; an overflow inside them still makes the result non-finite.
    def jet(big, masked=False):
        entries = {(0, 0): 1.0, (1, 0): big, (2, 0): big}
        if not masked:
            entries[(0, 1)] = big
        return TruncatedJet.from_coeffs(2, 3, np.zeros(2), entries)

    finite = "jet coefficients must be finite"
    # masked: both variables, or the first only (restricted products)
    for masked in (False, True):
        f, g = jet(1e200, masked), jet(1e120, masked)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=finite):
                lie_derivative(f, JetField((f, f)))  # 1e200 * 1e200
            with pytest.raises(ValueError, match=finite):
                jet_pow(f, 3)  # in the square of the series variable
            # the first Lie derivative is about 1e240; the second overflows
            assert np.isfinite(lie_derivative(g, JetField((g, g))).coeffs).all()
            with pytest.raises(ValueError, match=finite):
                psi_tower(g, JetField((g, g)), 3)
            # grouped: only the sample at z_0 > 0 overflows, and its group
            # raises as its own tower does; the others stay finite
            h = _Overflowing(1e120, masked)
            points = [np.array([-0.5, 0.1]), np.array([0.5, 0.1]),
                      np.array([-0.2, 0.3])]
            with pytest.raises(ValueError, match=finite):
                obstruction_at(h, h, points[1], 3)
            with pytest.raises(ValueError, match=finite):
                lie_tower._obstructions(h, h, points, 3, 1e-9, 1e-9)
            sampler = Sampler(box=(-1.0, 1.0), count=6, seed=2)
            assert any(sampler.draw(i, 2)[0] > 0 for i in range(6))
            with pytest.raises(ValueError, match=finite):
                obstruction_scan(h, h, sampler, m=3)
            values, *_ = lie_tower._obstructions(h, h, points[::2], 3, 1e-9, 1e-9)
            assert np.isfinite(values).all()


class _Overflowing:
    """Observable and field at once: the jet of ``F = x + x^2 (+ y)`` with
    ``big`` in place of each coefficient 1 where z_0 > 0, and ``(F, F)`` as
    the field."""

    dim = 2

    def __init__(self, big, masked):
        self.big, self.masked = big, masked

    def __call__(self, z):
        return np.ones(2)

    def jet(self, z, degree):
        c = self.big if z[0] > 0 else 1.0
        entries = {(0, 0): 1.0, (1, 0): c, (2, 0): c}
        if not self.masked:
            entries[(0, 1)] = c
        return TruncatedJet.from_coeffs(2, degree, z, entries)

    def jet_field(self, z, degree):
        f = self.jet(z, degree)
        return JetField((f, f))


@pytest.mark.parametrize("masses, observable, m, built_per_sample", [
    ((1.0, 1.0), inertia_observable, 5, 0),
    ((1.0, 1.3, 0.7), energy_observable, 7, 0),
    ((1.0, 1.0), energy_observable, 5, 0)])
def test_a_warm_tower_builds_one_jet_per_result(monkeypatch, masses,
                                                observable, m,
                                                built_per_sample):
    # Counts validated jets, not time.  Products, powers, Lie derivatives
    # and a sample's observable and field jets keep their intermediates as
    # arrays, the sample's column of its group's stacks, and the <grad F, X>
    # cross-check takes the inertia's gradients from one degree-1 shift of
    # the group's stack (the energy's is closed-form), so a sample
    # validates no jet.  Building a jet per operation made 192 and 526 per
    # sample here, one jet per field component and observable 32 and 70, a
    # 20-sample two-body inertia scan 300, and a validated gradient jet per
    # sample 20.
    system = BodySystem(len(masses), 2, masses, NewtonianPotential())
    field, F = build_hamiltonian_field(system), observable(system)
    sampler = Sampler(box=(-1.5, 1.5), count=20, seed=1, min_separation=0.3)
    obstruction_at(F, field, sampler.draw(0, system.phase_dim, system), m)
    z = sampler.draw(1, system.phase_dim, system)
    built, pair_stacks = [], []
    validate, pair_series = TruncatedJet.__post_init__, mech._pair_series

    def counted(jet):
        built.append(jet.degree)
        validate(jet)

    def counted_pairs(system, d, degree):
        out = pair_series(system, d, degree)
        pair_stacks.append(out.shape[1:])
        return out

    monkeypatch.setattr(TruncatedJet, "__post_init__", counted)
    monkeypatch.setattr(mech, "_pair_series", counted_pairs)
    sample = obstruction_at(F, field, z, m)
    assert len(built) == built_per_sample
    assert np.isfinite(sample.psi.values).all()
    # A grouped scan: the field and an energy observable share one
    # potential stack per group, so one pair stack, every pair for every
    # sample of the group, is built per group (groups of 20 at two-body
    # m = 5, of five at three-body m = 7 on the Jacobi chart, where the
    # Cartesian chart ran groups of one).
    built.clear()
    pair_stacks.clear()
    rep = obstruction_scan(system, F, sampler, m=m)
    monkeypatch.undo()
    assert rep.n_obstruction_nonzero + rep.n_obstruction_zero == sampler.count
    assert len(built) == built_per_sample * sampler.count <= 3 * sampler.count
    pairs = len(system.pairs())
    assert pair_stacks == ([(pairs, 20)] if system.n_bodies == 2
                           else [(pairs, 5)] * 4)


def _record_products(monkeypatch, record):
    """Make every ``_mul`` call first call ``record(sp, a, b)``."""
    mul = jet_algebra._mul

    def recorded(sp, a, b):
        record(sp, a, b)
        return mul(sp, a, b)

    monkeypatch.setattr(jet_algebra, "_mul", recorded)


def _record_chunks(monkeypatch, record):
    """Make every fused chunk of a Lie step first call ``record(low, chunk,
    f)``."""
    product = lie_tower._chunk_product

    def recorded(low, chunk, f, comps):
        record(low, chunk, f)
        return product(low, chunk, f, comps)

    monkeypatch.setattr(lie_tower, "_chunk_product", recorded)


@pytest.mark.parametrize("observable, gathered", [
    (inertia_observable, 13_030), (energy_observable, 10_122)])
def test_a_warm_three_body_tower_gathers_only_the_orders_it_holds(
        monkeypatch, observable, gathered):
    # Counts the triples gathered, once per column of a stacked product,
    # not time: those of the Lie steps' fused chunks and of _mul.  The
    # towers run on the Jacobi chart's (8, d) tables.  The inertia is
    # quadratic in rho and constant in pi, and the energy quadratic in pi,
    # so the first Lie steps multiply partials of order 0 or 1, and each
    # partial multiplies over the rows of the smallest component table that
    # holds its variables: the chains gather 6 100 and 3 192.  The energy's
    # first Lie step is exactly zero, so its chain stops there.  The
    # potential's series gather 6 930 in _mul: seven products on the (2, 7)
    # pair table, 330 triples each for the three pairs' columns at once, as
    # on the Cartesian chart.  There the chains on the (12, d) tables
    # gathered 28 344 and 18 612 (35 274 and 25 542 in all); with every
    # component multiplied at full order 1 430 295, with every row of the
    # table 60 600 and 331 428, and with each pair's series on the (6, 7)
    # configuration table 153 975 and 424 803 in all.
    system = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    field, F = build_hamiltonian_field(system), observable(system)
    sampler = Sampler(box=(-1.5, 1.5), count=2, seed=1, min_separation=0.3)
    obstruction_at(F, field, sampler.draw(0, 12, system), 7)
    z = sampler.draw(1, 12, system)
    chains, series = [], []

    def count(sp, a, b):
        series.append(len(sp.triples[0]) * a[0].size)

    _record_products(monkeypatch, count)
    _record_chunks(monkeypatch, lambda low, chunk, f: chains.append(
        len(chunk[3]) * f[0].size))
    obstruction_at(F, field, z, 7)
    monkeypatch.undo()
    assert sum(chains) + sum(series) == gathered
    assert sum(series) == 6_930


def test_a_warm_three_body_energy_tower_scans_no_field_component(monkeypatch):
    # The Hamiltonian field gives each component on the table of the
    # variables it uses, so a warm sample scans no component for its mask:
    # the one _variable_mask call left is the potential's power series.  On
    # the Jacobi chart a momentum's component holds 7 coefficients at
    # degree 6 and a force 210 (the (4, 6) configuration table); on the
    # Cartesian chart there were 6 of each and a force held 924, and
    # before that each was a whole (12, 6) table of 18 564 and a sample
    # made 13 scans.
    system = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    field, F = build_hamiltonian_field(system), energy_observable(system)
    sampler = Sampler(box=(-1.5, 1.5), count=2, seed=1, min_separation=0.3)
    obstruction_at(F, field, sampler.draw(0, 12, system), 7)
    scans, sizes = [], []
    variable_mask, tower = jet_algebra._variable_mask, lie_tower._tower

    def scanned(sp, c):
        scans.append(c.shape)
        return variable_mask(sp, c)

    def recorded(dim, m, g, comps):
        sizes.extend(c.size for _, c in comps)
        return tower(dim, m, g, comps)

    for module in (jet_algebra, lie_tower):  # wherever a scan is called from
        monkeypatch.setattr(module, "_variable_mask", scanned, raising=False)
    monkeypatch.setattr(lie_tower, "_tower", recorded)
    sample = obstruction_at(F, field, sampler.draw(1, 12, system), 7)
    monkeypatch.undo()
    assert np.isfinite(sample.psi.values).all()
    assert len(scans) <= 1
    assert sizes == [7] * 4 + [210] * 4


@pytest.mark.parametrize("observable", [inertia_observable, energy_observable])
def test_a_warm_two_body_scan_multiplies_one_tower_per_group(monkeypatch,
                                                              observable):
    # Counts the tower's fused Lie step chunks, not time: 20 samples at
    # m = 5 are one group, so the scan runs the chunks of one sample's
    # tower, each on a stack of 20 columns, where one tower per sample ran
    # 20 times as many.
    system = _two_body((1.0, 1.0))
    field, F = build_hamiltonian_field(system), observable(system)
    sampler = Sampler(box=(-1.5, 1.5), count=20, seed=1)
    obstruction_scan(system, F, sampler)
    widths = []
    _record_chunks(monkeypatch, lambda low, chunk, f: widths.append(f.shape[1:]))
    obstruction_at(F, field, sampler.draw(0, 8, system), 5)
    one = len(widths)
    assert 0 < one <= 5 * 8 and set(widths) == {()}
    widths.clear()
    obstruction_scan(system, F, sampler)
    assert widths == [(20,)] * one


def test_a_three_body_m7_scan_evaluates_one_sample_at_a_time(monkeypatch):
    # On the Cartesian chart, as for a plain polynomial observable, a
    # (12, 7) observable is 50 388 coefficients, so 12 components of a
    # group of two would pass _CHUNK_ELEMENTS: the scan runs groups of one,
    # on plain arrays.  The system's own
    # inertia runs on the Jacobi chart, whose (8, 7) observable is 6 435
    # coefficients: groups of five, two samples in one stacked chain.
    system = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    inertia = inertia_observable(system)
    sampler = Sampler(box=(-1.5, 1.5), count=2, seed=1, min_separation=0.3)
    for F, width in ((PolynomialObservable(inertia.poly), ()),
                     (inertia, (2,))):
        widths = []
        _record_chunks(monkeypatch, lambda low, chunk, f: widths.append(
            f.shape[1:]))
        rep = obstruction_scan(system, F, sampler, m=7)
        monkeypatch.undo()
        assert rep.n_obstruction_nonzero == 2
        assert widths and set(widths) == {width}


@pytest.mark.parametrize("observable", [inertia_observable, energy_observable])
def test_a_warm_grouped_scan_holds_one_group_at_a_time(observable):
    # Groups of 25 at 2-body m = 5.  A group holds its jets as built, their
    # sample-minor stacks, and one product's gathers and offset indices, each
    # 25 times a restricted triple set of at most 1 820 triples: about 2.8
    # times the group's coefficient bytes.  A second group held at once, or
    # offset indices cached per group size, would pass 3.5 times.
    system = _two_body((1.0, 1.0))
    F = observable(system)
    sampler = Sampler(box=(-1.5, 1.5), count=75, seed=1)
    obstruction_scan(system, F, sampler)
    group_bytes = 25 * (table_size(8, 5) + 8 * table_size(8, 4)) * 8
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        obstruction_scan(system, F, sampler)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak - before < 3.5 * group_bytes, (peak - before) / group_bytes


def _mask_by_exponents(c):
    """The variables of a jet's nonzero coefficients, read off their
    exponent rows: the bitmask :func:`_variable_mask` computes."""
    used = _space(c.dim, c.degree).exps[np.flatnonzero(c.coeffs)].any(axis=0)
    return None if used.all() else sum(1 << int(v) for v in np.flatnonzero(used))


def test_field_masks_are_the_variables_of_the_nonzero_rows():
    fields = []
    for masses in ((1.0, 1.3), (1.0, 1.3, 0.7)):
        system = BodySystem(len(masses), 2, masses, NewtonianPotential())
        z = Sampler(box=(-1.0, 1.0), count=1, seed=6, min_separation=0.3).draw(
            0, system.phase_dim, system)
        bumped = perturb(PerturbationSpec("potential", 2, 0.05, 8), system)
        for s in (system, bumped):
            fields += [build_hamiltonian_field(s).jet_field(z, d) for d in (0, 1, 4)]
        fields.append(perturb(PerturbationSpec("vector_field", 2, 0.05, 3),
                              build_hamiltonian_field(system)).jet_field(z, 3))
    rng = stream_rng(43, 0)
    for n in (1, 2, 3):
        dense = random_polynomial_field(n, 3, rng)
        fields.append(dense.jet_field(rng.uniform(-0.5, 0.5, n), 3))
    zero = TruncatedJet.zero(3, 2, np.zeros(3))
    fields.append(JetField((zero, TruncatedJet.monomial(3, 2, np.zeros(3), (0, 2, 0)),
                            TruncatedJet.monomial(3, 2, np.zeros(3), (1, 0, 1)))))
    for xf in fields:
        assert xf.masks == tuple(_mask_by_exponents(c) for c in xf.components)


def test_fields_past_63_variables_keep_every_variable():
    # Row bitmasks past 63 variables outgrow an int64, yet masks and the
    # orders each variable reaches must still see z_64 and z_65: the
    # (66, 2) observable table, 2 278 coefficients, takes the order scan.
    dim, z = 66, np.zeros(66)
    rng = np.random.default_rng(66)

    def within(degree, variables):
        sp = _space(dim, degree)
        outside = [v for v in range(dim) if v not in variables]
        inside = ~sp.exps[:, outside].any(axis=1)
        return np.where(inside, rng.uniform(-1.0, 1.0, sp.size), 0.0)

    xf = JetField(tuple(TruncatedJet(dim, 1, z, within(1, {i, 64 + i % 2}))
                        for i in range(dim)))
    assert xf.masks == tuple(_mask_by_exponents(c) for c in xf.components)
    assert xf.masks[1] == 1 << 1 | 1 << 65 and xf.masks[64] == 1 << 64
    c = within(2, {0, 1, 64, 65})
    sp = _space(dim, 2)
    c[(sp.orders == 1) & (sp.exps[:, 2] == 1)] = 0.5  # z_2 at order 1 only
    f = TruncatedJet(dim, 2, z, c)
    assert (lie_derivative(f, xf).coeffs.tobytes()
            == lie_derivative_full(f, xf).coeffs.tobytes())


def test_concurrent_towers_equal_serial_ones():
    # Threads share the tables and the plans cached on them, and must not
    # see each other's products.  The N-body field multiplies over
    # restricted triples, the dense random field over the full ones, and the
    # threads start from an empty table cache, so they also build the tables
    # and the restricted sets side by side.
    system = _two_body()
    field = build_hamiltonian_field(system)
    sampler = Sampler(box=(-1.5, 1.5), count=4, seed=3)
    rng = stream_rng(41, 0)
    dense = random_polynomial_field(3, 3, rng)
    cases = [(F, field, sampler.draw(i, 8, system))
             for i in range(sampler.count)
             for F in (inertia_observable(system), energy_observable(system))]
    cases += [(random_polynomial_observable(3, 5, rng), dense,
               rng.uniform(-0.5, 0.5, 3)) for _ in range(2)]
    rounds = 10

    def run(offset):
        towers = [obstruction_at(*cases[(r + offset) % len(cases)][:2],
                                 cases[(r + offset) % len(cases)][2],
                                 m=5).psi.values.tobytes()
                  for r in range(rounds * len(cases))]
        # A scan of the four samples is one group of four, whose stacked
        # products run on the tables the threads share.
        F = cases[offset][0]  # the inertia, then the energy
        return towers + [json.dumps(obstruction_scan(system, F, sampler).to_json_dict())
                         for _ in range(rounds)]

    serial = [run(offset) for offset in (0, 1)]
    _space.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run, offset) for offset in (0, 1)]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert _space(4, 4)._within and "triples" in vars(_space(3, 4))


_TRACED_RUN = """
import json
import sys

sys.path.insert(0, sys.argv[1])
import numpy as np
import saarilab
import saarilab.cli
import spans

tracer = spans.Tracer()
tracer.install(saarilab)
tracer.item = 0
z = np.array([0.6, 0.8])
F, X = saarilab.oscillator_energy(), saarilab.oscillator_field()
saarilab.obstruction_at(F, X, z, 3)
xf = X.jet_field(z, 2)
saarilab.psi_tower(F.jet(z, 3), xf, 3)
saarilab.dpsi_wrt_F(xf, m=3)
saarilab.dpsi_wrt_X(F.jet(z, 3), xf, m=3, method="exact")
got = tracer.metrics([1.0], 1.0)
checks = {name: got[name]["value"] > 0 for name in (
    "lie_tower.obstruction_at.self_ms", "lie_tower.dpsi_wrt_F.self_ms",
    "lie_tower.dpsi_wrt_X.self_ms", "lie_tower.psi_tower.calls",
    "lie_tower.lie_derivative.calls", "jet_algebra.jets_built")}
# Grouped two-body scans under a potential bump and an observable bump,
# as the benchmark's genericity items run them: their stacked jets and
# towers land in the scan's own time.
system = saarilab.BodySystem(2, 2, np.ones(2), saarilab.NewtonianPotential())
inertia = saarilab.inertia_observable(system)
sampler = saarilab.Sampler(box=(-1.5, 1.5), count=10, seed=3)
tracer.item = 1
for target in ("potential", "observable"):
    spec = saarilab.PerturbationSpec(target, 3, 1e-2, 3)
    saarilab.genericity_experiment(system, inertia, spec, 2, sampler)
got = tracer.metrics([1.0, 1.0], 1.0)
checks["genericity.scan.self_ms"] = got["genericity.scan.self_ms"]["value"] > 0
print(json.dumps(checks))
"""


def test_traced_benchmark_run_wraps_the_tower():
    # The benchmark's traced run wraps package functions by name; a rename
    # must fail here rather than in the benchmark.  Each named figure must
    # read above 0.
    root = Path(__file__).resolve().parents[1]
    checks = run_fresh(_TRACED_RUN, str(root / "perfbench"), timeout=120)
    assert [name for name, ok in checks.items() if not ok] == []
    assert len(checks) == 7


_TRACER_INSTALL = """
import json
import sys

sys.path.insert(0, sys.argv[1])
import saarilab
import saarilab.cli
import spans

spans.Tracer().install(saarilab)
wrapped = []
for name, short, attr, cls in spans._SPANS:
    owner = getattr(saarilab, short)
    if cls is not None:
        owner = getattr(owner, cls)
    if hasattr(getattr(owner, attr), "__wrapped__"):
        wrapped.append(name)
print(json.dumps({"spans": [span[0] for span in spans._SPANS],
                  "wrapped": wrapped}))
"""


def test_the_benchmark_tracer_installs_on_every_span():
    # The traced benchmark run looks up each span's function by name, so
    # removing a public name breaks it: every span must still be wrapped.
    root = Path(__file__).resolve().parents[1]
    got = run_fresh(_TRACER_INSTALL, str(root / "perfbench"))
    assert got["wrapped"] == got["spans"]
