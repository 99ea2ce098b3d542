"""Each output check of the benchmark passes a right value and rejects a
deliberately wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import saarilab as sl  # noqa: E402
import saarilab.cli  # noqa: E402, F401

import checks  # noqa: E402
from workloads import OrbitsCli  # noqa: E402

TWO_BODY = sl.BodySystem(2, 2, np.ones(2), sl.NewtonianPotential())


def com_point(system, seed=4):
    return sl.Sampler(box=(-1.5, 1.5), count=1, seed=seed).draw(
        0, system.phase_dim, system)


def split(z, system):
    nc = system.coord_dim
    shape = (system.n_bodies, system.space_dim)
    return z[:nc].reshape(shape), z[nc:].reshape(shape)


def test_graded_lex_is_the_program_layout():
    for dim, degree in [(1, 3), (2, 4), (3, 2)]:
        for i, alpha in enumerate(checks.graded_lex(dim, degree)):
            jet = sl.TruncatedJet.monomial(dim, degree, np.zeros(dim), alpha)
            assert int(np.argmax(jet.coeffs)) == i


def test_polynomial_helpers_agree_with_the_program():
    rng = np.random.default_rng(0)
    poly = sl.random_polynomial_observable(3, 4, rng)
    z = rng.uniform(-1, 1, 3)
    value = checks.poly_value(poly.coeffs, 3, 4, z)
    grad = checks.poly_grad(poly.coeffs, 3, 4, z)
    assert value == pytest.approx(poly(z), rel=1e-13)
    assert grad == pytest.approx(poly.grad(z), rel=1e-12)
    assert checks.poly_euler(poly.coeffs, 3, 4, z) == pytest.approx(
        float(np.dot(z, grad)), rel=1e-12)


def test_lagrange_jacobi_rejects_a_wrong_tower():
    z = com_point(TWO_BODY)
    q, p = split(z, TWO_BODY)
    inertia = sl.inertia_observable(TWO_BODY)
    field = sl.build_hamiltonian_field(TWO_BODY)
    psi = sl.obstruction_at(inertia, field, z, 5).psi.values
    checks.lagrange_jacobi(psi, q, p, TWO_BODY.masses)
    for k in (0, 1):
        wrong = psi.copy()
        wrong[k] *= 1 + 1e-9
        with pytest.raises(checks.CheckFailed):
            checks.lagrange_jacobi(wrong, q, p, TWO_BODY.masses)


def test_lagrange_jacobi_counts_the_potential_bump():
    spec = sl.PerturbationSpec("potential", 3, 1e-2, 5)
    bumped = sl.perturb(spec, TWO_BODY)
    z = com_point(bumped)
    q, p = split(z, bumped)
    psi = sl.obstruction_at(sl.inertia_observable(bumped),
                            sl.build_hamiltonian_field(bumped), z, 5).psi.values
    bump = bumped.potential.bump
    euler = checks.poly_euler(bump.coeffs, bump.dim, bump.degree, q.ravel())
    checks.lagrange_jacobi(psi, q, p, bumped.masses, euler)
    with pytest.raises(checks.CheckFailed):
        checks.lagrange_jacobi(psi, q, p, bumped.masses)


def test_energy_check_rejects_a_nonconserved_tower():
    z = com_point(TWO_BODY)
    field = sl.build_hamiltonian_field(TWO_BODY)
    norm_e = sl.obstruction_at(sl.energy_observable(TWO_BODY), field, z,
                               5).norm_inf
    norm_i = sl.obstruction_at(sl.inertia_observable(TWO_BODY), field, z,
                               5).norm_inf
    checks.energy_vanishes(norm_e, norm_i)
    with pytest.raises(checks.CheckFailed):
        checks.energy_vanishes(1e-6 * norm_i, norm_i)


def test_relative_equilibrium_check_rejects_a_generic_point():
    system = sl.BodySystem(3, 2, np.ones(3), sl.NewtonianPotential())
    sol = sl.releq_lagrange(system, 1.0)
    inertia = sl.inertia_observable(system)
    field = sl.build_hamiltonian_field(system)
    at_releq = sl.releq_trajectory(sol, 0.3).flat()
    checks.vanishes(sl.obstruction_at(inertia, field, at_releq, 3).norm_inf,
                    1e-9, "releq")
    off = at_releq.copy()
    off[-1] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.vanishes(sl.obstruction_at(inertia, field, off, 3).norm_inf,
                        1e-9, "releq")
    checks.close(sol.omega_squared, 3.0, 1e-12, "omega^2")
    with pytest.raises(checks.CheckFailed):
        checks.close(sol.omega_squared, 1.25, 1e-12, "omega^2")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobian_structure_rejects_a_wrong_entry(n):
    m = n + 1
    rng = np.random.default_rng(n)
    field = sl.random_polynomial_field(n, 4, rng)
    F = sl.random_polynomial_observable(n, 4, rng)
    z = rng.uniform(-1, 1, n)
    xf = field.jet_field(z, m - 1)
    jf = sl.dpsi_wrt_F(xf, m=m).matrix
    jx = sl.dpsi_wrt_X(F.jet(z, m), xf, m=m, method="exact").matrix
    x_vals = [checks.poly_value(c.coeffs, n, 4, z) for c in field.components]
    grad_f = checks.poly_grad(F.coeffs, n, 4, z)
    checks.jacobian_f_structure(jf, x_vals, m, m)
    checks.jacobian_x_structure(jx, x_vals, grad_f, m)
    # The top row holds the structural entries of order m.
    wrong_f = jf.copy()
    wrong_f[m - 1] += 1e-3 * (1 + np.abs(wrong_f[m - 1]))
    with pytest.raises(checks.CheckFailed):
        checks.jacobian_f_structure(wrong_f, x_vals, m, m)
    wrong_x = jx.copy()
    wrong_x[m - 1] += 1e-3 * (1 + np.abs(wrong_x[m - 1]))
    with pytest.raises(checks.CheckFailed):
        checks.jacobian_x_structure(wrong_x, x_vals, grad_f, m)


def test_rank_share_rejects_too_few_full_ranks():
    checks.share_at_least(99, 100, 0.99, "rank")
    with pytest.raises(checks.CheckFailed):
        checks.share_at_least(98, 100, 0.99, "rank")


def test_cli_check_rejects_wrong_exit_codes_and_verdicts():
    cli = OrbitsCli(sl, 1, Path(__file__).resolve().parent / "_runs" / "test")
    argv = {kind: a for kind, a, _code in cli.commands}
    right = [(0, kind, cli._call(argv[kind]))
             for kind in ("releq-lagrange", "releq-euler", "releq-newton",
                          "tower", "tower-collision")]
    outcome = cli.check(right)
    assert not outcome.failed and not outcome.problems

    report = json.loads(right[0][2][1])
    report["solution"]["omega_squared"] = 2.9
    verdict = {"classification": {"verdict": "RelativeEquilibrium"}}
    wrong = [
        (0, "releq-lagrange", (0, json.dumps(report), "")),
        (0, "classify", (0, json.dumps(verdict), "")),
        (0, "tower-collision", (0, "{}", "")),
        (0, "simulate-verlet", (2, "", "config error")),
    ]
    outcome = cli.check(wrong)
    assert len(outcome.problems) == 2
    assert [f.split(":")[0] for f in outcome.failed] == [
        "tower-collision", "simulate-verlet"]
