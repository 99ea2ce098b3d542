"""Acceptance suite: one test per stated criterion, at the stated tolerance.

Each test prints a single ``[criterion N] PASS`` line with the measured
numbers (visible under ``pytest -s`` / ``-rA``); the pytest verdict itself is
the pass/fail signal.  Criterion 8 (byte-identical reruns) reuses the JSON
memoized by criteria 2 and 7 when those ran first, and regenerates it
otherwise, so the test is order-independent.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from saarilab.errors import SaariLabError
from saarilab.fields import (
    SeparableOscillator,
    oscillator_energy,
    oscillator_field,
    random_polynomial_field,
    random_polynomial_observable,
    stream_rng,
)
from saarilab.flow import (
    IntegratorConfig,
    derivative_probe,
    figure8_initial_conditions,
    integrate,
)
from saarilab.genericity import (
    PerturbationSpec,
    Sampler,
    classify_trajectory,
    genericity_experiment,
    obstruction_scan,
)
from saarilab.jet_algebra import _space
from saarilab.lie_tower import (
    dpsi_wrt_F,
    dpsi_wrt_X,
    obstruction_at,
    psi_tower,
)
from saarilab.mech import (
    BodySystem,
    NewtonianPotential,
    PhaseState,
    build_hamiltonian_field,
    energy_observable,
    inertia_observable,
    releq_euler,
    releq_lagrange,
    releq_newton,
    releq_trajectory,
)

from oracles import dpsi_wrt_X_fd

_MEMO: dict[str, str] = {}


def _passed(k: int, detail: str) -> None:
    print(f"[criterion {k}] PASS - {detail}")


def _dumps(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- criterion 1: tower values against independent flow derivatives -------------------


def test_criterion_1_tower_matches_flow_derivatives():
    t_start = time.monotonic()
    checked = 0
    worst = 0.0
    i = 0
    attempts = 0
    while checked < 50:
        attempts += 1
        assert attempts < 600, "too many unstable random systems"
        rng = stream_rng(9001, i, attempts)
        n = 1 + checked % 3
        deg_x = 2 + checked % 3
        deg_f = 2 + (checked + 1) % 3
        X = random_polynomial_field(n, deg_x, rng, scale=0.5)
        F = random_polynomial_observable(n, deg_f, rng, scale=1.0)
        z0 = rng.uniform(-0.4, 0.4, n)
        try:
            traj = integrate(X, z0,
                             IntegratorConfig("dop853", (1e-12, 1e-13), 1.2))
        except (SaariLabError, ValueError):
            i += 1
            continue
        if (traj.status != "completed"
                or not np.all(np.isfinite(traj.states))
                or np.max(np.abs(traj.states)) > 8.0):
            i += 1
            continue
        try:
            pr = derivative_probe(F, traj, 0.6, 4)
        except SaariLabError:
            i += 1
            continue
        psi = psi_tower(F.jet(pr.state, 4), X.jet_field(pr.state, 3), 4)
        tols = 1e-5 * np.maximum(1.0, np.abs(psi.values))
        if np.any(pr.errors > tols):
            # the probe's own error model says the comparison would be
            # dominated by finite-difference noise; redraw deterministically
            i += 1
            continue
        for k in range(4):
            dev = abs(psi.values[k] - pr.values[k])
            worst = max(worst, dev / tols[k] * 1e-5)
            assert dev <= tols[k], (
                f"system {checked}: order {k + 1} tower {psi.values[k]!r} vs "
                f"probe {pr.values[k]!r}"
            )
        checked += 1
        i += 1
    elapsed = time.monotonic() - t_start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s (budget 60s)"
    _passed(1, f"50 systems ({attempts} draws), worst relative deviation "
               f"{worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: submersion rates over 1000 samples -----------------------------------


def _c2_report() -> dict:
    f_ranks, f_smin = [], []
    x_ranks, x_smin = [], []
    for i in range(1000):
        n = 1 + i % 3
        m = n + 1
        for attempt in itertools.count():
            rng = stream_rng(7101, 0, i, attempt)
            X = random_polynomial_field(n, 4, rng)
            z = rng.uniform(-1.0, 1.0, n)
            if np.linalg.norm(X(z)) > 0.1:
                break
        res = dpsi_wrt_F(X.jet_field(z, m - 1), m=m)
        f_ranks.append(res.rank_report.numerical_rank)
        f_smin.append(float(res.rank_report.singular_values[-1]))
        for attempt in itertools.count():
            rng = stream_rng(7101, 1, i, attempt)
            X = random_polynomial_field(n, 4, rng)
            F = random_polynomial_observable(n, 4, rng)
            z = rng.uniform(-1.0, 1.0, n)
            if np.linalg.norm(F.grad(z)) > 0.1:
                break
        res = dpsi_wrt_X(F.jet(z, m), X.jet_field(z, m - 1), m=m)
        x_ranks.append(res.rank_report.numerical_rank)
        x_smin.append(float(res.rank_report.singular_values[-1]))
    full_f = sum(1 for i, r in enumerate(f_ranks) if r == 2 + i % 3)
    full_x = sum(1 for i, r in enumerate(x_ranks) if r == 2 + i % 3)
    return {
        "n_samples": 1000,
        "threshold": 1e-8,
        "observable_jacobian": {
            "full_rank_count": full_f,
            "full_rank_fraction": full_f / 1000.0,
            "ranks": f_ranks,
            "min_singular_values": f_smin,
        },
        "field_jacobian": {
            "full_rank_count": full_x,
            "full_rank_fraction": full_x / 1000.0,
            "ranks": x_ranks,
            "min_singular_values": x_smin,
        },
    }


def test_criterion_2_submersion_rates():
    t_start = time.monotonic()
    report = _c2_report()
    _MEMO["c2"] = _dumps(report)
    frac_f = report["observable_jacobian"]["full_rank_fraction"]
    frac_x = report["field_jacobian"]["full_rank_fraction"]
    assert frac_f >= 0.99, f"observable-Jacobian full-rank rate {frac_f}"
    assert frac_x >= 0.99, f"field-Jacobian full-rank rate {frac_x}"
    elapsed = time.monotonic() - t_start
    assert elapsed < 300.0, f"criterion 2 took {elapsed:.1f}s (budget 300s)"
    _passed(2, f"full-rank fractions F: {frac_f:.3f}, X: {frac_x:.3f}, "
               f"{elapsed:.1f}s")


# -- criterion 3: closed-form Jacobian entries -----------------------------------------


def test_criterion_3_structural_identities():
    worst_f = worst_x = worst_fd = 0.0
    for i in range(100):
        n = 1 + i % 3
        m = 4
        rng = stream_rng(3301, i)
        X = random_polynomial_field(n, 4, rng)
        F = random_polynomial_observable(n, 4, rng)
        z = rng.uniform(-1.0, 1.0, n)
        xf = X.jet_field(z, m - 1)
        fj = F.jet(z, m)
        x_vals = xf.values()
        grad_f = fj.gradient()

        res_f = dpsi_wrt_F(xf, m=m)
        sp = _space(n, m)
        for k in range(1, m + 1):
            for j in range(n):
                alpha = [0] * n
                alpha[j] = k
                col = int(sp.rank(np.array(alpha))) - 1
                closed = x_vals[j] ** k
                got = res_f.matrix[k - 1, col]
                dev = abs(got - closed) / max(1.0, abs(closed))
                worst_f = max(worst_f, dev)
                assert dev <= 1e-10

        res_x = dpsi_wrt_X(fj, xf, m=m)
        spx = _space(n, m - 1)
        for k in range(1, m + 1):
            for j in range(n):
                alpha = [0] * n
                alpha[j] = k - 1
                t = int(spx.rank(np.array(alpha)))
                for comp in range(n):
                    closed = grad_f[comp] * x_vals[j] ** (k - 1)
                    got = res_x.matrix[k - 1, t * n + comp]
                    dev = abs(got - closed) / max(1.0, abs(closed))
                    worst_x = max(worst_x, dev)
                    assert dev <= 1e-10
        assert res_x.structural_deviation <= 1e-10

        if i % 10 == 0:  # finite differences agree at their cancellation floor
            res_fd = dpsi_wrt_X_fd(fj, xf, m=m)
            worst_fd = max(worst_fd, res_fd.structural_deviation)
            assert res_fd.structural_deviation <= 1e-6
    _passed(3, f"100 samples; worst deviations exact-F {worst_f:.2e}, "
               f"exact-X {worst_x:.2e}, fd {worst_fd:.2e}")


# -- criterion 4: conserved energies annihilate the tower -------------------------------


def _nbody_points(system: BodySystem, count: int, tag: int):
    out = []
    idx = 0
    while len(out) < count:
        for attempt in itertools.count():
            rng = stream_rng(4801, tag, idx, attempt)
            q = rng.uniform(-2.0, 2.0, (system.n_bodies, system.space_dim))
            sep = min(np.linalg.norm(q[i] - q[j]) for i, j in system.pairs())
            if sep >= 1.0:
                break
        p = rng.uniform(-1.0, 1.0, (system.n_bodies, system.space_dim))
        q = q - system.masses @ q / system.total_mass
        p = p - p.sum(axis=0) / system.n_bodies
        out.append(PhaseState(q, p).flat())
        idx += 1
    return out


def test_criterion_4_conserved_towers_vanish():
    worst = 0.0
    osc = SeparableOscillator()
    h_osc = oscillator_energy()
    for i in range(20):
        rng = stream_rng(4801, 0, i)
        z = rng.uniform(-1.5, 1.5, 2)
        psi = psi_tower(h_osc.jet(z, 3), osc.jet_field(z, 2), 3)
        worst = max(worst, psi.norm_inf)
        assert psi.norm_inf < 1e-11
    for tag, n in ((2, 2), (3, 3)):
        system = BodySystem(n, 2, np.ones(n), NewtonianPotential())
        field = build_hamiltonian_field(system)
        h = energy_observable(system)
        m = 5
        for z in _nbody_points(system, 20, tag):
            psi = psi_tower(h.jet(z, m), field.jet_field(z, m - 1), m)
            worst = max(worst, psi.norm_inf)
            assert psi.norm_inf < 1e-11, f"{n}-body |psi| = {psi.norm_inf:.2e}"
    _passed(4, f"60 phase points, worst tower entry {worst:.2e} < 1e-11")


# -- criterion 5: relative-equilibrium frequencies and rigidity -------------------------


def test_criterion_5_relative_equilibria():
    two = BodySystem(2, 2, (1.0, 1.0), NewtonianPotential())
    three = BodySystem(3, 2, (1.0, 1.0, 1.0), NewtonianPotential())
    sols = {
        "binary": (releq_newton(two, np.array([[-0.5, 0.0], [0.5, 0.0]])), 2.0),
        "triangle": (releq_lagrange(three, side=1.0), 3.0),
        "collinear": (releq_euler(three, gap=1.0), 1.25),
    }
    details = []
    for name, (sol, omega2) in sols.items():
        assert sol.omega_squared == pytest.approx(omega2, abs=1e-10), name
        period = 2.0 * math.pi / sol.omega
        traj = integrate(build_hamiltonian_field(sol.system),
                         releq_trajectory(sol, 0.0).flat(),
                         IntegratorConfig("dop853", (1e-12, 1e-13), period))
        cls = classify_trajectory(traj)
        assert cls.inertia_rel_variation < 1e-8, name
        assert cls.shape_variation < 1e-6, name
        assert cls.verdict == "RelativeEquilibrium", name
        details.append(f"{name} w2={sol.omega_squared:.12f} "
                       f"irv={cls.inertia_rel_variation:.1e}")
    _passed(5, "; ".join(details))


# -- criterion 6: figure-8 has nearly-constant, not constant, inertia --------------------


def test_criterion_6_figure8_inertia_variation():
    t_start = time.monotonic()
    system, z0, period = figure8_initial_conditions(refine=True)
    field = build_hamiltonian_field(system)
    traj = integrate(field, z0,
                     IntegratorConfig("dop853", (1e-12, 1e-13), period))
    cls = classify_trajectory(traj)
    assert cls.inertia_rel_variation > 100.0 * cls.energy_drift
    assert cls.verdict == "NonConstantF"
    elapsed = time.monotonic() - t_start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s (budget 60s)"
    _passed(6, f"inertia variation {cls.inertia_rel_variation:.3e} vs "
               f"energy drift {cls.energy_drift:.1e}; verdict "
               f"{cls.verdict}; {elapsed:.1f}s")


# -- criterion 7: perturbed inertia has no spurious zero-obstruction points ---------------


def _c7_report() -> dict:
    system = BodySystem(2, 2, (1.0, 1.0), NewtonianPotential())
    field = build_hamiltonian_field(system)
    inertia = inertia_observable(system)
    sampler = Sampler(box=(-1.5, 1.5), count=1000, seed=2501,
                      min_separation=0.3)
    experiments = {}
    for target, base in (("observable", field), ("potential", system)):
        spec = PerturbationSpec(target=target, degree=3, epsilon=1e-2,
                                seed=2501)
        rep = genericity_experiment(base, inertia, spec, trials=10,
                                    sampler=sampler)
        experiments[target] = rep.to_json_dict()
    baseline = obstruction_scan(system, inertia,
                                Sampler(box=(-1.5, 1.5), count=1000,
                                        seed=2502, min_separation=0.3))
    circular = []
    for sep in (0.6, 1.0, 1.4):
        sol = releq_newton(system, np.array([[-sep / 2, 0.0],
                                             [sep / 2, 0.0]]))
        for t in (0.0, 0.7, 2.1):
            z = releq_trajectory(sol, t).flat()
            samp = obstruction_at(inertia, field, z, m=5)
            circular.append({"separation": sep, "t": t,
                             "norm_inf": float(samp.norm_inf)})
    return {
        "experiments": experiments,
        "baseline_scan": baseline.to_json_dict(),
        "circular_orbit_samples": circular,
    }


def test_criterion_7_genericity_experiment():
    t_start = time.monotonic()
    report = _c7_report()
    _MEMO["c7"] = _dumps(report)
    for target in ("observable", "potential"):
        exp = report["experiments"][target]
        assert exp["pooled_zero_fraction"] == 0.0, target
        assert exp["n_nonexcluded_total"] == 10000, target
    base = report["baseline_scan"]
    assert base["n_obstruction_zero"] == 0
    assert base["n_obstruction_nonzero"] == base["n_samples"]
    for entry in report["circular_orbit_samples"]:
        assert entry["norm_inf"] < 1e-9, entry
    elapsed = time.monotonic() - t_start
    assert elapsed < 600.0, f"criterion 7 took {elapsed:.1f}s (budget 600s)"
    _passed(7, "pooled zero fraction 0.0 over 2x10000 perturbed samples; "
               "baseline zero set = circular orbits "
               f"(max circular norm {max(e['norm_inf'] for e in report['circular_orbit_samples']):.1e}); "
               f"{elapsed:.1f}s")


# -- criterion 8: reruns are byte-identical ----------------------------------------------


def test_criterion_8_reports_are_byte_deterministic():
    first_c2 = _MEMO.get("c2") or _dumps(_c2_report())
    second_c2 = _dumps(_c2_report())
    assert first_c2.encode() == second_c2.encode()
    first_c7 = _MEMO.get("c7") or _dumps(_c7_report())
    second_c7 = _dumps(_c7_report())
    assert first_c7.encode() == second_c7.encode()
    _passed(8, f"rank suite ({len(second_c2)} bytes) and experiment "
               f"({len(second_c7)} bytes) reports byte-identical across reruns")
