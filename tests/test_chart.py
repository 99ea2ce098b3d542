"""N-body towers on the Jacobi chart against the Cartesian route.

A translation-invariant system's energy and inertia run their towers on
the system's mass-weighted Jacobi chart (``mech._JacobiPlan``); every other
pair of handles keeps the Cartesian chart.  The Cartesian route of
``tests/oracles.py`` is the accuracy oracle of the first and the byte
oracle of the second.
"""

import numpy as np
import pytest

from saarilab import lie_tower, mech
from saarilab.errors import CombinabilityError
from saarilab.fields import PolynomialObservable
from saarilab.genericity import (
    PerturbationSpec,
    Sampler,
    genericity_experiment,
    obstruction_scan,
    perturb,
)
from saarilab.lie_tower import obstruction_at
from saarilab.mech import (
    BodySystem,
    NewtonianPotential,
    PowerLawPotential,
    _jacobi_tower,
    build_hamiltonian_field,
    energy_observable,
    inertia_observable,
    kinetic_energy,
    moment_of_inertia,
)

from oracles import obstruction_per_sample, obstruction_scan_per_sample

_POWER = PowerLawPotential(((1.0, -1.0), (0.3, -2.0)))

#: (name, system, tower orders): every case at most m = 9.
_SYSTEMS = [
    ("planar two-body", BodySystem(2, 2, (1.0, 1.3), NewtonianPotential()),
     (5, 9)),
    ("planar three-body",
     BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential()), (7, 9)),
    ("power law", BodySystem(3, 2, (1.0, 1.3, 0.7), _POWER), (7,)),
    ("spatial two-body", BodySystem(2, 3, (1.0, 1.3), NewtonianPotential()),
     (7,)),
    ("com_fixed=False",
     BodySystem(2, 2, (1.0, 1.3), NewtonianPotential(), com_fixed=False),
     (9,)),
]


def _points(system, count=2, seed=6):
    """Samples on the centre-of-mass slice, and one off it: the first
    sample with its centre of mass moved and a total momentum added."""
    sampler = Sampler(box=(-1.0, 1.0), count=count, seed=seed,
                      min_separation=0.3)
    points = [sampler.draw(i, system.phase_dim, system) for i in range(count)]
    nc, dim = system.coord_dim, system.space_dim
    moved = points[0].copy()
    moved[:nc] += np.tile(np.linspace(0.4, -0.3, dim), system.n_bodies)
    moved[nc:] += system.mass_vector * np.tile(np.linspace(-0.2, 0.5, dim),
                                               system.n_bodies)
    return points + [moved]


@pytest.mark.parametrize("name, system, orders", _SYSTEMS,
                         ids=[case[0] for case in _SYSTEMS])
def test_the_charts_agree(name, system, orders):
    # The energy's and the inertia's towers are the same functions on
    # either chart: to 1e-13 of the largest entry, with the same flags.
    # The energy's are exactly zero on both.
    field = build_hamiltonian_field(system)
    for F in (inertia_observable(system), energy_observable(system)):
        assert _jacobi_tower(F, field) is not None
        for m in orders:
            for z in _points(system):
                got = obstruction_at(F, field, z, m)
                want = obstruction_per_sample(F, field, z, m, cartesian=True)
                if isinstance(F, mech.EnergyObservable):
                    assert not got.psi.values.any()
                    assert not want.psi.values.any()
                top = np.abs(want.psi.values).max()
                assert (np.abs(got.psi.values - want.psi.values).max()
                        <= 1e-13 * top), (m, z)
                assert got.is_near_equilibrium == want.is_near_equilibrium
                assert got.is_near_F_critical == want.is_near_F_critical


@pytest.mark.parametrize("name, system, orders", _SYSTEMS,
                         ids=[case[0] for case in _SYSTEMS])
def test_chart_scans_count_as_cartesian_ones(name, system, orders):
    sampler = Sampler(box=(-1.5, 1.5), count=6, seed=21)
    m = orders[0]
    for F in (inertia_observable(system), energy_observable(system)):
        got = obstruction_scan(system, F, sampler, m=m).to_json_dict()
        want = obstruction_scan_per_sample(system, F, sampler, m=m,
                                           cartesian=True).to_json_dict()
        got_min = got.pop("min_nonexcluded_norm")
        want_min = want.pop("min_nonexcluded_norm")
        assert got == want
        assert got_min == pytest.approx(want_min, rel=1e-13, abs=0.0)
        assert got["n_excluded_singular"] < got["n_samples"]


def _route_cases():
    """(name, F, X): pairs of handles that keep the Cartesian chart."""
    system = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    field = build_hamiltonian_field(system)
    inertia = inertia_observable(system)
    bumped = perturb(PerturbationSpec("potential", 3, 0.05, 7), system)
    yield ("bumped potential, inertia", inertia_observable(bumped),
           build_hamiltonian_field(bumped))
    yield ("bumped potential, energy", energy_observable(bumped),
           build_hamiltonian_field(bumped))
    yield ("vector-field bump", inertia,
           perturb(PerturbationSpec("vector_field", 2, 0.05, 3), field))
    yield ("perturbed observable",
           perturb(PerturbationSpec("observable", 3, 0.05, 9), inertia), field)
    yield ("plain polynomial", PolynomialObservable(inertia.poly), field)
    other = BodySystem(3, 2, (1.0, 1.3, 0.8), NewtonianPotential())
    yield "another system's energy", energy_observable(other), field


@pytest.mark.parametrize("name, F, X", list(_route_cases()),
                         ids=[case[0] for case in _route_cases()])
def test_other_handles_keep_the_cartesian_bytes(name, F, X):
    # Bumped potentials, sums of fields, perturbed or plain observables and
    # another system's observable run on the Cartesian chart, so their
    # towers and scans keep the bytes of the route before the chart.
    assert _jacobi_tower(F, X) is None
    system = X.system
    for z in _points(system)[:2]:
        got = obstruction_at(F, X, z, 5)
        want = obstruction_per_sample(F, X, z, 5, cartesian=True)
        assert got.psi.values.tobytes() == want.psi.values.tobytes()
        assert got.to_json_dict() == want.to_json_dict()
    sampler = Sampler(box=(-1.5, 1.5), count=3, seed=22, min_separation=0.3)
    assert (obstruction_scan(X, F, sampler, m=4).to_json_dict()
            == obstruction_scan_per_sample(X, F, sampler, m=4,
                                           cartesian=True).to_json_dict())


def test_perturbation_experiments_keep_the_cartesian_route():
    # Each target of the genericity experiment perturbs one handle, so no
    # trial's pair of handles runs on the chart: the reports equal scans on
    # the Cartesian chart.
    system = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    inertia = inertia_observable(system)
    sampler = Sampler(box=(-1.5, 1.5), count=3, seed=23, min_separation=0.3)
    for target in ("observable", "vector_field", "potential"):
        spec = PerturbationSpec(target, 2, 0.05, 5)
        base = build_hamiltonian_field(system) if target == "vector_field" \
            else system
        rep = genericity_experiment(base, inertia, spec, trials=2,
                                    sampler=sampler, m=4)
        for t, trial in enumerate(rep.trials):
            X, F = base, inertia
            if target == "observable":
                F = perturb(spec, inertia, trial=t)
            else:
                X = perturb(spec, base, trial=t)
            want = obstruction_scan_per_sample(
                X, F, Sampler(box=(-1.5, 1.5), count=3, seed=23 + t,
                              min_separation=0.3), m=4, cartesian=True)
            assert trial.to_json_dict() == want.to_json_dict(), target


def test_the_jacobi_chart_reduces_the_centre_of_mass():
    # rho and pi drop the centre of mass R and the total momentum P: the
    # inertia is sum mu_k |rho_k|^2, the kinetic energy sum |pi_k|^2 / 2 mu_k
    # plus |P|^2 / 2M, each pair's difference is sum_k D_ijk rho_k, and the
    # map is symplectic onto (rho, pi).  Stacks keep each column's bits.
    system = BodySystem(4, 2, (1.0, 1.3, 0.7, 2.1), NewtonianPotential(),
                        com_fixed=False)
    plan = system._jacobi_plan
    rng = np.random.default_rng(5)
    zs = rng.uniform(-1.0, 1.0, (3, system.phase_dim))
    chart = plan.to_chart(np.ascontiguousarray(zs.T))
    nc, nr = system.coord_dim, plan.nc
    for k, z in enumerate(zs):
        at = plan.to_chart(z)
        assert at.tobytes() == np.ascontiguousarray(chart[:, k]).tobytes()
        rho, pi = at[:nr], at[nr:]
        q, p = z[:nc].reshape(4, 2), z[nc:].reshape(4, 2)
        assert np.sum(plan.mass * rho ** 2) == pytest.approx(
            moment_of_inertia(system, q), rel=1e-14)
        total = p.sum(axis=0)
        assert (np.sum(pi ** 2 / plan.mass) / 2
                + total @ total / (2 * system.total_mass)) == pytest.approx(
            kinetic_energy(system, p), rel=1e-14)
        blocks = rho.reshape(3, 2)
        for (i, j), row in zip(system.pairs(), plan.rows):
            np.testing.assert_allclose(np.array(row) @ blocks, q[i] - q[j],
                                       rtol=0.0, atol=1e-15)
    # The map is linear: its matrix T from the unit vectors, T J T^t = J.
    T = plan.to_chart(np.eye(system.phase_dim))

    def J(n):
        return np.block([[np.zeros((n, n)), np.eye(n)],
                         [-np.eye(n), np.zeros((n, n))]])
    np.testing.assert_allclose(T @ J(nc) @ T.T, J(nr), atol=1e-15)
    assert plan.mu == pytest.approx([1.0 * 1.3 / 2.3, 0.7 * 2.3 / 3.0,
                                     2.1 * 3.0 / 5.1], rel=1e-15)
    with pytest.raises(ValueError, match="translation invariant"):
        perturb(PerturbationSpec("potential", 2, 0.05, 7),
                system)._jacobi_plan


def test_a_wrong_length_point_is_refused_on_either_chart():
    # The handles' dim is checked against the point before X(z) and before
    # any jet: the energy and inertia run on the Jacobi chart, a plain
    # polynomial of the inertia on the Cartesian one.
    system = BodySystem(2, 2, (1.0, 1.3), NewtonianPotential())
    field = build_hamiltonian_field(system)
    inertia = inertia_observable(system)
    for F in (energy_observable(system), inertia,
              PolynomialObservable(inertia.poly)):
        for size in (7, 9):
            with pytest.raises(CombinabilityError,
                               match=f"dim 8 evaluated at points of dim {size}"):
                obstruction_at(F, field, np.linspace(-0.9, 0.8, size), 5)


def test_the_chart_sizes_scan_groups(monkeypatch):
    # The planar three-body energy and inertia run groups of five at m = 7
    # on the (8, 7) table, where a plain polynomial on the (12, 7) table
    # runs groups of one (see obstruction_scan): six samples are one chain
    # of five and one of one, against six chains of one.
    system = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    inertia = inertia_observable(system)
    sampler = Sampler(box=(-1.5, 1.5), count=6, seed=24, min_separation=0.3)
    tower, widths = lie_tower._tower, []

    def recorded(dim, m, g, comps):
        widths.append((dim, g.shape[1:]))
        return tower(dim, m, g, comps)

    monkeypatch.setattr(lie_tower, "_tower", recorded)
    for F in (inertia, energy_observable(system)):
        widths.clear()
        obstruction_scan(system, F, sampler, m=7)
        assert widths == [(8, (5,)), (8, ())]
    widths.clear()
    obstruction_scan(system, PolynomialObservable(inertia.poly), sampler, m=7)
    assert widths == [(12, ())] * 6
