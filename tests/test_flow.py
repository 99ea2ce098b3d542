"""Integration tests: symplectic/RK/adaptive runs, monitors, probes, figure-8."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from saarilab.errors import (
    CombinabilityError,
    ConfigError,
    InsufficientSamplesError,
    NoConvergenceError,
    SingularityError,
)
from saarilab.fields import (
    PolynomialObservable,
    SeparableOscillator,
    linear1d_field,
    oscillator_field,
)
from saarilab.flow import (
    MIN_SEPARATION,
    IntegratorConfig,
    Trajectory,
    derivative_probe,
    figure8_initial_conditions,
    figure8_system,
    integrate,
    reverse_check,
)
from saarilab import mech
from saarilab.mech import (
    BodySystem,
    NewtonianPotential,
    PerturbedPotential,
    PhaseState,
    angular_momentum,
    build_hamiltonian_field,
    hamiltonian,
    moment_of_inertia,
    pair_distances,
    releq_newton,
    releq_trajectory,
)

TWO_PI = 2.0 * math.pi


def circular_two_body():
    """Two unit masses on a circular orbit: omega^2 = 2, radius 1/2."""
    system = BodySystem(2, 2, (1.0, 1.0), NewtonianPotential())
    sol = releq_newton(system, np.array([[-0.5, 0.0], [0.5, 0.0]]))
    z0 = releq_trajectory(sol, 0.0).flat()
    period = TWO_PI / sol.omega
    return build_hamiltonian_field(system), z0, period


# -- configuration validation ---------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        IntegratorConfig(method="leapfrog")
    with pytest.raises(ConfigError):
        IntegratorConfig(method="rk4", step=-0.1)
    with pytest.raises(ConfigError):
        IntegratorConfig(method="stormer_verlet", step=1e-16)
    with pytest.raises(ConfigError):
        IntegratorConfig(method="dop853", step=1e-8)  # needs an (rtol, atol) pair
    with pytest.raises(ConfigError):
        IntegratorConfig(method="rk4", step=0.1, max_time=0.0)


@pytest.mark.parametrize("kwargs", [
    {"step": (math.nan, 1e-12)},
    {"step": (1e-10, math.inf)},
    {"step": (True, 1e-12)},
    {"step": (1e-10, 1e-12), "max_time": math.nan},
    {"method": "rk4", "step": 0.1, "max_time": math.inf},
    {"method": "rk4", "step": 0.1, "max_time": True},
    {"method": "rk4", "step": math.nan},
    {"method": "rk4", "step": "0.1"},
    {"method": "stormer_verlet", "step": True},
    {"method": "stormer_verlet", "step": -math.inf},
])
def test_config_rejects_non_finite_and_boolean_values(kwargs):
    with pytest.raises(ConfigError):
        IntegratorConfig(**kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("method, step", [
    ("stormer_verlet", 0.01), ("rk4", 0.01), ("dop853", (1e-10, 1e-12))])
def test_integrate_rejects_a_non_finite_initial_state(method, step, bad):
    field, z0, _ = circular_two_body()
    z0[5] = bad
    evaluated = []
    field.grad_v = evaluated.append
    with pytest.raises(ConfigError, match="finite"):
        integrate(field, z0, IntegratorConfig(method, step, max_time=0.1))
    assert evaluated == []


@pytest.mark.parametrize("method, step", [
    ("stormer_verlet", 0.01), ("rk4", 0.01), ("dop853", (1e-10, 1e-12))])
def test_integrate_rejects_a_state_of_the_wrong_length(method, step):
    # Refused before the first step: inside it a 6-entry state meets numpy
    # broadcast errors, on the oscillator and under Verlet on two bodies.
    cfg = IntegratorConfig(method, step, max_time=0.1)
    two_body, _, _ = circular_two_body()
    fields = [SeparableOscillator(), two_body]
    if method != "stormer_verlet":
        fields += [oscillator_field(), linear1d_field()]
    for field in fields:
        with pytest.raises(CombinabilityError,
                           match=f"dim {field.dim} integrated from a state "
                                 f"of 6 entries"):
            integrate(field, np.linspace(0.1, 0.6, 6), cfg)


def test_the_separable_oscillator_refuses_a_state_of_the_wrong_length():
    # Both read z[0] and z[1] only, so a longer state would give numbers.
    osc = SeparableOscillator()
    for size in (1, 3, 6):
        z = np.linspace(0.1, 0.6, size)
        for method in (osc, osc.energy):
            with pytest.raises(CombinabilityError,
                               match=f"dim 2 evaluated at a state of {size}"):
                method(z)
    np.testing.assert_array_equal(osc([0.3, 0.4]), [0.4, -0.3])
    assert osc.energy([0.3, 0.4]) == 0.5 * (0.3 ** 2 + 0.4 ** 2)


def test_pair_plan_is_built_once_per_system_over_an_rk4_run(monkeypatch):
    _, z0, _ = circular_two_body()
    built = []
    init = mech._PairPlan.__init__

    def counting_init(self, system):
        built.append(system)
        init(self, system)

    monkeypatch.setattr(mech._PairPlan, "__init__", counting_init)
    system = BodySystem(2, 2, (1.0, 1.0), NewtonianPotential())
    traj = integrate(build_hamiltonian_field(system), z0,
                     IntegratorConfig("rk4", 0.01, max_time=1.0))
    assert traj.times.size == 101 and traj.status == "completed"
    assert len(built) == 1 and built[0] is system


def test_fixed_step_lands_exactly_on_max_time():
    # the README's fixed steps do not sum to 10.0 in floats: time k is k * h
    field = SeparableOscillator()
    for method, step, max_time in (("stormer_verlet", 0.3, 1.0),
                                   ("rk4", 0.1, 10.0),
                                   ("stormer_verlet", 0.01, 10.0)):
        traj = integrate(field, [1.0, 0.0],
                         IntegratorConfig(method, step, max_time=max_time))
        assert traj.t_final == max_time, (method, step)
        assert traj.status == "completed"
        full = np.arange(traj.times.size - 1) * step
        assert traj.times[:-1].tobytes() == full.tobytes(), (method, step)


@pytest.mark.parametrize("method, step, closing, drift", [
    ("rk4", 0.01, 1e-7, 1e-9), ("stormer_verlet", 1e-3, 1e-4, 1e-11)])
def test_fixed_step_integrators_close_the_circular_orbit(method, step, closing,
                                                         drift):
    field, z0, period = circular_two_body()
    traj = integrate(field, z0, IntegratorConfig(method, step, max_time=period))
    assert traj.status == "completed" and traj.t_final == period
    assert np.linalg.norm(traj.final_state - z0) < closing
    assert traj.energy_drift < drift


@pytest.mark.parametrize("method", ["rk4", "stormer_verlet"])
def test_fixed_step_head_on_collision_halts(method):
    # from rest at separation 1e-5 the bodies meet at t ~ 2.4e-8, and steps
    # of 1e-10 resolve the fall to below MIN_SEPARATION
    system = BodySystem(2, 2, (1.0, 1.0), NewtonianPotential())
    z0 = PhaseState(np.array([[-5e-6, 0.0], [5e-6, 0.0]]),
                    np.zeros((2, 2))).flat()
    traj = integrate(build_hamiltonian_field(system), z0,
                     IntegratorConfig(method, 1e-10, max_time=1e-7))
    assert traj.status == "singular"
    assert traj.t_final < 1e-7
    assert traj.min_sep[-1] < 1e-5


@pytest.mark.parametrize("method", ["rk4", "stormer_verlet"])
def test_fixed_step_collision_inside_a_step_halts(method):
    # From rest at +-0.5 the bodies meet at t = pi/4 ~ 0.785, between two
    # steps of 0.01 whose end states stay 0.063 (rk4) and 6.6e-4 (Verlet)
    # apart; the closest approach inside the step stops the run there, as
    # dop853's collision event does.
    system = BodySystem(2, 2, (1.0, 1.0), NewtonianPotential())
    z0 = PhaseState(np.array([[-0.5, 0.0], [0.5, 0.0]]), np.zeros((2, 2))).flat()
    traj = integrate(build_hamiltonian_field(system), z0,
                     IntegratorConfig(method, 0.01, max_time=10.0))
    assert traj.status == "singular"
    assert 0.7 < traj.t_final < 0.785
    assert traj.min_sep.min() > MIN_SEPARATION


@pytest.mark.parametrize("cfg", [
    IntegratorConfig("rk4", 0.01, max_time=3.05),
    IntegratorConfig("stormer_verlet", 0.01, max_time=3.05),
    IntegratorConfig("dop853", max_time=3.05)], ids=lambda c: c.method)
def test_head_on_collision_at_speed_halts_under_every_method(cfg):
    # Bodies of masses 1 and 1.3 closing at 0.6 meet at t ~ 0.554.  rk4's
    # end states bounce through the collision and stay 0.056 apart, but the
    # segment along the start velocity of the step that straddles it
    # passes through 0, so the run stops there, as the other methods do.
    system = BodySystem(2, 2, (1.0, 1.3), NewtonianPotential())
    z0 = PhaseState(np.array([[-0.5, 0.0], [0.5, 0.0]]),
                    np.array([[0.3, 0.0], [-0.3, 0.0]])).flat()
    traj = integrate(build_hamiltonian_field(system), z0, cfg)
    assert traj.status == "singular"
    assert 0.5 < traj.t_final <= 0.56


def test_a_singularity_inside_an_rk4_stage_halts_the_run():
    # dz/dt = -1 from z = 1 in steps of 0.1: the step from z = 0.5 takes its
    # second stage at 0.45, where the field raises, so the run keeps the
    # six states up to t = 0.5 and ends "singular" instead of raising.
    def field(z):
        if z[0] < 0.47:
            raise SingularityError("field evaluated past its singular set")
        return np.array([-1.0])

    traj = integrate(field, [1.0], IntegratorConfig("rk4", 0.1, max_time=1.0))
    assert traj.status == "singular"
    assert traj.t_final == 0.5 and traj.times.size == 6
    ref = integrate(lambda z: np.array([-1.0]), [1.0],
                    IntegratorConfig("rk4", 0.1, max_time=0.5))
    assert ref.status == "completed"
    assert traj.states.tobytes() == ref.states.tobytes()


# -- accuracy on the harmonic oscillator ----------------------------------------------


def test_verlet_one_period():
    field = SeparableOscillator()
    z0 = np.array([1.0, 0.0])
    traj = integrate(field, z0,
                     IntegratorConfig("stormer_verlet", 1e-3, max_time=TWO_PI))
    assert np.linalg.norm(traj.final_state - z0) < 1e-5
    assert traj.energy_drift < 1e-6


def test_verlet_is_second_order():
    field = SeparableOscillator()
    z0 = np.array([1.0, 0.0])
    errs = []
    for h in (2e-3, 1e-3):
        traj = integrate(field, z0,
                         IntegratorConfig("stormer_verlet", h, max_time=TWO_PI))
        errs.append(np.linalg.norm(traj.final_state - z0))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_verlet_long_run_energy_stays_bounded():
    field = SeparableOscillator()
    traj = integrate(field, [1.0, 0.0],
                     IntegratorConfig("stormer_verlet", 1e-3,
                                      max_time=10 * TWO_PI))
    assert traj.energy_drift < 1e-6


def test_rk4_one_period():
    field = SeparableOscillator()
    z0 = np.array([1.0, 0.0])
    traj = integrate(field, z0,
                     IntegratorConfig("rk4", 1e-2, max_time=TWO_PI))
    assert np.linalg.norm(traj.final_state - z0) < 1e-8


def test_dop853_one_period():
    field = SeparableOscillator()
    z0 = np.array([1.0, 0.0])
    traj = integrate(field, z0,
                     IntegratorConfig("dop853", (1e-12, 1e-12), max_time=TWO_PI))
    assert traj.status == "completed"
    assert np.linalg.norm(traj.final_state - z0) < 1e-9


# -- time reversal ---------------------------------------------------------------------


def test_reverse_check_oscillator():
    field = SeparableOscillator()
    err = reverse_check(field, [1.0, 0.0],
                        IntegratorConfig("stormer_verlet", 1e-3, max_time=10.0))
    assert err < 1e-9  # symplectic reversal cancels to roundoff


def test_reverse_check_zero_field_is_exact():
    class Still:
        def __call__(self, z):
            return np.zeros_like(np.asarray(z, float))

    err = reverse_check(Still(), [0.3, -0.7],
                        IntegratorConfig("rk4", 0.1, max_time=1.0))
    assert err == 0.0


def test_reverse_check_two_body():
    field, z0, period = circular_two_body()
    err = reverse_check(field, z0,
                        IntegratorConfig("dop853", (1e-12, 1e-13),
                                         max_time=period))
    assert err < 1e-7


# -- N-body monitors and halting -------------------------------------------------------


def test_circular_orbit_conservation():
    field, z0, period = circular_two_body()
    traj = integrate(field, z0,
                     IntegratorConfig("dop853", (1e-12, 1e-13), max_time=period))
    assert np.linalg.norm(traj.final_state - z0) < 1e-6
    rel_inertia = np.max(np.abs(traj.inertia - traj.inertia[0])) / traj.inertia[0]
    assert rel_inertia < 1e-8
    lmax = np.max(np.abs(traj.angular_momentum - traj.angular_momentum[0]))
    assert lmax < 1e-10 * max(1.0, abs(traj.angular_momentum[0]))
    assert traj.energy_drift < 1e-10


def test_monitors_equal_the_scalar_mech_functions_row_by_row():
    bump = PolynomialObservable.from_coeffs(6, 2, {
        (2, 0, 0, 0, 0, 0): 0.05, (1, 0, 0, 1, 0, 0): -0.03,
        (0, 0, 0, 0, 1, 1): 0.02, (0, 1, 0, 0, 0, 0): 0.01})
    system = BodySystem(3, 2, (1.0, 2.0, 0.5),
                        PerturbedPotential(NewtonianPotential(), bump),
                        com_fixed=False)
    z0 = PhaseState(np.array([[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]]),
                    np.array([[0.0, 0.4], [-0.3, -0.2], [0.3, -0.2]])).flat()
    traj = integrate(build_hamiltonian_field(system), z0,
                     IntegratorConfig("rk4", 0.01, max_time=0.5))
    assert traj.status == "completed"
    for row, z in enumerate(traj.states):
        state = PhaseState.from_flat(system, z)
        assert traj.energy[row] == hamiltonian(system, state)
        assert traj.inertia[row] == moment_of_inertia(system, state.q)
        assert traj.angular_momentum[row] == angular_momentum(system, state)
        assert traj.min_sep[row] == min(pair_distances(system, state.q))


def test_head_on_collision_halts():
    system = BodySystem(2, 2, (1.0, 1.0), NewtonianPotential())
    field = build_hamiltonian_field(system)
    z0 = PhaseState(np.array([[-0.5, 0.0], [0.5, 0.0]]),
                    np.zeros((2, 2))).flat()
    traj = integrate(field, z0,
                     IntegratorConfig("dop853", (1e-10, 1e-12), max_time=10.0))
    assert traj.status == "singular"
    assert traj.t_final < 10.0
    assert traj.min_sep[-1] < 1e-3


def test_initial_collision_rejected():
    system = BodySystem(2, 2, (1.0, 1.0), NewtonianPotential())
    field = build_hamiltonian_field(system)
    z0 = np.array([0.0, 0.0, MIN_SEPARATION / 10, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(SingularityError):
        integrate(field, z0, IntegratorConfig("rk4", 0.01, max_time=1.0))


def test_monitor_arrays_align_and_plain_fields_get_nan():
    field = SeparableOscillator()
    traj = integrate(field, [1.0, 0.0],
                     IntegratorConfig("rk4", 0.1, max_time=1.0))
    n = traj.times.size
    assert traj.states.shape == (n, 2)
    assert traj.energy.shape == (n,)
    # the oscillator exposes energy but is not an N-body system
    np.testing.assert_allclose(traj.energy, 0.5, atol=1e-6)
    assert np.all(np.isnan(traj.angular_momentum))
    assert np.all(np.isnan(traj.inertia))
    assert np.all(np.isnan(traj.min_sep))


# -- dense output and serialization ----------------------------------------------------


def test_interpolation_matches_analytic_solution():
    field = SeparableOscillator()
    traj = integrate(field, [1.0, 0.0],
                     IntegratorConfig("rk4", 0.05, max_time=2.0))
    for t in (0.0, 0.333, 1.2345, 2.0):
        z = traj.interpolate(t)
        np.testing.assert_allclose(z, [math.cos(t), -math.sin(t)], atol=1e-5)
    node = traj.times[7]
    np.testing.assert_array_equal(traj.interpolate(node), traj.states[7])
    with pytest.raises(ValueError):
        traj.interpolate(2.5)


def test_csv_output(tmp_path):
    field, z0, period = circular_two_body()
    traj = integrate(field, z0,
                     IntegratorConfig("rk4", period / 64, max_time=period))
    path = tmp_path / "orbit.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,q0,q1,q2,q3,p0,p1,p2,p3,"
                        "energy,ang_mom,inertia,min_sep")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (traj.times.size, 1 + 8 + 4)
    np.testing.assert_allclose(data[:, 0], traj.times)
    np.testing.assert_allclose(data[-1, 1:9], traj.final_state)


def test_trajectory_json_summary():
    field = SeparableOscillator()
    traj = integrate(field, [1.0, 0.0],
                     IntegratorConfig("rk4", 0.1, max_time=1.0))
    d = traj.to_json_dict()
    assert d["status"] == "completed"
    assert d["t_final"] == pytest.approx(1.0)
    assert d["n_samples"] == traj.times.size


# -- derivative probes ------------------------------------------------------------------


def test_probe_matches_trig_derivatives():
    field = SeparableOscillator()
    traj = integrate(field, [1.0, 0.0],
                     IntegratorConfig("dop853", (1e-12, 1e-13), max_time=1.2))
    t0 = 0.6
    pr = derivative_probe(lambda z: z[0], traj, t0, 3)
    exact = [-math.sin(t0), -math.cos(t0), math.sin(t0)]
    np.testing.assert_allclose(pr.values, exact, atol=1e-5)
    assert pr.f_value == pytest.approx(math.cos(t0), abs=1e-10)
    assert pr.value(2) == pytest.approx(-math.cos(t0), abs=1e-5)


def test_probe_conserved_energy_gives_zero():
    field = SeparableOscillator()
    traj = integrate(field, [1.0, 0.0],
                     IntegratorConfig("dop853", (1e-12, 1e-13), max_time=1.2))
    pr = derivative_probe(field.energy, traj, 0.6, 3)
    np.testing.assert_allclose(pr.values, 0.0, atol=1e-6)


def test_probe_exponential_growth():
    # x' = x from x0=1, F = x^2: d^k/dt^k F = 2^k exp(2 t).
    field = linear1d_field()
    traj = integrate(field, [1.0],
                     IntegratorConfig("dop853", (1e-13, 1e-13), max_time=1.0))
    t0 = 0.5
    pr = derivative_probe(lambda z: z[0] ** 2, traj, t0, 3)
    exact = [2.0 ** k * math.exp(2 * t0) for k in (1, 2, 3)]
    np.testing.assert_allclose(pr.values, exact, rtol=1e-4)


def test_probe_error_estimates_cover_actuals():
    field = SeparableOscillator()
    traj = integrate(field, [1.0, 0.0],
                     IntegratorConfig("dop853", (1e-12, 1e-13), max_time=1.2))
    t0 = 0.6
    pr = derivative_probe(lambda z: z[0], traj, t0, 4)
    exact = np.array([-math.sin(t0), -math.cos(t0), math.sin(t0), math.cos(t0)])
    actual = np.abs(pr.values - exact)
    assert np.all(actual <= 50 * pr.errors + 1e-12)


def test_probe_window_must_fit():
    field = SeparableOscillator()
    traj = integrate(field, [1.0, 0.0],
                     IntegratorConfig("dop853", (1e-12, 1e-13), max_time=0.5))
    with pytest.raises(InsufficientSamplesError):
        derivative_probe(lambda z: z[0], traj, 0.02, 4)
    with pytest.raises(ValueError):
        derivative_probe(lambda z: z[0], traj, 0.25, 0)


# -- figure-eight choreography -----------------------------------------------------------


def test_figure8_refined_orbit_closes():
    system, z0, period = figure8_initial_conditions(refine=True)
    assert system.n_bodies == 3
    assert period == pytest.approx(6.32591398, abs=1e-4)
    field = build_hamiltonian_field(system)
    traj = integrate(field, z0,
                     IntegratorConfig("dop853", (1e-12, 1e-13), max_time=period))
    assert traj.status == "completed"
    assert np.linalg.norm(traj.final_state - z0) < 1e-9


def test_figure8_one_third_defect_is_below_tol():
    system, z0, period = figure8_initial_conditions(refine=True)
    field = build_hamiltonian_field(system)
    sol = solve_ivp(lambda t, y: field(y), (0.0, period / 3.0), z0,
                    method="DOP853", rtol=1e-13, atol=1e-13)
    # body k is where body (2, 0, 1)[k] started
    relabelled = np.concatenate([
        z0[:6].reshape(3, 2)[[2, 0, 1]].ravel(),
        z0[6:].reshape(3, 2)[[2, 0, 1]].ravel()])
    assert np.max(np.abs(sol.y[:, -1] - relabelled)) < 1e-11


def test_figure8_refined_orbit_stays_the_full_period_one():
    # (vx, vy, T) of the refinement that shot the whole period
    _, z0, period = figure8_initial_conditions(refine=True)
    got = np.array([z0[10], z0[11], period])
    want = np.array([-0.9324073681390841, -0.8647314618351997,
                     6.325914009781271])
    assert np.max(np.abs(got - want)) < 1e-11


def test_figure8_refinement_makes_few_field_calls(monkeypatch):
    calls = []
    call = mech.HamiltonianField.__call__
    monkeypatch.setattr(mech.HamiltonianField, "__call__",
                        lambda self, z: calls.append(1) or call(self, z))
    figure8_initial_conditions(refine=True)
    # each shoot covers a third of the period: 10 090 calls over full ones
    assert 0 < len(calls) <= 4000


@pytest.mark.parametrize("kwargs", [
    {"max_iter": 0}, {"max_iter": 2.5}, {"max_iter": True},
    {"max_iter": -1}, {"tol": math.nan}, {"tol": 0.0}, {"tol": -1e-11},
    {"tol": True}, {"tol": "1e-11"},
], ids=repr)
def test_figure8_refinement_arguments_are_config_errors(kwargs):
    with pytest.raises(ConfigError):
        figure8_initial_conditions(refine=True, **kwargs)


def test_figure8_refinement_that_does_not_converge_raises():
    with pytest.raises(NoConvergenceError) as err:
        figure8_initial_conditions(refine=True, tol=1e-30, max_iter=2)
    assert 1e-30 <= err.value.residual < 1e-9


def test_figure8_unrefined_state_is_close():
    system, z0, period = figure8_initial_conditions(refine=False)
    assert figure8_system().to_json_dict() == system.to_json_dict()
    # the published digits alone close the orbit to ~1e-7
    field = build_hamiltonian_field(system)
    traj = integrate(field, z0,
                     IntegratorConfig("dop853", (1e-12, 1e-13), max_time=period))
    assert np.linalg.norm(traj.final_state - z0) < 1e-6
