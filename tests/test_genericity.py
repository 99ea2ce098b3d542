"""Perturbation, sampling, scan-report, and trajectory-classification tests."""

import functools
import json
import math

import numpy as np
import pytest

from saarilab import genericity, lie_tower, mech
from saarilab.errors import ConfigError, InsufficientSamplesError, SingularityError
from saarilab.fields import (
    PolynomialObservable,
    SeparableOscillator,
    SumField,
    SumObservable,
    coordinate_observable,
    field_coeffs,
    observable_coeffs,
    oscillator_energy,
    oscillator_field,
    random_polynomial_field,
    stream_rng,
)
from saarilab.flow import IntegratorConfig, integrate
from saarilab.genericity import (
    ExperimentReport,
    PerturbationSpec,
    Sampler,
    ScanReport,
    _TAG_SAMPLE,
    classify_trajectory,
    genericity_experiment,
    obstruction_scan,
    perturb,
)
from saarilab.jet_algebra import _space, table_size
from saarilab.lie_tower import obstruction_at
from saarilab.mech import (
    BodySystem,
    EnergyObservable,
    HamiltonianField,
    NewtonianPotential,
    PhaseState,
    PowerLawPotential,
    build_hamiltonian_field,
    energy_observable,
    inertia_observable,
    potential_value,
    releq_lagrange,
    releq_newton,
    releq_trajectory,
)

from oracles import (
    draw_per_sample,
    energy_jet_by_jets,
    field_jet_by_jets,
    jet_add,
    obstruction_per_sample,
    obstruction_scan_per_sample,
    potential_jet_by_jets,
    rows_inside,
    shift_by_triples,
)


def two_body():
    return BodySystem(2, 2, (1.0, 1.0), NewtonianPotential())


# -- perturbation specs and bumps -----------------------------------------------------


def test_spec_validation():
    with pytest.raises(ConfigError):
        PerturbationSpec(target="metric", degree=2, epsilon=0.1, seed=0)
    with pytest.raises(ConfigError):
        PerturbationSpec(target="observable", degree=0, epsilon=0.1, seed=0)
    with pytest.raises(ConfigError):
        PerturbationSpec(target="observable", degree=2, epsilon=-0.1, seed=0)
    d = PerturbationSpec(target="potential", degree=3, epsilon=0.01,
                         seed=9).to_json_dict()
    assert d == {"target": "potential", "degree": 3, "epsilon": 0.01, "seed": 9}


def test_zero_amplitude_is_identity():
    spec = PerturbationSpec(target="observable", degree=3, epsilon=0.0, seed=1)
    base = oscillator_energy()
    assert perturb(spec, base) is base


def test_observable_bump_is_additive_and_reproducible():
    spec = PerturbationSpec(target="observable", degree=3, epsilon=1e-2, seed=42)
    base = oscillator_energy()
    out1 = perturb(spec, base, trial=0)
    out2 = perturb(spec, base, trial=0)
    z = np.array([0.3, -0.8])
    assert out1(z) == out2(z)
    assert out1(z) == pytest.approx(base(z) + out1.bump(z), rel=1e-14)
    np.testing.assert_array_equal(out1.bump.coeffs, out2.bump.coeffs)
    # a different trial draws a different bump
    out3 = perturb(spec, base, trial=1)
    assert np.any(out3.bump.coeffs != out1.bump.coeffs)
    # the bump's magnitude scales with epsilon
    big = perturb(PerturbationSpec("observable", 3, 1e-1, 42), base, trial=0)
    np.testing.assert_allclose(big.bump.coeffs, 10 * out1.bump.coeffs,
                               rtol=1e-12)


def test_field_bump_is_componentwise_additive():
    spec = PerturbationSpec(target="vector_field", degree=2, epsilon=1e-2, seed=5)
    base = oscillator_field()
    out = perturb(spec, base, trial=0)
    z = np.array([0.5, 0.25])
    np.testing.assert_allclose(out(z), base(z) + out.bump(z), rtol=1e-14)
    # the two components receive independent draws
    assert np.any(out.bump.components[0].coeffs != out.bump.components[1].coeffs)


def test_field_bump_keeps_nbody_identity():
    system = two_body()
    field = build_hamiltonian_field(system)
    spec = PerturbationSpec(target="vector_field", degree=2, epsilon=1e-3, seed=3)
    out = perturb(spec, field, trial=0)
    assert out.system is system  # collision rejection still knows the bodies


def test_potential_bump_adds_configuration_polynomial():
    system = two_body()
    spec = PerturbationSpec(target="potential", degree=3, epsilon=1e-2, seed=7)
    bumped = perturb(spec, system, trial=0)
    assert bumped is not system
    q = np.array([[-0.4, 0.1], [0.6, -0.3]])
    base_v = potential_value(system, q)
    bump_v = potential_value(bumped, q)
    assert bump_v != base_v
    assert abs(bump_v - base_v) < 0.5  # epsilon-sized polynomial on a unit box
    # reproducible across construction
    again = perturb(spec, system, trial=0)
    assert potential_value(again, q) == bump_v
    with pytest.raises(ConfigError):
        perturb(spec, oscillator_field(), trial=0)


def test_bumps_are_pinned_to_their_streams():
    # seeded reports depend on these exact draws: stream (seed, 7, trial, k),
    # k = 0 observable, 1 field components in order, 2 potential, in table order
    seed, trial, degree, eps = 42, 2, 3, 1e-2

    def draws(k, dim, count=1):
        rng = stream_rng(seed, 7, trial, k)
        return [rng.normal(size=table_size(dim, degree)) * eps
                for _ in range(count)]

    obs = perturb(PerturbationSpec("observable", degree, eps, seed),
                  oscillator_energy(), trial=trial)
    np.testing.assert_array_equal(obs.bump.coeffs, draws(0, 2)[0])
    field = perturb(PerturbationSpec("vector_field", degree, eps, seed),
                    oscillator_field(), trial=trial)
    for comp, want in zip(field.bump.components, draws(1, 2, count=2),
                          strict=True):
        np.testing.assert_array_equal(comp.coeffs, want)
    system = perturb(PerturbationSpec("potential", degree, eps, seed),
                     two_body(), trial=trial)
    np.testing.assert_array_equal(system.potential.bump.coeffs, draws(2, 4)[0])


# -- phase-space sampling --------------------------------------------------------------


def test_sampler_validation():
    with pytest.raises(ConfigError):
        Sampler(box=(1.0, -1.0), count=5, seed=0)
    with pytest.raises(ConfigError):
        Sampler(box=(-1.0, 1.0), count=0, seed=0)


@pytest.mark.parametrize("field, value", [
    ("count", 2.5), ("count", True), ("count", "3"),
    ("box", (-1.0, math.nan)), ("box", (-math.inf, 1.0)), ("box", ("a", 1.0)),
    ("box", (False, 1.0)), ("box", (-1.0, 10 ** 400)),
    ("min_separation", math.nan), ("min_separation", -0.1),
    ("min_separation", math.inf), ("min_separation", "x"),
    ("seed", 2.5), ("seed", True), ("seed", "x"), ("seed", -1),
])
def test_sampler_rejects_non_integer_and_non_finite_values(field, value):
    args = dict(box=(-1.0, 1.0), count=5, seed=0, min_separation=0.1)
    args[field] = value
    with pytest.raises(ConfigError, match=field):
        Sampler(**args)


@pytest.mark.parametrize("field, value", [
    ("degree", 2.5), ("degree", True), ("epsilon", math.nan),
    ("epsilon", math.inf), ("epsilon", "x"), ("epsilon", True),
    ("seed", 2.5), ("seed", True), ("seed", "x"), ("seed", -1),
])
def test_spec_rejects_non_integer_and_non_finite_values(field, value):
    args = dict(target="observable", degree=2, epsilon=0.1, seed=0)
    args[field] = value
    with pytest.raises(ConfigError, match=field):
        PerturbationSpec(**args)


@pytest.mark.parametrize("name", ["tol_zero", "tol_eq", "tol_crit"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-6,
                                   True, "1e-6", None])
def test_scan_and_experiment_reject_bad_tolerances(name, value):
    # Checked before any sample is drawn: NaN would make every comparison
    # false, and the oscillator's conserved energy would read as nonzero.
    sampler = Sampler((0.5, 1.5), 5, 3)
    with pytest.raises(ConfigError, match=name):
        obstruction_scan(oscillator_field(), oscillator_energy(), sampler,
                         **{name: value})
    with pytest.raises(ConfigError, match=name):
        genericity_experiment(oscillator_field(), oscillator_energy(),
                              PerturbationSpec("observable", 2, 0.1, 0), 2,
                              sampler, **{name: value})


def test_integral_tolerances_read_as_their_floats():
    field, F, sampler = oscillator_field(), oscillator_energy(), Sampler(
        (0.5, 1.5), 5, 3)
    a = obstruction_scan(field, F, sampler, tol_zero=1, tol_eq=1e-9)
    b = obstruction_scan(field, F, sampler, tol_zero=1.0, tol_eq=1e-9)
    assert a.to_json_dict() == b.to_json_dict() and type(a.tol_zero) is float


def test_integral_numbers_are_stored_as_floats():
    sampler = Sampler(box=(-1, 2), count=np.int64(4), seed=0, min_separation=0)
    assert sampler == Sampler(box=(-1.0, 2.0), count=4, seed=0,
                              min_separation=0.0)
    assert type(sampler.box[0]) is float and type(sampler.min_separation) is float
    spec = PerturbationSpec("observable", degree=2, epsilon=1, seed=0)
    assert type(spec.epsilon) is float


def test_sampler_is_deterministic_and_order_free():
    s = Sampler(box=(-1.0, 1.0), count=10, seed=13)
    a = s.draw(4, 6)
    b = s.draw(4, 6)
    np.testing.assert_array_equal(a, b)
    assert np.all((a >= -1.0) & (a <= 1.0))
    # distinct indices give distinct draws
    assert np.any(s.draw(5, 6) != a)


def test_sampler_projects_com_and_rejects_collisions():
    system = two_body()
    s = Sampler(box=(-1.5, 1.5), count=20, seed=2, min_separation=0.3)
    for idx in range(20):
        z = s.draw(idx, system.phase_dim, system)
        state = PhaseState.from_flat(system, z)
        np.testing.assert_allclose(system.masses @ state.q, 0.0, atol=1e-12)
        np.testing.assert_allclose(state.p.sum(axis=0), 0.0, atol=1e-12)
        assert np.linalg.norm(state.q[0] - state.q[1]) >= 0.3


def _draw_by_pair_loop(sampler, index, system):
    """Reference rejection sampler: an explicit loop over the body pairs.

    Returns the draw (None where every attempt is rejected) and the number
    of rejected attempts.
    """
    lo, hi = sampler.box
    nc = system.coord_dim
    shape = (system.n_bodies, system.space_dim)
    for attempt in range(sampler.max_attempts):
        rng = stream_rng(sampler.seed, _TAG_SAMPLE, index, attempt)
        z = rng.uniform(lo, hi, system.phase_dim)
        q, p = z[:nc].reshape(shape), z[nc:].reshape(shape)
        if system.com_fixed:
            q = q - system.masses @ q / system.total_mass
            p = p - p.sum(axis=0) / system.n_bodies
        if not any(np.linalg.norm(q[i] - q[j]) < sampler.min_separation
                   for i, j in system.pairs()):
            return np.concatenate([q.ravel(), p.ravel()]), attempt
    return None, sampler.max_attempts


@pytest.mark.parametrize("system", [
    two_body(),
    BodySystem(3, 2, (1.0, 2.0, 0.5), NewtonianPotential()),
    BodySystem(3, 3, (1.0, 1.0, 1.0), NewtonianPotential(), com_fixed=False),
], ids=["2body", "3body-masses", "3body-3d-free"])
def test_sampler_draws_match_the_pair_loop(system):
    rejected = 0
    for min_sep in (0.5, 1.0, 1.5):
        s = Sampler(box=(-1.5, 1.5), count=40, seed=17,
                    min_separation=min_sep, max_attempts=20)
        for idx in range(s.count):
            want, n_rejected = _draw_by_pair_loop(s, idx, system)
            rejected += n_rejected
            if want is None:
                with pytest.raises(InsufficientSamplesError):
                    s.draw(idx, system.phase_dim, system)
            else:
                np.testing.assert_array_equal(
                    s.draw(idx, system.phase_dim, system), want)
    assert rejected > 0


def test_sampler_gives_up_when_separation_is_impossible():
    system = two_body()
    s = Sampler(box=(-0.1, 0.1), count=1, seed=0, min_separation=5.0,
                max_attempts=10)
    with pytest.raises(InsufficientSamplesError):
        s.draw(0, system.phase_dim, system)


def _draw_systems():
    """N = 2, 3, 4 bodies in d = 2, 3 with unequal masses, and one system
    without the centre-of-mass frame."""
    masses = (1.0, 1.3, 0.7, 2.1)
    systems = [BodySystem(n, d, masses[:n], NewtonianPotential())
               for n in (2, 3, 4) for d in (2, 3)]
    return systems + [BodySystem(3, 2, masses[:3], NewtonianPotential(),
                                 com_fixed=False)]


@pytest.mark.parametrize("system", _draw_systems(), ids=lambda s: (
    f"{s.n_bodies}body-{s.space_dim}d" + ("" if s.com_fixed else "-free")))
def test_group_draws_equal_the_per_sample_oracle(system):
    # One call draws the whole group; each sample keeps its own stream, and
    # at a separation of 0.6 many are rejected and drawn again.
    s = Sampler(box=(-1.0, 1.0), count=30, seed=23, min_separation=0.6)
    dim = system.phase_dim
    want = [draw_per_sample(s, k, dim, system) for k in range(s.count)]
    got = s.draw_group(range(s.count), dim, system)
    assert got.shape == (s.count, dim)
    for k in range(s.count):
        assert got[k].tobytes() == want[k].tobytes(), k
        assert s.draw(k, dim, system).tobytes() == want[k].tobytes(), k
    # any subset, in any order, gives the same rows
    assert (s.draw_group([7, 3, 29], dim, system).tobytes()
            == np.array([want[7], want[3], want[29]]).tobytes())
    assert sum(_draw_by_pair_loop(s, k, system)[1] for k in range(s.count)) > 0
    plain = s.draw_group(range(s.count), 5)
    assert plain.tobytes() == np.array(
        [draw_per_sample(s, k, 5) for k in range(s.count)]).tobytes()


def test_a_group_draw_that_runs_out_names_the_lowest_failing_sample():
    system = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    s = Sampler(box=(-1.5, 1.5), count=40, seed=5, min_separation=1.0,
                max_attempts=2)
    failing = []
    for k in range(s.count):
        try:
            draw_per_sample(s, k, system.phase_dim, system)
        except InsufficientSamplesError:
            failing.append(k)
    assert 0 < failing[0] and len(failing) > 1
    message = f"sample {failing[0]}: no collision-free draw in 2 attempts"
    for indices in (range(s.count), list(range(s.count))[::-1]):
        with pytest.raises(InsufficientSamplesError, match=message):
            s.draw_group(indices, system.phase_dim, system)
    with pytest.raises(InsufficientSamplesError, match=message):
        obstruction_scan(system, inertia_observable(system), s, m=3)


# -- obstruction scans -------------------------------------------------------------------


def test_scan_conserved_observable_all_zero():
    rep = obstruction_scan(oscillator_field(), oscillator_energy(),
                           Sampler(box=(0.5, 1.5), count=100, seed=0))
    assert rep.n_obstruction_zero == rep.n_nonexcluded == 100
    assert rep.zero_fraction == 1.0
    assert rep.tower_order == 3


def test_scan_generic_observable_all_nonzero():
    # F = q along the oscillator: the first tower entry is p >= 0.5 on the box
    rep = obstruction_scan(oscillator_field(), coordinate_observable(2, 0),
                           Sampler(box=(0.5, 1.5), count=100, seed=0))
    assert rep.n_obstruction_zero == 0
    assert rep.n_obstruction_nonzero == 100
    assert rep.min_nonexcluded_norm >= 0.5
    assert rep.zero_fraction == 0.0


def test_scan_report_partition_is_enforced():
    with pytest.raises(ValueError):
        ScanReport(n_samples=10, n_excluded_equilibrium=1,
                   n_excluded_F_critical=1, n_excluded_singular=0,
                   n_obstruction_zero=3, n_obstruction_nonzero=4,
                   min_nonexcluded_norm=0.1, tol_zero=1e-6, tol_eq=1e-9,
                   tol_crit=1e-9, seed=0, tower_order=3)


def test_scan_report_serialization_is_byte_deterministic():
    sampler = Sampler(box=(0.5, 1.5), count=40, seed=8)
    a = obstruction_scan(oscillator_field(), oscillator_energy(), sampler)
    b = obstruction_scan(oscillator_field(), oscillator_energy(), sampler)
    ja = json.dumps(a.to_json_dict(), indent=2, sort_keys=True)
    jb = json.dumps(b.to_json_dict(), indent=2, sort_keys=True)
    assert ja == jb
    assert json.loads(ja)["n_samples"] == 40
    # all samples landed in the zero class, which still records a norm of ~0
    assert a.min_nonexcluded_norm == pytest.approx(0.0, abs=1e-13)


def test_scan_two_body_inertia_nonzero_off_the_special_orbit():
    system = two_body()
    from saarilab.mech import inertia_observable

    rep = obstruction_scan(system, inertia_observable(system),
                           Sampler(box=(-1.5, 1.5), count=25, seed=4,
                                   min_separation=0.3), m=5)
    assert rep.n_obstruction_nonzero == rep.n_nonexcluded
    assert rep.min_nonexcluded_norm > 1e-3


class _NoDim:
    """A handle's call and jet methods without its ``dim``."""

    def __init__(self, handle):
        self.handle = handle

    def __call__(self, z):
        return self.handle(z)

    def jet(self, z, degree):
        return self.handle.jet(z, degree)

    def jet_field(self, z, degree):
        return self.handle.jet_field(z, degree)


def test_scan_takes_the_dimension_from_the_observable():
    # A field with jets but no dim: the observable's dim is used, and with
    # neither handle carrying one the scan names what is missing.
    X = _NoDim(oscillator_field())
    sampler = Sampler(box=(0.5, 1.5), count=5, seed=3)
    rep = obstruction_scan(X, oscillator_energy(), sampler, m=3)
    assert rep.n_obstruction_zero == 5
    with pytest.raises(ConfigError, match="phase dimension.*dim"):
        obstruction_scan(X, _NoDim(oscillator_energy()), sampler, m=3)


def test_a_scan_of_a_handle_without_jets_draws_no_sample(monkeypatch):
    # A plain callable is refused by the jet methods it lacks before any
    # sample is drawn or the field is evaluated.
    def refuse(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(Sampler, "draw_group", refuse)
    sampler = Sampler(box=(0.5, 1.5), count=5, seed=3)
    with pytest.raises(ConfigError, match="neither field_coeffs nor jet_field"):
        obstruction_scan(lambda z: refuse(), oscillator_energy(), sampler, m=3)
    with pytest.raises(ConfigError, match="neither jet_coeffs nor jet"):
        obstruction_scan(oscillator_field(), lambda z: z[0] ** 2, sampler, m=3)


class _CollidesRight:
    """The two-body field, reporting a collision wherever q_0 > 0.3."""

    def __init__(self, system):
        self.field = build_hamiltonian_field(system)
        self.system, self.dim = system, self.field.dim

    def __call__(self, z):
        if z[0] > 0.3:
            raise SingularityError("reported collision")
        return self.field(z)

    def jet_field(self, z, degree):
        return self.field.jet_field(z, degree)


def _scan_cases():
    """name -> (X, F, sampler, keywords, what the report must show).  At
    two-body m = 5 a group is 25 samples, at three-body m = 5 three, at
    three-body m = 7 one."""
    two = BodySystem(2, 2, (1.0, 1.3), NewtonianPotential())
    three = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    bumped = perturb(PerturbationSpec("potential", 3, 1e-2, 5), two)

    def sampler(count, seed=8, min_separation=0.3):
        return Sampler(box=(-1.5, 1.5), count=count, seed=seed,
                       min_separation=min_separation)

    def nonzero(rep):
        return rep.n_obstruction_nonzero > 0

    return {
        "two-body inertia, one sample": (
            two, inertia_observable(two), sampler(1), {}, nonzero),
        "two-body inertia, one past a group": (
            two, inertia_observable(two), sampler(26), {}, nonzero),
        "two-body energy, one past a group": (
            two, energy_observable(two), sampler(26), {},
            lambda rep: rep.n_obstruction_zero > 0),
        "three-body inertia, m = 7": (
            three, inertia_observable(three), sampler(2), {"m": 7}, nonzero),
        "three-body energy, m = 5": (
            three, energy_observable(three), sampler(4), {"m": 5},
            lambda rep: rep.n_obstruction_zero > 0),
        "two-body inertia, separation 0.6, one past a group": (
            two, inertia_observable(two), sampler(26, 10, 0.6), {}, nonzero),
        "three-body inertia, separation 0.6, m = 4": (
            three, inertia_observable(three), sampler(7, 10, 0.6), {"m": 4},
            nonzero),
        "two-body energy under a potential bump, one past a group": (
            bumped, energy_observable(bumped), sampler(26), {},
            lambda rep: rep.n_obstruction_zero > 0),
        "oscillator": (
            oscillator_field(), PolynomialObservable.from_coeffs(
                2, 3, {(3, 0): 1.0, (0, 1): 0.5}), Sampler((-1.0, 1.0), 30, 4),
            {}, nonzero),
        "separable oscillator": (
            SeparableOscillator(), PolynomialObservable.from_coeffs(
                2, 3, {(3, 0): 1.0, (0, 1): 0.5}), Sampler((-1.0, 1.0), 30, 4),
            {"m": 4}, nonzero),
        "singular samples": (
            _CollidesRight(two), inertia_observable(two), sampler(26, seed=9),
            {}, lambda rep: 0 < rep.n_excluded_singular < 26),
        "equilibria by a wide tolerance": (
            oscillator_field(), coordinate_observable(2, 0),
            Sampler((-1.0, 1.0), 30, 6), {"tol_eq": 0.5},
            lambda rep: 0 < rep.n_excluded_equilibrium < 30),
        "F-critical points by a wide tolerance": (
            oscillator_field(), oscillator_energy(),
            Sampler((-1.0, 1.0), 30, 6), {"tol_crit": 0.5},
            lambda rep: 0 < rep.n_excluded_F_critical < 30),
    }


@pytest.mark.parametrize("name", list(_scan_cases()))
def test_grouped_scans_equal_the_per_sample_loop(name):
    # One stacked tower chain per group of samples, against one
    # obstruction_at per sample: the same report, byte for byte.
    X, F, sampler, keywords, shows = _scan_cases()[name]
    got = obstruction_scan(X, F, sampler, **keywords)
    want = obstruction_scan_per_sample(X, F, sampler, **keywords)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert shows(got), got


def test_scans_drawn_in_several_blocks_equal_the_per_sample_loop(monkeypatch):
    # With 100 coordinates per chunk the oscillator scan at m = 3 runs
    # groups of 5 and draws blocks of 50: three draws for 123 samples, the
    # last one short, and a group that ends the scan short too.
    monkeypatch.setattr(genericity, "_CHUNK_ELEMENTS", 100)
    blocks = []
    draw_group = Sampler.draw_group

    def counted(self, indices, dim, system=None):
        blocks.append((indices[0], len(indices)))
        return draw_group(self, indices, dim, system)

    monkeypatch.setattr(Sampler, "draw_group", counted)
    F = PolynomialObservable.from_coeffs(2, 3, {(3, 0): 1.0, (0, 1): 0.5})
    sampler = Sampler(box=(-1.0, 1.0), count=123, seed=4)
    got = obstruction_scan(oscillator_field(), F, sampler, tol_eq=0.3)
    assert blocks == [(0, 50), (50, 50), (100, 23)]
    want = obstruction_scan_per_sample(oscillator_field(), F, sampler,
                                       tol_eq=0.3)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert 0 < got.n_excluded_equilibrium < got.n_obstruction_nonzero


def _oracle_observable(F, z, degree):
    """A handle's jet at z by the per-point oracles: the whole-table shift
    of each polynomial and the jet-by-jet energy, summed jet by jet."""
    if isinstance(F, SumObservable):
        jets = [_oracle_observable(p, z, degree) for p in F.parts]
        return functools.reduce(jet_add, jets)
    if isinstance(F, EnergyObservable):
        return energy_jet_by_jets(F, z, degree)
    return shift_by_triples(F.poly, z, degree)


def _oracle_field(X, z, degree):
    """A field's component jets at z by the per-point oracles."""
    if isinstance(X, SumField):
        parts = [_oracle_field(p, z, degree) for p in X.parts]
        return [functools.reduce(jet_add, comps) for comps in zip(*parts)]
    if isinstance(X, HamiltonianField):
        return list(field_jet_by_jets(X, z, degree).components)
    if isinstance(X, SeparableOscillator):
        return _oracle_field(X._poly, z, degree)
    return [shift_by_triples(c.poly, z, degree) for c in X.components]


def _stack_cases():
    """name -> (field, observable, system or None, points, m).  A scan
    groups 25 samples at two-body m = 5 and 3 at three-body m = 5;
    three-body m = 7 runs one point on plain arrays."""
    two = BodySystem(2, 2, (1.0, 1.3), NewtonianPotential())
    three = BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential())
    bumped = perturb(PerturbationSpec("potential", 3, 1e-2, 5), two, trial=1)
    power = BodySystem(3, 2, (1.0, 1.3, 0.7),
                       PowerLawPotential(((1.0, -1.0), (0.05, -3.0))))
    bumped3 = perturb(PerturbationSpec("potential", 2, 1e-2, 19), power)
    # nine configuration coordinates: numpy sums eight or more pairwise
    spatial = BodySystem(3, 3, (1.0, 1.3, 0.7), NewtonianPotential())
    field = build_hamiltonian_field(two)

    def points(system, count, seed=8, dim=None):
        sampler = Sampler(box=(-1.5, 1.5), count=count, seed=seed,
                          min_separation=0.3)
        return [sampler.draw(k, dim or system.phase_dim,
                             None if dim else system) for k in range(count)]

    return {
        "two-body inertia, m = 5": (
            field, inertia_observable(two), two, points(two, 25), 5),
        "two-body energy, m = 5": (
            field, energy_observable(two), two, points(two, 25), 5),
        "observable bump": (
            field, perturb(PerturbationSpec("observable", 3, 1e-2, 5),
                           inertia_observable(two), trial=1),
            two, points(two, 25), 5),
        "vector-field bump": (
            perturb(PerturbationSpec("vector_field", 3, 1e-2, 5), field),
            inertia_observable(two), two, points(two, 25), 5),
        "potential bump, energy": (
            build_hamiltonian_field(bumped), energy_observable(bumped),
            bumped, points(bumped, 25), 5),
        "three-body energy, m = 5": (
            build_hamiltonian_field(three), energy_observable(three), three,
            points(three, 3), 5),
        "three-body power law and bump, energy, m = 4": (
            build_hamiltonian_field(bumped3), energy_observable(bumped3),
            bumped3, points(bumped3, 7), 4),
        "spatial three-body energy, m = 3": (
            build_hamiltonian_field(spatial), energy_observable(spatial),
            spatial, points(spatial, 9), 3),
        "three-body inertia, m = 7": (
            build_hamiltonian_field(three), inertia_observable(three), three,
            points(three, 1), 7),
        "oscillator": (
            oscillator_field(), oscillator_energy(), None,
            points(None, 9, dim=2), 3),
        "separable oscillator, a cubic": (
            SeparableOscillator(), PolynomialObservable.from_coeffs(
                2, 3, {(3, 0): 1.0, (0, 1): 0.5}), None,
            points(None, 9, dim=2), 5),
    }


@pytest.mark.parametrize("name", list(_stack_cases()))
def test_group_stacks_equal_the_per_point_oracles(name):
    # Each column of a group's stacks must be bitwise the per-point
    # oracle's jet, and so must the one-point jets; a partial group (the
    # first two points) too.  Bytes are compared, so -0 against +0 fails.
    # A field component with a mask is compared on the mask's table, and
    # the oracle must vanish off it.
    X, F, system, points, m = _stack_cases()[name]
    sp = _space(len(points[0]), m - 1)
    for group in (points, points[:2]):
        zs = group[0] if len(group) == 1 else np.stack(group, axis=1)
        g = observable_coeffs(F, zs, m)
        comps = field_coeffs(X, zs, m - 1)
        assert g.shape[1:] == comps[0][1].shape[1:] == zs.shape[1:]
        for s, z in enumerate(group):
            column = (lambda a: a) if zs.ndim == 1 else (lambda a: a[:, s])
            want = _oracle_observable(F, z, m)
            assert column(g).tobytes() == want.coeffs.tobytes(), s
            assert F.jet(z, m).coeffs.tobytes() == want.coeffs.tobytes(), s
            oracle = [c.coeffs for c in _oracle_field(X, z, m - 1)]
            want_x = [c.tobytes() for c in oracle]
            for (mask, c), w in zip(comps, oracle, strict=True):
                rows = np.arange(sp.size) if mask is None else rows_inside(sp, mask)
                assert column(c).tobytes() == w[rows].tobytes(), (s, mask)
                assert not np.delete(w, rows).any(), (s, mask)
            assert [c.coeffs.tobytes()
                    for c in X.jet_field(z, m - 1).components] == want_x, s
            if system is not None:
                nc = system.coord_dim
                want_v = potential_jet_by_jets(system, z[:nc], m).coeffs
                got_v = mech._potential(system, zs[:nc], m)
                assert column(got_v).tobytes() == want_v.tobytes(), s


class _Polynomial8:
    """A dense random polynomial field in eight variables: regular where
    the two-body energy observable is singular."""

    def __init__(self):
        self.field = random_polynomial_field(8, 2, stream_rng(3, 1), 0.1)
        self.dim = 8

    def __call__(self, z):
        return self.field(z)

    def jet_field(self, z, degree):
        return self.field.jet_field(z, degree)


@pytest.mark.parametrize("field", ["hamiltonian", "polynomial"])
def test_a_group_with_a_singular_sample_equals_the_per_point_towers(field):
    # Sample 2 is a collision.  The Hamiltonian field fails there first,
    # before any stack is built; the polynomial field does not, so the
    # energy's stack fails and the group runs one point at a time.  Either
    # way the other samples keep their bits and sample 2 is singular.
    system = BodySystem(2, 2, (1.0, 1.3), NewtonianPotential())
    X = build_hamiltonian_field(system) if field == "hamiltonian" else _Polynomial8()
    F = energy_observable(system)
    sampler = Sampler(box=(-1.5, 1.5), count=6, seed=8, min_separation=0.3)
    points = [sampler.draw(k, 8, system) for k in range(sampler.count)]
    points[2] = points[2].copy()
    points[2][2:4] = points[2][0:2]  # both bodies at one place
    values, near_eq, near_crit, singular = lie_tower._obstructions(
        F, X, points, 5, 1e-9, 1e-9)
    assert list(singular) == [2]
    assert isinstance(singular[2], SingularityError)
    for k, z in enumerate(points):
        if k == 2:
            with pytest.raises(SingularityError):
                obstruction_at(F, X, z, 5)
            continue
        want = obstruction_per_sample(F, X, z, 5)
        assert values[:, k].tobytes() == want.psi.values.tobytes(), k
        assert near_eq[k] == want.is_near_equilibrium
        assert near_crit[k] == want.is_near_F_critical
        assert obstruction_at(F, X, z, 5).to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("target", ["observable", "vector_field", "potential"])
def test_grouped_experiments_equal_the_per_sample_loop(monkeypatch, target):
    system = BodySystem(2, 2, (1.0, 1.3), NewtonianPotential())
    base = system if target == "potential" else build_hamiltonian_field(system)
    F = inertia_observable(system)
    spec = PerturbationSpec(target, 3, 1e-2, 5)
    if target == "vector_field":
        # The bumped field sums the Hamiltonian field's compact components
        # and the bump's whole tables: expanded, summed, compacted again.
        bumped = perturb(spec, base, trial=0)
        assert isinstance(bumped, SumField)
        assert isinstance(bumped.parts[0], HamiltonianField)
    sampler = Sampler(box=(-1.5, 1.5), count=26, seed=8, min_separation=0.3)
    got = genericity_experiment(base, F, spec, 2, sampler)
    monkeypatch.setattr(genericity, "obstruction_scan", obstruction_scan_per_sample)
    want = genericity_experiment(base, F, spec, 2, sampler)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert got.n_nonexcluded_total == 52


# -- perturbation experiments --------------------------------------------------------------


def test_experiment_conserved_baseline_then_broken_by_bump():
    base = oscillator_field()
    F = oscillator_energy()
    sampler = Sampler(box=(0.5, 1.5), count=50, seed=21)
    null_spec = PerturbationSpec("observable", degree=3, epsilon=0.0, seed=1)
    rep0 = genericity_experiment(base, F, null_spec, trials=2, sampler=sampler)
    assert rep0.pooled_zero_fraction == 1.0
    spec = PerturbationSpec("observable", degree=3, epsilon=1e-2, seed=1)
    rep1 = genericity_experiment(base, F, spec, trials=2, sampler=sampler)
    assert rep1.pooled_zero_fraction == 0.0
    assert rep1.n_nonexcluded_total == 100
    assert "empirical" in rep1.note
    assert isinstance(rep1, ExperimentReport)
    d = rep1.to_json_dict()
    assert len(d["trials"]) == 2
    assert d["perturbation"]["epsilon"] == 1e-2


def test_experiment_potential_target():
    system = two_body()
    F = energy_observable(system)
    spec = PerturbationSpec("potential", degree=3, epsilon=1e-2, seed=2)
    sampler = Sampler(box=(-1.5, 1.5), count=25, seed=5, min_separation=0.3)
    rep = genericity_experiment(system, F, spec, trials=2, sampler=sampler, m=3)
    # F is the *unperturbed* energy, no longer conserved by the bumped flow
    assert rep.pooled_zero_fraction == 0.0


def test_experiment_rejects_zero_trials():
    with pytest.raises(ConfigError):
        genericity_experiment(oscillator_field(), oscillator_energy(),
                              PerturbationSpec("observable", 2, 0.1, 0),
                              trials=0, sampler=Sampler((-1, 1), 5, 0))
    with pytest.raises(ConfigError, match="trials"):
        genericity_experiment(oscillator_field(), oscillator_energy(),
                              PerturbationSpec("observable", 2, 0.1, 0),
                              trials=2.5, sampler=Sampler((-1, 1), 5, 0))


# -- trajectory classification ----------------------------------------------------------


def _integrated(system, z0, t_final, tol=(1e-12, 1e-13)):
    field = build_hamiltonian_field(system)
    return integrate(field, z0, IntegratorConfig("dop853", tol, t_final))


def test_classify_relative_equilibrium():
    sol = releq_lagrange(BodySystem(3, 2, (1.0, 1.0, 1.0), NewtonianPotential()))
    z0 = releq_trajectory(sol, 0.0).flat()
    traj = _integrated(sol.system, z0, 2.0)
    cls = classify_trajectory(traj)
    assert cls.verdict == "RelativeEquilibrium"
    assert cls.inertia_rel_variation < 1e-9
    assert cls.shape_variation < 1e-9


def test_classify_elliptic_orbit_as_nonconstant():
    system = two_body()
    sol = releq_newton(system, np.array([[-0.5, 0.0], [0.5, 0.0]]))
    state = releq_trajectory(sol, 0.0)
    z0 = np.concatenate([state.q.ravel(), 1.1 * state.p.ravel()])  # eccentric
    traj = _integrated(system, z0, 4.0)
    cls = classify_trajectory(traj)
    assert cls.verdict == "NonConstantF"
    assert cls.inertia_rel_variation > 100 * cls.energy_drift


def test_classify_equilibrium_of_balanced_potential():
    system = BodySystem(2, 2, (1.0, 1.0),
                        PowerLawPotential(((1.0, -1.0), (0.25, 2.0))))
    r = 2.0 ** (1.0 / 3.0)
    z0 = PhaseState(np.array([[-r / 2, 0.0], [r / 2, 0.0]]),
                    np.zeros((2, 2))).flat()
    # fixed steps: the adaptive integrator crosses a resting state in a few
    # strides, too few samples to classify
    traj = integrate(build_hamiltonian_field(system), z0,
                     IntegratorConfig("rk4", 0.05, 1.0))
    cls = classify_trajectory(traj)
    assert cls.verdict == "Equilibrium"


def test_classify_requires_system_and_samples():
    osc = integrate(SeparableOscillator(), [1.0, 0.0],
                    IntegratorConfig("rk4", 0.1, 1.0))
    with pytest.raises(ConfigError):
        classify_trajectory(osc)
    system = two_body()
    sol = releq_newton(system, np.array([[-0.5, 0.0], [0.5, 0.0]]))
    z0 = releq_trajectory(sol, 0.0).flat()
    short = integrate(build_hamiltonian_field(system), z0,
                      IntegratorConfig("rk4", 0.05, 0.2))
    assert short.times.size < 10
    with pytest.raises(InsufficientSamplesError):
        classify_trajectory(short)


def test_classification_serializes():
    sol = releq_lagrange(BodySystem(3, 2, (1.0, 1.0, 1.0), NewtonianPotential()))
    z0 = releq_trajectory(sol, 0.0).flat()
    traj = _integrated(sol.system, z0, 1.0)
    d = classify_trajectory(traj).to_json_dict()
    assert d["verdict"] == "RelativeEquilibrium"
    assert set(d["tolerances"]) == {"tol_inertia", "tol_shape", "margin"}
