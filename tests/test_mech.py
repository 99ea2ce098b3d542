"""N-body mechanics tests: potentials, observables, relative equilibria."""

import math

import numpy as np
import pytest

from saarilab.errors import (
    CombinabilityError, ConfigError, NoConvergenceError, SingularityError)
from saarilab.fields import (
    PolynomialObservable,
    random_polynomial_field,
    random_polynomial_observable,
    stream_rng,
)
from saarilab.genericity import PerturbationSpec, Sampler, obstruction_scan, perturb
from saarilab.jet_algebra import (
    TruncatedJet,
    _space,
    embed_jet,
    jet_eval,
    shift_base,
)
from saarilab.lie_tower import obstruction_at, psi_tower
from saarilab.mech import (
    BodySystem,
    EnergyObservable,
    HamiltonianField,
    NewtonianPotential,
    PerturbedPotential,
    PhaseState,
    PowerLawPotential,
    RelEqSolution,
    angular_momentum,
    build_hamiltonian_field,
    energy_observable,
    find_equilibria,
    grad_potential,
    hamiltonian,
    inertia_observable,
    kinetic_energy,
    moment_of_inertia,
    pair_distances,
    potential_config_jet,
    potential_from_json,
    potential_value,
    releq_euler,
    releq_lagrange,
    releq_newton,
    releq_trajectory,
)
from saarilab import mech

from oracles import (
    energy_jet_by_jets,
    field_jet_by_jets,
    grad_potential_by_pairs,
    hamiltonian_field_by_concat,
    jet_add,
    jet_from_samples,
    jet_pad,
    jet_pow,
    jet_pow_full,
    jet_truncate,
    pair_r2_jet,
    potential_full_table,
    potential_jet_by_jets,
)


def two_body(potential=None, masses=(1.0, 1.0)):
    return BodySystem(2, 2, masses, potential or NewtonianPotential())


def three_body(masses=(1.0, 1.0, 1.0)):
    return BodySystem(3, 2, masses, NewtonianPotential())


# -- potentials and gradients --------------------------------------------------------


def test_pair_potential_values():
    q = np.array([[-1.0, 0.0], [1.0, 0.0]])
    assert potential_value(two_body(), q) == pytest.approx(-0.5)
    # unit equilateral triangle: three pairs at distance 1
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert potential_value(three_body(), tri) == pytest.approx(-3.0)


def test_gradient_closed_form_two_body():
    q = np.array([[-1.0, 0.0], [1.0, 0.0]])
    g = grad_potential(two_body(), q)
    # V = -1/r with r = 2: dV/dr = 1/4, pulling the bodies together.
    np.testing.assert_allclose(g, [-0.25, 0.0, 0.25, 0.0], atol=1e-15)


@pytest.mark.parametrize("potential", [
    NewtonianPotential(),
    PowerLawPotential(((1.0, -1.0), (0.5, -3.0))),
    PerturbedPotential(
        NewtonianPotential(),
        PolynomialObservable.from_coeffs(4, 3, {(1, 0, 2, 0): 0.05,
                                                (0, 1, 0, 0): -0.02}),
    ),
])
def test_gradient_matches_finite_differences(potential):
    system = BodySystem(2, 2, (1.0, 1.5), potential)
    rng = np.random.default_rng(5)
    q = rng.normal(size=4) * 2.0
    q[2:] += 3.0  # keep the bodies apart
    g = grad_potential(system, q)
    h = 1e-6
    for k in range(4):
        qp, qm = q.copy(), q.copy()
        qp[k] += h
        qm[k] -= h
        fd = (potential_value(system, qp) - potential_value(system, qm)) / (2 * h)
        assert g[k] == pytest.approx(fd, abs=1e-7)


def test_collision_raises():
    q = np.array([[0.0, 0.0], [1e-12, 0.0]])
    with pytest.raises(SingularityError):
        potential_value(two_body(), q)
    with pytest.raises(SingularityError):
        grad_potential(two_body(), q)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("space_dim", [1, 2, 3])
@pytest.mark.parametrize("n_bodies", [2, 3, 4])
def test_force_equals_the_pair_loop_oracle_byte_for_byte(n_bodies, space_dim,
                                                          perturbed):
    rng = np.random.default_rng(100 * n_bodies + 10 * space_dim + perturbed)
    nc = n_bodies * space_dim
    potential = PowerLawPotential(((1.0, -1.0), (0.3, -2.5)))
    if perturbed:
        potential = PerturbedPotential(
            potential, random_polynomial_observable(nc, 3, rng, 0.05))
    system = BodySystem(n_bodies, space_dim, rng.uniform(0.5, 2.0, n_bodies),
                        potential)
    for q in rng.normal(size=(50, nc)) * 2.0:
        got = grad_potential(system, q)
        assert got.tobytes() == grad_potential_by_pairs(system, q).tobytes()


@pytest.mark.parametrize("space_dim", [1, 2, 3])
def test_force_distances_are_pair_distances_bit_for_bit(monkeypatch,
                                                        space_dim):
    # The force takes one math.sqrt per pair; record what it returns.
    system = BodySystem(4, space_dim, (1.0, 1.3, 0.7, 2.0),
                        NewtonianPotential())
    qs = np.random.default_rng(14).normal(size=(200, system.coord_dim))
    sqrt, taken = math.sqrt, []
    monkeypatch.setattr(math, "sqrt",
                        lambda x: taken.append(sqrt(x)) or taken[-1])
    for q in qs:
        grad_potential(system, q)
    monkeypatch.undo()
    assert np.array(taken).tobytes() == pair_distances(system, qs).tobytes()


def test_force_reports_the_first_colliding_pair():
    system = BodySystem(4, 2, np.ones(4), NewtonianPotential())
    # pairs (0, 3) and (1, 2) collide; (0, 3) comes first in pair order
    q = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-12], [1e-12, 0.0]])
    for grad in (grad_potential, grad_potential_by_pairs):
        with pytest.raises(SingularityError) as err:
            grad(system, q)
        assert err.value.pair == (0, 3)
        assert str(err.value) == "bodies 0 and 3 are separated by 1.000e-12"


_FIELD_CASES = {
    "planar-2body": BodySystem(2, 2, (1.0, 1.0), NewtonianPotential()),
    "planar-3body": BodySystem(3, 2, (1.0, 1.3, 0.7), NewtonianPotential()),
    "spatial-2body": BodySystem(2, 3, (1.0, 2.0), NewtonianPotential()),
    # V = -1/r + 0.3/r^2 at unit masses
    "power-law": BodySystem(2, 2, (1.0, 1.0),
                            PowerLawPotential(((1.0, -1.0), (-0.3, -2.0)))),
    "bump": BodySystem(3, 2, (1.0, 1.3, 0.7), PerturbedPotential(
        NewtonianPotential(),
        PolynomialObservable.from_coeffs(6, 3, {(1, 0, 0, 2, 0, 0): 0.05,
                                                (0, 1, 0, 0, 0, 0): -0.02,
                                                (0, 0, 0, 0, 1, 1): 0.03}))),
}


@pytest.mark.parametrize("case", sorted(_FIELD_CASES))
def test_field_equals_the_concatenated_oracle_byte_for_byte(case):
    system = _FIELD_CASES[case]
    field, nc = HamiltonianField(system), system.coord_dim
    rng = np.random.default_rng(sorted(_FIELD_CASES).index(case))
    states = rng.normal(size=(100, system.phase_dim)) * 2.0
    # bodies on the first axis and signed zero momenta: forces off that
    # axis and velocities are signed zeros, which must keep their signs
    states[0] = 0.0
    states[0, :nc:system.space_dim] = np.arange(system.n_bodies)
    states[0, nc + 1::2] = -0.0
    for z in states:
        want = hamiltonian_field_by_concat(field, z)
        assert field(z).tobytes() == want.tobytes()
        assert (-grad_potential(system, z[:nc])).tobytes() == want[nc:].tobytes()


def test_field_reports_the_colliding_pair_of_the_oracle():
    system = BodySystem(4, 2, np.ones(4), NewtonianPotential())
    field = HamiltonianField(system)
    # pairs (0, 3) and (1, 2) collide; (0, 3) comes first in pair order
    z = np.concatenate([[0.0, 0.0, 1.0, 0.0, 1.0, 1e-12, 1e-12, 0.0],
                        np.ones(8)])
    errors = []
    for call in (field, lambda z: hamiltonian_field_by_concat(field, z)):
        with pytest.raises(SingularityError) as err:
            call(z)
        errors.append((err.value.pair, str(err.value)))
    assert errors[0] == errors[1] == (
        (0, 3), "bodies 0 and 3 are separated by 1.000e-12")


def test_a_state_of_the_wrong_length_is_refused():
    # The field once read a state's first coord_dim entries as q and the
    # rest as p: a two-body field gave 7 numbers at a 7-entry state.
    field = build_hamiltonian_field(BodySystem(2, 2, (1.0, 1.3),
                                               NewtonianPotential()))
    for size in (7, 9, 16):
        with pytest.raises(CombinabilityError,
                           match=f"dim 8 evaluated at a state of {size} entries"):
            field(np.linspace(-0.9, 0.8, size))
    assert field(np.linspace(-0.9, 0.8, 8)).shape == (8,)
    # A last axis of space_dim entries is not one body: read so, these
    # calls would give -0.188, -1.441, -0.06, 0.1875 and a distance.
    equal = BodySystem(2, 2, (1.0, 1.0), NewtonianPotential())
    heavy = BodySystem(2, 2, (1.0, 2.0), NewtonianPotential())
    calls = [
        (lambda: energy_observable(equal)(np.linspace(-0.9, 0.8, 6)),
         "phase states of dim 8 read from shape \\(6,\\)"),
        (lambda: hamiltonian(heavy, np.linspace(-0.9, 0.8, 6)),
         "phase states of dim 8 read from shape \\(6,\\)"),
        (lambda: angular_momentum(heavy, np.linspace(0.1, 0.6, 6)),
         "phase states of dim 8 read from shape \\(6,\\)"),
        (lambda: kinetic_energy(heavy, [0.3, 0.4]),
         "2 bodies in 2-D read from shape \\(2,\\)"),
        (lambda: pair_distances(heavy, np.zeros((3, 2))),
         "2 bodies in 2-D read from shape \\(3, 2\\)"),
    ]
    for call, message in calls:
        with pytest.raises(CombinabilityError, match=message):
            call()


def test_potential_serialization_roundtrip():
    for pot in (NewtonianPotential(),
                PowerLawPotential(((2.0, -2.0), (1.0, 1.0))),
                PerturbedPotential(NewtonianPotential(),
                                   PolynomialObservable.from_coeffs(
                                       4, 2, {(2, 0, 0, 0): 0.1}))):
        back = potential_from_json(pot.to_json_dict())
        q = np.array([[0.0, 0.1], [1.3, -0.4]])
        system = two_body(pot)
        system2 = two_body(back)
        assert potential_value(system2, q) == pytest.approx(
            potential_value(system, q), rel=1e-15)
    with pytest.raises(ConfigError, match="variant"):
        potential_from_json({"variant": "yukawa"})
    with pytest.raises(ConfigError, match="terms"):
        potential_from_json({"variant": "newtonian", "terms": [[1, -2]]})


def test_system_serialization_roundtrip():
    system = BodySystem(3, 3, (1.0, 2.0, 0.5),
                        PowerLawPotential(((1.0, -1.0),)), com_fixed=False)
    back = BodySystem.from_json_dict(system.to_json_dict())
    assert back.n_bodies == 3 and back.space_dim == 3
    np.testing.assert_array_equal(back.masses, system.masses)
    assert not back.com_fixed


def test_equal_values_compare_equal():
    # Distinct but equal jets, polynomials and systems compare by value, to
    # a bool; a perturbed potential compares through its bump's jet.
    def system(masses=(1.0, 1.3), bump=None, com_fixed=True):
        bump = bump or {(2, 0, 0, 0): 0.1, (0, 1, 1, 0): -0.2}
        return BodySystem(2, 2, masses, PerturbedPotential(
            NewtonianPotential(), PolynomialObservable.from_coeffs(4, 2, bump)),
            com_fixed)

    a = system()
    assert (a == system()) is True and (a != system()) is False
    assert a == BodySystem.from_json_dict(a.to_json_dict())
    for other in (system(masses=(1.0, 1.4)), system(bump={(2, 0, 0, 0): 0.1}),
                  system(com_fixed=False), two_body(masses=(1.0, 1.3))):
        assert (a == other) is False
    jet = a.potential.bump.poly
    assert jet == TruncatedJet.from_json_dict(jet.to_json_dict())
    assert jet != shift_base(jet, np.full(4, 0.5)) and jet != jet_pad(jet, 3)
    # Inertia observables compare as their polynomials, and never equal a
    # plain one; the system's own handles find the chart by value.
    inertia = inertia_observable(a)
    assert inertia == inertia_observable(system())
    assert inertia != PolynomialObservable(inertia.poly)
    assert PolynomialObservable(inertia.poly) == PolynomialObservable(
        TruncatedJet.from_json_dict(inertia.to_json_dict()))
    plain = two_body(masses=(1.0, 1.3))
    assert mech._jacobi_tower(energy_observable(plain), build_hamiltonian_field(
        BodySystem.from_json_dict(plain.to_json_dict()))) is not None


def test_equal_values_hash_equal():
    # Equal jets, polynomials, inertias and systems hash equal, a -0.0
    # coefficient or base entry as its +0.0 (np.array_equal holds them
    # equal), so a system keys a dict.
    def bump(c):
        return PolynomialObservable.from_coeffs(4, 2, {(2, 0, 0, 0): 0.1,
                                                       (0, 1, 1, 0): c})

    plus, minus = bump(0.0), bump(-0.0)
    assert np.signbit(minus.coeffs).any() and plus == minus
    assert hash(plus) == hash(minus) and hash(plus.poly) == hash(minus.poly)
    at = TruncatedJet.constant(1.0, 2, 2, [-0.0, 1.0])
    assert at == TruncatedJet.constant(1.0, 2, 2, [0.0, 1.0])
    assert hash(at) == hash(TruncatedJet.constant(1.0, 2, 2, [0.0, 1.0]))
    a = BodySystem(2, 2, (1.0, 1.3), PerturbedPotential(NewtonianPotential(), plus))
    b = BodySystem(2, 2, np.array([1.0, 1.3]),
                   PerturbedPotential(NewtonianPotential(), minus))
    assert a == b and hash(a) == hash(b)
    assert hash(inertia_observable(a)) == hash(inertia_observable(b))
    plain = BodySystem(2, 2, (1.0, 1.3), NewtonianPotential())
    keyed = {a: "bumped", plain: "plain"}
    assert keyed[b] == "bumped"
    assert keyed[BodySystem.from_json_dict(plain.to_json_dict())] == "plain"


def test_system_validation():
    # a bad value is a configuration error, named, and never coerced
    for args, name in [((1, 2, (1.0,)), "n_bodies"),
                       ((2.0, 2, (1.0, 1.0)), "n_bodies"),
                       ((2, True, (1.0, 1.0)), "space_dim"),
                       ((2, 2, (1.0, -1.0)), "masses"),
                       ((2, 2, (1.0, 1.0, 1.0)), "masses"),
                       ((2, 2, (True, 1.0)), "masses"),
                       ((2, 2, ("1", 1.0)), "masses"),
                       ((2, 2, (math.nan, 1.0)), "masses")]:
        with pytest.raises(ConfigError, match=name):
            BodySystem(*args, NewtonianPotential())
    with pytest.raises(ConfigError, match="com_fixed"):
        BodySystem(2, 2, (1.0, 1.0), NewtonianPotential(), com_fixed="false")
    for terms in [(), ((True, -1.0),), ((1.0, "-1"),), ((1.0,),),
                  ((1.0, math.inf),)]:
        with pytest.raises(ConfigError, match="terms"):
            PowerLawPotential(terms)
    # more power-law terms than 2N-1 is legal but flagged
    terms = tuple((1.0, -float(k)) for k in range(1, 5))
    with pytest.warns(UserWarning):
        BodySystem(2, 2, (1.0, 1.0), PowerLawPotential(terms))


def test_phase_state_flat_roundtrip_and_validation():
    system = two_body()
    state = PhaseState(np.array([[-0.5, 0.0], [0.5, 0.0]]),
                       np.array([[0.0, -0.3], [0.0, 0.3]]))
    back = PhaseState.from_flat(system, state.flat())
    np.testing.assert_array_equal(back.q, state.q)
    np.testing.assert_array_equal(back.p, state.p)
    state.validate(system)
    with pytest.raises(ValueError):
        PhaseState(np.zeros((2, 2)), np.zeros(4))
    bad = PhaseState(np.array([[1.0, 0.0], [1.5, 0.0]]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        bad.validate(system)  # centre of mass off the origin


def test_energy_and_angular_momentum_values():
    system = BodySystem(2, 2, (1.0, 2.0), NewtonianPotential())
    state = PhaseState(np.array([[0.0, 0.0], [1.0, 0.0]]),
                       np.array([[0.0, 0.0], [0.0, 2.0]]))
    assert kinetic_energy(system, state.p) == pytest.approx(1.0)
    assert hamiltonian(system, state) == pytest.approx(1.0 - 2.0)
    assert angular_momentum(system, state) == pytest.approx(2.0)
    # same geometry embedded in 3-D: the norm of the vector invariant
    sys3 = BodySystem(2, 3, (1.0, 2.0), NewtonianPotential())
    st3 = PhaseState(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                     np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
    assert angular_momentum(sys3, st3) == pytest.approx(2.0)


def test_moment_of_inertia_about_com():
    system = two_body()
    q = np.array([[-0.5, 0.0], [0.5, 0.0]])
    assert moment_of_inertia(system, q) == pytest.approx(0.5)
    # translation invariance: I is measured about the centre of mass
    shifted = q + np.array([3.0, -1.0])
    assert moment_of_inertia(system, shifted) == pytest.approx(0.5)


# -- configuration jets and phase-space observables ----------------------------------


def test_config_jet_matches_value_and_gradient():
    system = BodySystem(3, 2, (1.0, 2.0, 0.7), NewtonianPotential())
    rng = np.random.default_rng(2)
    q = rng.normal(size=6) * 3.0
    jet = potential_config_jet(system, q, 4)
    assert jet.value == pytest.approx(potential_value(system, q), rel=1e-14)
    np.testing.assert_allclose(jet.gradient(), grad_potential(system, q),
                               rtol=1e-12, atol=1e-14)
    # degree-4 Taylor model tracks the true potential nearby
    dq = rng.normal(size=6) * 1e-2
    taylor = jet_eval(jet, q + dq)
    assert taylor == pytest.approx(potential_value(system, q + dq), abs=1e-9)


def test_config_jet_matches_sampled_jet():
    system = two_body(PowerLawPotential(((1.0, -1.0), (0.2, 1.0))))
    q = np.array([1.1, 0.2, -0.9, -0.4])
    exact = potential_config_jet(system, q, 3)
    sampled, _ = jet_from_samples(lambda w: potential_value(system, w), q, 3)
    np.testing.assert_allclose(sampled.coeffs, exact.coeffs, atol=1e-6)


def test_hamiltonian_field_consistency():
    system = BodySystem(2, 2, (1.0, 3.0), NewtonianPotential())
    field = build_hamiltonian_field(system)
    assert isinstance(field, HamiltonianField) and field.separable
    z = np.array([-0.6, 0.0, 0.2, 0.0, 0.1, -0.2, -0.1, 0.2])
    zdot = field(z)
    minv = 1.0 / system.mass_vector
    np.testing.assert_allclose(zdot[:4], z[4:] * minv)
    np.testing.assert_allclose(zdot[4:], -grad_potential(system, z[:4]))
    state = PhaseState.from_flat(system, z)
    assert field.energy(z) == pytest.approx(hamiltonian(system, state))
    xf = field.jet_field(z, 2)
    np.testing.assert_allclose(xf.values(), zdot, rtol=1e-12)


def test_inertia_observable_matches_direct_value():
    system = BodySystem(3, 2, (1.0, 2.0, 3.0), NewtonianPotential())
    rng = np.random.default_rng(9)
    q = rng.normal(size=(3, 2))
    p = rng.normal(size=(3, 2))
    p -= p.sum(axis=0) / 3  # centre-of-mass frame
    obs = inertia_observable(system)
    z = PhaseState(q, p).flat()
    assert obs(z) == pytest.approx(moment_of_inertia(system, q), rel=1e-12)
    # first time-derivative of I in the com frame is 2 sum q . p
    field = build_hamiltonian_field(system)
    psi = psi_tower(obs.jet(z, 1), field.jet_field(z, 0), 1)
    assert psi.values[0] == pytest.approx(2.0 * float(np.sum(q * p)), rel=1e-10)


def _pad_then_shift(obs, z, degree):
    """The route PolynomialObservable.jet took before: pad, shift, truncate."""
    padded = jet_pad(obs.poly, degree) if degree > obs.poly.degree else obs.poly
    out = shift_base(padded, np.asarray(z, float))
    return jet_truncate(out, degree) if degree < out.degree else out


def _observables_and_degrees():
    rng = np.random.default_rng(17)
    for system, degrees in ((two_body(masses=(1.0, 1.3)), (0, 1, 2, 3, 5, 7)),
                            (three_body(masses=(1.0, 1.3, 0.7)), (1, 2, 4, 6))):
        for _ in range(3):
            z = rng.uniform(-1.5, 1.5, system.phase_dim)
            yield inertia_observable(system), z, degrees
    bumped = perturb(PerturbationSpec("potential", 3, 1e-2, 5), two_body(),
                     trial=1)
    yield bumped.potential.bump, rng.uniform(-1.5, 1.5, 4), range(7)
    for dim in (1, 2, 3, 4):
        for own in (1, 2, 3, 4):
            srng = stream_rng(23, dim, own)
            z = srng.uniform(-1.0, 1.0, dim)
            degrees = range(own + 3)
            yield random_polynomial_observable(dim, own, srng), z, degrees
            for comp in random_polynomial_field(dim, own, srng).components:
                yield comp, z, degrees


def test_polynomial_jet_equals_the_pad_then_shift_route():
    # shifting at the polynomial's own degree must not move a bit of any jet:
    # degrees below, at and above the polynomial's own
    for obs, z, degrees in _observables_and_degrees():
        for degree in degrees:
            got = obs.jet(z, degree)
            want = _pad_then_shift(obs, z, degree)
            assert got.degree == want.degree == degree
            assert got.coeffs.tobytes() == want.coeffs.tobytes(), (obs.dim,
                                                                   degree)


def _unit(n, *at):
    e = [0] * n
    for v in at:
        e[v] += 1
    return tuple(e)


def _dict_r2_jet(system, q2d, i, j, degree):
    """The route the r^2 jet took before: a multi-index dict, from_coeffs."""
    nc, sd = system.coord_dim, system.space_dim
    d = q2d[i] - q2d[j]
    entries = {(0,) * nc: float(d @ d)}
    if degree >= 1:
        for c in range(sd):
            entries[_unit(nc, i * sd + c)] = 2.0 * d[c]
            entries[_unit(nc, j * sd + c)] = -2.0 * d[c]
    if degree >= 2:
        for c in range(sd):
            entries[_unit(nc, i * sd + c, i * sd + c)] = 1.0
            entries[_unit(nc, j * sd + c, j * sd + c)] = 1.0
            entries[_unit(nc, i * sd + c, j * sd + c)] = -2.0
    return TruncatedJet.from_coeffs(nc, degree, q2d.ravel(), entries)


def _dict_kinetic_jets(system, z, degree):
    """The momentum components of the field and the kinetic part of the
    energy jet as they were built before, through from_coeffs."""
    nc, nph = system.coord_dim, system.phase_dim
    minv = 1.0 / system.mass_vector
    comps = []
    for c in range(nc):
        entries = {(0,) * nph: z[nc + c] * minv[c]}
        if degree >= 1:
            entries[_unit(nph, nc + c)] = minv[c]
        comps.append(TruncatedJet.from_coeffs(nph, degree, z, entries))
    entries = {(0,) * nph: float(0.5 * np.sum(z[nc:] ** 2 * minv))}
    if degree >= 1:
        for c in range(nc):
            entries[_unit(nph, nc + c)] = z[nc + c] * minv[c]
    if degree >= 2:
        for c in range(nc):
            entries[_unit(nph, nc + c, nc + c)] = 0.5 * minv[c]
    return comps, TruncatedJet.from_coeffs(nph, degree, z, entries)


@pytest.mark.parametrize("degree", [7, 9])
def test_pair_r2_powers_equal_the_full_product_series(degree):
    # A planar 3-body pair's r^2 uses 4 of the 6 variables, a spatial
    # 2-body one all 6
    rng = np.random.default_rng(degree)
    for system in (three_body((1.0, 1.3, 0.7)),
                   BodySystem(2, 3, (0.8, 1.1), NewtonianPotential())):
        q2d = rng.uniform(-1.5, 1.5, (system.n_bodies, system.space_dim))
        for i, j in system.pairs():
            r2 = pair_r2_jet(system, q2d, i, j, degree)
            for exponent in (-0.5, -1.5, 1.0, 2.5):
                assert (jet_pow(r2, exponent).coeffs.tobytes()
                        == jet_pow_full(r2, exponent).coeffs.tobytes()), exponent


def test_sample_jets_equal_the_multi_index_route():
    # ranking the positions once per dimension must not move a bit
    rng = np.random.default_rng(29)
    for system in (two_body(masses=(1.0, 1.3)), three_body((1.0, 1.3, 0.7)),
                   BodySystem(2, 3, (0.8, 1.1), NewtonianPotential())):
        field, energy = HamiltonianField(system), EnergyObservable(system)
        nc = system.coord_dim
        for degree in (0, 1, 2, 5):
            z = rng.uniform(-1.5, 1.5, system.phase_dim)
            q2d = z[:nc].reshape(system.n_bodies, system.space_dim)
            for i, j in system.pairs():
                assert (pair_r2_jet(system, q2d, i, j, degree).coeffs.tobytes()
                        == _dict_r2_jet(system, q2d, i, j, degree).coeffs.tobytes())
            comps, kin = _dict_kinetic_jets(system, z, degree)
            got = field.jet_field(z, degree).components[:nc]
            assert [c.coeffs.tobytes() for c in got] == [
                c.coeffs.tobytes() for c in comps]
            want = jet_add(kin, embed_jet(potential_config_jet(
                system, z[:nc], degree), system.phase_dim, list(range(nc)), z))
            assert energy.jet(z, degree).coeffs.tobytes() == want.coeffs.tobytes()


def _jet_systems():
    planar3 = BodySystem(3, 2, (1.0, 1.3, 0.7),
                         PowerLawPotential(((1.0, -1.0), (0.05, -3.0))))
    return {
        "planar 2-body": two_body(masses=(1.0, 1.3)),
        "planar 3-body": three_body((1.0, 1.3, 0.7)),
        "spatial 2-body": BodySystem(2, 3, (0.8, 1.1), NewtonianPotential()),
        "power law": two_body(PowerLawPotential(((0.7, -1.5), (0.2, -3.0))),
                              masses=(1.0, 1.3)),
        "bump": perturb(PerturbationSpec("potential", 3, 1e-2, 17),
                        two_body(masses=(0.9, 1.2)), trial=1),
        "3-body power law and bump": perturb(
            PerturbationSpec("potential", 2, 1e-2, 19), planar3, trial=0),
    }


def _accuracy_systems():
    return dict(_jet_systems(), **{"planar 4-body": BodySystem(
        4, 2, (1.0, 1.3, 0.7, 0.9), NewtonianPotential())})


@pytest.mark.parametrize("name", list(_accuracy_systems()))
def test_potential_agrees_with_the_full_table_route(name):
    # The pair-coordinate route sums in another order than each pair's
    # series on the whole configuration table, so bits move; coefficients
    # stay within 1e-13 of the largest, at the theory's degrees too.
    system = _accuracy_systems()[name]
    sampler = Sampler(box=(-1.5, 1.5), count=7, seed=37, min_separation=0.3)
    nc = system.coord_dim
    for k, degree in enumerate((0, 1, 2, 5, 7, 9, 10)):
        q = sampler.draw(k, system.phase_dim, system)[:nc]
        got = potential_config_jet(system, q, degree).coeffs
        want = potential_full_table(system, q, degree).coeffs
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), degree


@pytest.mark.parametrize("name", list(_jet_systems()))
def test_field_jets_equal_the_jet_by_jet_route(name):
    # The library sums coefficient arrays into one jet per result; the
    # oracle makes a validated jet of every power, partial, embedding, scale
    # and sum.  Bytes are compared, so a -0 turned +0 fails too.
    system = _jet_systems()[name]
    field, energy = HamiltonianField(system), EnergyObservable(system)
    sampler = Sampler(box=(-1.5, 1.5), count=5, seed=23, min_separation=0.3)
    nc = system.coord_dim
    for k, degree in enumerate((0, 1, 2, 5, 7)):
        z = sampler.draw(k, system.phase_dim, system)
        got = potential_config_jet(system, z[:nc], degree)
        want = potential_jet_by_jets(system, z[:nc], degree)
        assert got.coeffs.tobytes() == want.coeffs.tobytes(), degree
        assert np.array_equal(got.base_point, want.base_point)
        got_x, want_x = field.jet_field(z, degree), field_jet_by_jets(field, z, degree)
        assert [c.coeffs.tobytes() for c in got_x.components] == [
            c.coeffs.tobytes() for c in want_x.components], degree
        assert (energy.jet(z, degree).coeffs.tobytes()
                == energy_jet_by_jets(energy, z, degree).coeffs.tobytes()), degree


def test_an_energy_sample_builds_its_potential_jet_once(monkeypatch):
    # The energy observable and the field both need the potential jet at the
    # sample's q and the tower order; the second asks for the jet the first
    # built, so one pair stack, holding every pair, is built per sample,
    # from the pair differences (pairs, space_dim, 1) on the Jacobi chart.
    system = three_body((1.0, 1.3, 0.7))
    field, energy = HamiltonianField(system), EnergyObservable(system)
    sampler = Sampler(box=(-1.5, 1.5), count=3, seed=31, min_separation=0.3)
    pair_series = mech._pair_series
    calls = []

    def counted(system, d, degree):
        out = pair_series(system, d, degree)
        calls.append((d.shape, out.shape[1:], degree))
        return out

    monkeypatch.setattr(mech, "_pair_series", counted)
    for k in range(sampler.count):
        calls.clear()
        obstruction_at(energy, field, sampler.draw(k, 12, system), m=4)
        assert calls == [((3, 2, 1), (3, 1), 4)]
    z = sampler.draw(0, 12, system)
    assert potential_config_jet(system, z[:6], 4).coeffs is potential_config_jet(
        system, z[:6].copy(), 4).coeffs
    # another system, degree or q is another jet
    other = three_body((1.0, 1.3, 0.7))
    assert potential_config_jet(other, z[:6], 4).coeffs is not potential_config_jet(
        system, z[:6], 4).coeffs
    assert potential_config_jet(system, z[:6], 3).degree == 3
    moved = z[:6].copy()
    moved[5] = np.nextafter(moved[5], 2.0)
    assert potential_config_jet(system, moved, 4).base_point[5] == moved[5]


def test_an_energy_group_builds_its_potential_stack_once(monkeypatch):
    # A scan builds a group's jets as stacks, the energy's and then the
    # field's, so the field finds the potential stack the energy built:
    # five samples in one group of 66 on the Jacobi chart's (8, 4) table
    # build one pair stack, every pair for all five, where one jet per
    # sample built five.
    system = three_body((1.0, 1.3, 0.7))
    sampler = Sampler(box=(-1.5, 1.5), count=5, seed=31, min_separation=0.3)
    pair_series = mech._pair_series
    widths = []

    def counted(system, d, degree):
        out = pair_series(system, d, degree)
        widths.append((d.shape, out.shape[1:]))
        return out

    monkeypatch.setattr(mech, "_pair_series", counted)
    rep = obstruction_scan(system, EnergyObservable(system), sampler, m=4)
    assert rep.n_samples == 5 and rep.n_excluded_singular == 0
    assert widths == [((3, 2, 5), (3, 5))]


def test_a_three_body_energy_sample_makes_no_configuration_products():
    # The potential's series run in each pair's relative coordinates, so
    # the configuration table of a planar 3-body energy sample at m = 7,
    # (4, 7) on the Jacobi chart, serves its layout, derivatives and
    # scatter only: no product there builds triples, full or restricted.
    # Nor does the Cartesian potential jet on its (6, 7) table.
    _space.cache_clear()
    system = three_body((1.0, 1.3, 0.7))
    z = Sampler(box=(-1.5, 1.5), count=1, seed=3,
                min_separation=0.3).draw(0, 12, system)
    obstruction_at(EnergyObservable(system), HamiltonianField(system), z, m=7)
    potential_config_jet(system, z[:6], 7)
    for sp in (_space(4, 7), _space(6, 7)):
        assert "triples" not in vars(sp) and sp._within == {}


def test_energy_observable_is_conserved_to_all_tower_orders():
    system = two_body()
    obs = energy_observable(system)
    assert isinstance(obs, EnergyObservable)
    field = build_hamiltonian_field(system)
    z = PhaseState(np.array([[-0.7, 0.1], [0.7, -0.1]]),
                   np.array([[0.0, -0.4], [0.0, 0.4]])).flat()
    assert obs(z) == pytest.approx(field.energy(z), rel=1e-14)
    np.testing.assert_allclose(
        obs.grad(z),
        jet_from_samples(obs, z, 1)[0].gradient(), atol=1e-7)
    psi = psi_tower(obs.jet(z, 3), field.jet_field(z, 2), 3)
    np.testing.assert_allclose(psi.values, 0.0, atol=1e-12)


# -- relative equilibria --------------------------------------------------------------


def test_lagrange_triangle():
    sol = releq_lagrange(three_body(), side=1.0)
    assert sol.omega_squared == pytest.approx(3.0, rel=1e-12)
    assert sol.inertia == pytest.approx(1.0, rel=1e-12)
    assert sol.residual < 1e-12
    com = three_body().masses @ sol.configuration
    np.testing.assert_allclose(com, 0.0, atol=1e-12)
    # all three pair distances equal the requested side
    q = sol.configuration
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert np.linalg.norm(q[i] - q[j]) == pytest.approx(1.0, rel=1e-12)


def test_lagrange_works_for_unequal_masses():
    system = three_body((1.0, 2.0, 3.0))
    sol = releq_lagrange(system, side=2.0)
    assert sol.omega_squared == pytest.approx(6.0 / 8.0, rel=1e-12)
    assert sol.residual < 1e-10


def test_euler_collinear_equal_masses():
    sol = releq_euler(three_body())
    assert sol.omega_squared == pytest.approx(1.25, rel=1e-12)
    np.testing.assert_allclose(np.sort(sol.configuration[:, 0]),
                               [-1.0, 0.0, 1.0], atol=1e-12)
    assert sol.residual < 1e-11


def test_euler_collinear_unequal_masses():
    sol = releq_euler(BodySystem(3, 2, (1.0, 2.0, 3.0), NewtonianPotential()))
    assert sol.omega_squared == pytest.approx(1.7482754236781723, rel=1e-9)
    assert sol.residual < 1e-11


def test_euler_argument_validation():
    # bad arguments are configuration errors; a wrong system is not
    with pytest.raises(ConfigError):
        releq_euler(three_body(), ordering=(0, 1, 1))
    with pytest.raises(ConfigError):
        releq_euler(three_body(), gap=-1.0)
    with pytest.raises(ValueError):
        releq_euler(two_body())


def test_newton_refines_two_body_circle():
    sol = releq_newton(two_body(), np.array([[-0.5, 0.0], [0.5, 0.0]]))
    assert sol.omega_squared == pytest.approx(2.0, rel=1e-10)
    assert sol.residual < 1e-12


@pytest.mark.parametrize("kwargs", [
    {"max_iter": 0}, {"max_iter": 2.5}, {"max_iter": True},
    {"tol": math.nan}, {"tol": 0.0}, {"tol": -1.0}, {"tol": True},
], ids=repr)
def test_newton_arguments_are_config_errors(kwargs):
    # as figure8_initial_conditions checks them; the exact two-body guess
    # would otherwise raise NoConvergenceError at residual 0 or a TypeError
    with pytest.raises(ConfigError):
        releq_newton(two_body(), np.array([[-0.5, 0.0], [0.5, 0.0]]),
                     **kwargs)


def test_newton_recovers_lagrange_from_rough_guess():
    exact = releq_lagrange(three_body())
    rng = np.random.default_rng(1)
    guess = exact.configuration + 0.02 * rng.normal(size=(3, 2))
    sol = releq_newton(three_body(), guess)
    assert sol.residual < 1e-12
    # scale is pinned to the guess, so compare the shape, not the size
    ratio = math.sqrt(sol.inertia / exact.inertia)
    d01 = np.linalg.norm(sol.configuration[0] - sol.configuration[1])
    d02 = np.linalg.norm(sol.configuration[0] - sol.configuration[2])
    assert d01 == pytest.approx(d02, rel=1e-9)
    assert d01 == pytest.approx(ratio, rel=1e-9)  # equilateral of side ~ratio


def test_releq_solution_validation():
    system = two_body()
    q = np.array([[-0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        RelEqSolution(system=system, configuration=q, omega=-1.0,
                      inertia=0.5, residual=0.0)
    with pytest.raises(NoConvergenceError):
        RelEqSolution(system=system, configuration=q, omega=1.0,
                      inertia=0.5, residual=1e-3)


def test_releq_trajectory_is_rigid_and_solves_the_motion():
    sol = releq_lagrange(three_body())
    system = sol.system
    h0 = None
    for t in (0.0, 0.3, 1.7, 4.0):
        state = releq_trajectory(sol, t)
        state.validate(system, com_tol=1e-9)
        assert moment_of_inertia(system, state.q) == pytest.approx(
            sol.inertia, rel=1e-12)
        h = hamiltonian(system, state)
        h0 = h if h0 is None else h0
        assert h == pytest.approx(h0, rel=1e-12)
        # rigid rotation satisfies the equations of motion:
        # grad V(q(t)) = omega^2 M q(t) at every time
        g = grad_potential(system, state.q)
        mq = (system.masses[:, None] * state.q).ravel()
        np.testing.assert_allclose(g, sol.omega_squared * mq, atol=1e-8)


def test_find_equilibria_empty_for_attractive_law():
    assert find_equilibria(two_body(), n_starts=8, seed=0) == []


def test_find_equilibria_balance_point_of_mixed_law():
    # f(r) = 1/r + r^2/4 balances attraction against repulsion at r = 2^(1/3)
    system = two_body(PowerLawPotential(((1.0, -1.0), (0.25, 2.0))))
    found = find_equilibria(system, n_starts=12, seed=3)
    assert found
    for q in found:
        assert np.max(np.abs(grad_potential(system, q))) < 1e-8
        r = np.linalg.norm(q[0] - q[1])
        assert r == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-9)
