"""N-body mechanics: pairwise potentials, Hamiltonian fields, relative equilibria.

Conventions (gravitational constant G = 1 throughout):

* potential energy ``V(q) = - sum_{i<j} m_i m_j f(r_ij)`` with ``f(r) = 1/r``
  for the Newtonian variant and ``f(r) = sum_k beta_k r**alpha_k`` for general
  power laws; a perturbed variant adds a polynomial bump in the configuration
  variables;
* the phase space is ``z = (q, p)`` with flat coordinate blocks, equations of
  motion ``dq/dt = p/m`` (componentwise) and ``dp/dt = -grad V(q)``;
* the moment of inertia ``I(q) = sum_i m_i |q_i - c|**2`` is taken about the
  centre of mass ``c``; its gradient is ``2 m_i (q_i - c)`` exactly, because
  the weighted deviations sum to zero;
* a relative equilibrium is a rigidly rotating solution; its configuration
  satisfies the central-configuration balance ``grad V(q) = omega^2 M q``
  about the centre of mass.

Potential jets are exact: the squared pair distance is an explicit quadratic
jet and fractional powers go through the truncated binomial series, so the
Hamiltonian field exposes analytic jets to any degree.  Each pair's term is
a series in its relative coordinates ``d = q_i - q_j``, on the small
``(space_dim, degree)`` table, then scattered into the configuration table
of a chart.  A chart holds K position blocks ``x_k`` (``space_dim``
variables each) and, per pair, its row: ``d = sum_k r_k x_k``.  The
coefficient of ``prod_k delta_k^(a_k)`` is that of ``d^(sum_k a_k)`` times
``prod_c (sum_k a_kc)! / prod_k a_kc!`` times ``prod_k r_k^|a_k|``, over the
blocks with ``r_k != 0``, and rows sum their pairs from +0 in pair order.

* The Cartesian chart (:class:`_PairPlan`) has the bodies as blocks and
  rows ``e_i - e_j``: the factors are ``prod_c C(a_c + b_c, a_c)`` and
  ``(-1)^|b|``, integers exact in a float.
* The Jacobi chart (:class:`_JacobiPlan`) has the mass-weighted Jacobi
  vectors ``rho_k = q_{k+1} - C_k`` as blocks, ``C_k`` the centre of mass
  of bodies ``0..k``, and rows ``D_ij``; its momenta are ``pi_k = mu_k
  drho_k/dt`` with reduced masses ``mu_k = m_{k+1} M_k / M_{k+1}``
  (``M_k = m_0 + ... + m_k``).  The change is linear and symplectic, and
  the centre of mass ``(R, P)`` drops out: ``H = sum_k |pi_k|^2 / 2 mu_k
  + V(rho) + |P|^2 / 2M`` and ``I = sum_k mu_k |rho_k|^2`` (Meyer, Hall &
  Offin, *Introduction to Hamiltonian Dynamical Systems and the N-Body
  Problem*, 2nd ed.).  :func:`_jacobi_tower` routes the towers of a
  translation-invariant system's energy and inertia there, and
  :func:`_chart_jets` builds their jets from one potential jet.

All products are elementwise or per column, so a stack of samples keeps
each column's bits.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import optimize

from .errors import (
    CombinabilityError,
    ConfigError,
    NoConvergenceError,
    SingularityError,
    _check_count,
    _check_keys,
    _check_kind,
    _finite,
    _finite_array,
    _flag,
)
from .fields import PolynomialObservable, _expand, _jet_at, field_coeffs, stream_rng
from .jet_algebra import (
    JetField,
    TruncatedJet,
    _pow,
    _product,
    _space,
    table_size,
)

__all__ = [
    "COLLISION_TOL",
    "NewtonianPotential",
    "PowerLawPotential",
    "PerturbedPotential",
    "potential_from_json",
    "BodySystem",
    "PhaseState",
    "pair_distances",
    "potential_value",
    "grad_potential",
    "potential_config_jet",
    "kinetic_energy",
    "hamiltonian",
    "angular_momentum",
    "HamiltonianField",
    "build_hamiltonian_field",
    "moment_of_inertia",
    "inertia_observable",
    "InertiaObservable",
    "EnergyObservable",
    "energy_observable",
    "RelEqSolution",
    "releq_lagrange",
    "releq_euler",
    "releq_newton",
    "releq_trajectory",
    "find_equilibria",
]

#: Pairwise separations below this are treated as collisions.
COLLISION_TOL = 1e-8


# -- potential specifications ------------------------------------------------


@dataclass(frozen=True)
class NewtonianPotential:
    """``f(r) = 1/r``."""

    @property
    def terms(self) -> tuple[tuple[float, float], ...]:
        return ((1.0, -1.0),)

    def to_json_dict(self) -> dict:
        return {"variant": "newtonian"}


@dataclass(frozen=True)
class PowerLawPotential:
    """``f(r) = sum_k beta_k r**alpha_k`` with terms ``(beta_k, alpha_k)``.

    ``terms`` is a non-empty list of pairs of finite real numbers, else
    :class:`ConfigError`; they are stored as a tuple of float pairs.
    """

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        terms = _finite_array(self.terms, "power-law terms")
        if terms.ndim != 2 or terms.shape[1] != 2 or not terms.size:
            raise ConfigError("power-law terms must be a non-empty list of "
                              f"[beta, alpha] pairs, got {self.terms!r}")
        object.__setattr__(self, "terms", tuple(map(tuple, terms.tolist())))

    def to_json_dict(self) -> dict:
        return {"variant": "power_law", "terms": [list(t) for t in self.terms]}


@dataclass(frozen=True)
class PerturbedPotential:
    """A base pair potential plus a polynomial bump in the configuration."""

    base: "NewtonianPotential | PowerLawPotential | PerturbedPotential"
    bump: PolynomialObservable

    def to_json_dict(self) -> dict:
        return {
            "variant": "perturbed",
            "base": self.base.to_json_dict(),
            "bump": self.bump.to_json_dict(),
        }


_POTENTIAL_VARIANTS = {"newtonian": ((), ()), "power_law": (("terms",), ()),
                       "perturbed": (("base", "bump"), ())}


def potential_from_json(d: dict):
    """The potential of a :meth:`to_json_dict` block; it, and a perturbed
    one's base and bump, has exactly its variant's keys, else ConfigError."""
    variant = _check_kind(d, "potential", _POTENTIAL_VARIANTS, key="variant")
    if variant == "newtonian":
        return NewtonianPotential()
    if variant == "power_law":
        return PowerLawPotential(d["terms"])
    bump = _check_keys(d["bump"], "potential bump",
                       required=("dim", "degree", "base", "coeffs"))
    for entry in bump["coeffs"]:
        _check_keys(entry, "potential bump entry", required=("alpha", "c"))
    return PerturbedPotential(
        base=potential_from_json(d["base"]),
        bump=PolynomialObservable.from_json_dict(bump),
    )


def _pair_terms(potential) -> tuple[tuple[float, float], ...]:
    while isinstance(potential, PerturbedPotential):
        potential = potential.base
    return potential.terms


def _bumps(potential) -> list[PolynomialObservable]:
    out = []
    while isinstance(potential, PerturbedPotential):
        out.append(potential.bump)
        potential = potential.base
    return out


def _f_value(terms, r: float) -> float:
    return sum(b * r ** a for b, a in terms)


def _f_prime(terms, r: float) -> float:
    return sum(b * a * r ** (a - 1.0) for b, a in terms)


# -- system and state ---------------------------------------------------------


@dataclass(frozen=True)
class BodySystem:
    """Point masses with a pairwise potential.

    ``com_fixed`` declares that states are meant to live in the
    centre-of-mass frame (total momentum zero, weighted positions zero): the
    ``Sampler`` draws states in it, :meth:`PhaseState.validate` checks it
    and ``effective_phase_dim`` drops its degrees of freedom.  The
    coordinates stay full-dimensional, and no integrator projects a state
    back onto the frame.

    ``n_bodies`` is an integer of at least 2, ``space_dim`` one of at least
    1, ``masses`` one finite positive number per body and ``com_fixed`` a
    bool, else :class:`ConfigError`; no value is truncated or coerced.
    """

    n_bodies: int
    space_dim: int
    masses: np.ndarray
    potential: object
    com_fixed: bool = True

    def __post_init__(self):
        _check_count(self.n_bodies, "n_bodies", at_least=2)
        _check_count(self.space_dim, "space_dim")
        masses = _finite_array(self.masses, "masses")
        if masses.shape != (self.n_bodies,) or np.any(masses <= 0):
            raise ConfigError(f"masses must be positive, one per body, got "
                              f"{masses.tolist()}")
        _flag(self.com_fixed, "com_fixed")
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)
        limit = 2 * self.n_bodies - 1
        n_terms = len(_pair_terms(self.potential))
        if n_terms > limit:
            warnings.warn(
                f"potential has {n_terms} power-law terms; more than "
                f"2N-1 = {limit} leaves the genericity results unsupported",
                stacklevel=2,
            )

    def __eq__(self, other):
        """Value equality, a bool: the masses compare as arrays."""
        if not isinstance(other, BodySystem):
            return NotImplemented
        return ((self.n_bodies, self.space_dim, self.potential, self.com_fixed)
                == (other.n_bodies, other.space_dim, other.potential,
                    other.com_fixed)
                and np.array_equal(self.masses, other.masses))

    def __hash__(self):
        """Agrees with ``==``: adding +0.0 maps -0.0 to +0.0 first."""
        return hash((self.n_bodies, self.space_dim, self.potential,
                     self.com_fixed, (self.masses + 0.0).tobytes()))

    @property
    def coord_dim(self) -> int:
        return self.n_bodies * self.space_dim

    @property
    def phase_dim(self) -> int:
        return 2 * self.coord_dim

    @property
    def effective_phase_dim(self) -> int:
        """Phase dimension after centre-of-mass reduction, if declared."""
        reduced = self.n_bodies - (1 if self.com_fixed else 0)
        return 2 * reduced * self.space_dim

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def mass_vector(self) -> np.ndarray:
        """Mass per configuration coordinate (each body repeated space_dim times)."""
        return np.repeat(self.masses, self.space_dim)

    def pairs(self) -> list[tuple[int, int]]:
        return list(self._pair_plan.pairs)

    @cached_property
    def _pair_plan(self) -> "_PairPlan":
        return _PairPlan(self)

    @cached_property
    def _jacobi_plan(self) -> "_JacobiPlan":
        return _JacobiPlan(self)

    def to_json_dict(self) -> dict:
        return {
            "n_bodies": self.n_bodies,
            "space_dim": self.space_dim,
            "masses": [float(m) for m in self.masses],
            "potential": self.potential.to_json_dict(),
            "com_fixed": self.com_fixed,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "BodySystem":
        return BodySystem(
            n_bodies=d["n_bodies"],
            space_dim=d["space_dim"],
            masses=d["masses"],
            potential=potential_from_json(d["potential"]),
            com_fixed=d.get("com_fixed", True),
        )


@dataclass(frozen=True)
class PhaseState:
    """Positions and momenta, shape (N, space_dim) each; G = 1 units."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, float)
        p = np.asarray(self.p, float)
        if q.shape != p.shape or q.ndim != 2:
            raise ValueError("q and p must be matching (N, space_dim) arrays")
        q.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    def flat(self) -> np.ndarray:
        return np.concatenate([self.q.ravel(), self.p.ravel()])

    @staticmethod
    def from_flat(system: BodySystem, z) -> "PhaseState":
        z = np.asarray(z, float)
        nc = system.coord_dim
        if z.shape != (2 * nc,):
            raise ValueError(f"flat state must have length {2 * nc}")
        shape = (system.n_bodies, system.space_dim)
        return PhaseState(z[:nc].reshape(shape), z[nc:].reshape(shape))

    def validate(self, system: BodySystem, com_tol: float = 1e-10) -> None:
        _check_collisions(system, pair_distances(system, self.q))
        if system.com_fixed:
            com = system.masses @ self.q / system.total_mass
            ptot = self.p.sum(axis=0)
            if np.max(np.abs(com)) > com_tol or np.max(np.abs(ptot)) > com_tol:
                raise ValueError(
                    f"state violates centre-of-mass constraints: com={com}, "
                    f"total momentum={ptot}"
                )

    def to_json_dict(self) -> dict:
        return {"q": [[float(x) for x in row] for row in self.q],
                "p": [[float(x) for x in row] for row in self.p]}


def _bodies(system: BodySystem, q) -> np.ndarray:
    """``q`` as ``(..., n_bodies, space_dim)``: its trailing shape is
    ``(coord_dim,)``, which is split, or ``(n_bodies, space_dim)``; any
    other is a :class:`CombinabilityError`."""
    q = np.asarray(q, float)
    shape = (system.n_bodies, system.space_dim)
    if q.shape[-1:] == (system.coord_dim,):
        return q.reshape(q.shape[:-1] + shape)
    if q.shape[-2:] != shape:
        raise CombinabilityError(
            f"{shape[0]} bodies in {shape[1]}-D read from shape {q.shape}")
    return q


def _phase_bodies(system: BodySystem, state) -> tuple[np.ndarray, np.ndarray]:
    """Positions and momenta per body of a :class:`PhaseState` or of flat
    phase vectors ``(..., phase_dim)``; any other last axis is a
    :class:`CombinabilityError`."""
    if isinstance(state, PhaseState):
        return state.q, state.p
    z = np.asarray(state, float)
    if z.shape[-1:] != (system.phase_dim,):
        raise CombinabilityError(
            f"phase states of dim {system.phase_dim} read from shape {z.shape}")
    nc = system.coord_dim
    return _bodies(system, z[..., :nc]), _bodies(system, z[..., nc:])


def _scalar_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


class _PairPlan:
    """A system's pair geometry and pair-force coefficients, built once per
    system (``BodySystem._pair_plan``); also its Cartesian chart.

    ``pairs`` are the body pairs ``i < j`` in lexicographic order, ``I``,
    ``J`` index their bodies and ``scale`` holds their ``-m_i m_j``.
    ``force`` holds per pair ``i``, ``j``, the flat coordinate index pairs
    ``(i*D + c, j*D + c)`` and ``-m_i m_j``;
    ``terms`` holds ``(beta*alpha, alpha - 1)`` per power-law term, and
    ``bumps`` the polynomial bumps, outermost first.

    As a chart (see the module notes, and :class:`_JacobiPlan` for the
    other one): ``nc`` configuration variables, ``mass`` and ``minv`` per
    configuration coordinate, and per pair its ``rows`` entry ``e_i -
    e_j`` over the bodies.
    """

    def __init__(self, system: BodySystem):
        n, dim = system.n_bodies, system.space_dim
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.I, self.J = (np.array(k, dtype=np.intp) for k in zip(*self.pairs))
        m = system.masses.tolist()
        self.scale = np.array([-m[i] * m[j] for i, j in self.pairs])
        self.force = tuple(
            (i, j, tuple((i * dim + c, j * dim + c) for c in range(dim)),
             -m[i] * m[j])
            for i, j in self.pairs)
        self.terms = tuple((b * a, a - 1.0)
                           for b, a in _pair_terms(system.potential))
        self.bumps = tuple(_bumps(system.potential))
        self.nc = system.coord_dim
        self.mass = system.mass_vector
        self.minv = 1.0 / self.mass
        self.rows = tuple(tuple(1.0 if k == i else -1.0 if k == j else 0.0
                                for k in range(n)) for i, j in self.pairs)


class _JacobiPlan:
    """A system's mass-weighted Jacobi chart, built once per system
    (``BodySystem._jacobi_plan``) for a translation-invariant potential.

    With ``M_k = m_0 + ... + m_k``, ``C_0 = q_0`` and ``P_0 = p_0``, the
    chart point of a Cartesian phase point is, for ``k = 0 .. N-2``::

        rho_k = q_{k+1} - C_k,     C_{k+1} = C_k + (m_{k+1} / M_{k+1}) rho_k,
        pi_k  = (M_k / M_{k+1}) p_{k+1} - (m_{k+1} / M_{k+1}) P_k,
        P_{k+1} = P_k + p_{k+1},

    flat as ``(rho, pi)``, each block-major: ``rho_k``'s component ``c`` is
    variable ``k * space_dim + c`` and its conjugate ``pi`` is ``nc`` on.
    ``C_{N-1}`` and ``P_{N-1}`` are the centre of mass and the total
    momentum, which the chart drops (see the module notes).

    As a chart: ``nc = (N - 1) * space_dim``, ``dim = 2 * nc``, ``mass``
    holds each ``mu_k = m_{k+1} M_k / M_{k+1}`` per coordinate and
    ``minv`` its inverse, and ``rows`` per pair ``i < j`` the coefficients
    ``D_ijk`` of ``q_i - q_j = sum_k D_ijk rho_k``: ``-1`` at ``k = j - 1``,
    ``0`` from ``k = j`` on, and below ``j - 1`` the coefficient of
    ``rho_k`` in ``q_i``, which is ``-m_{k+1} / M_{k+1}`` for ``k >= i``,
    ``M_k / M_{k+1}`` at ``k = i - 1`` and ``0`` before.
    """

    bumps = ()

    def __init__(self, system: BodySystem):
        if _bumps(system.potential):
            raise ValueError("a potential bump is not translation invariant")
        n, dim = system.n_bodies, system.space_dim
        m = system.masses.tolist()
        total = list(itertools.accumulate(m))
        self.n_bodies, self.space_dim = n, dim
        self.shift = [m[k + 1] / total[k + 1] for k in range(n - 1)]
        self.keep = [total[k] / total[k + 1] for k in range(n - 1)]
        self.mu = [m[k + 1] * total[k] / total[k + 1] for k in range(n - 1)]
        self.nc = (n - 1) * dim
        self.dim = 2 * self.nc
        self.mass = np.repeat(self.mu, dim)
        self.minv = 1.0 / self.mass

        def in_q(i, k):  # the coefficient of rho_k in q_i
            return (-self.shift[k] if k >= i else self.keep[k] if k == i - 1
                    else 0.0)

        self.rows = tuple(
            tuple(in_q(i, k) if k < j - 1 else -1.0 if k == j - 1 else 0.0
                  for k in range(n - 1))
            for i, j in system._pair_plan.pairs)

    def to_chart(self, points: np.ndarray) -> np.ndarray:
        """The chart points of Cartesian phase points: one ``(phase_dim,)``
        or a sample-minor stack ``(phase_dim, S)``, elementwise, so each
        column keeps its one-point bits."""
        rest = points.shape[1:]
        q, p = points.reshape((2, self.n_bodies, self.space_dim) + rest)
        centre, momentum = q[0], p[0]
        rho, pi = [], []
        for k in range(self.n_bodies - 1):
            rho.append(q[k + 1] - centre)
            pi.append(self.keep[k] * p[k + 1] - self.shift[k] * momentum)
            centre = centre + self.shift[k] * rho[-1]
            momentum = momentum + p[k + 1]
        return np.concatenate(rho + pi).reshape((self.dim,) + rest)


def pair_distances(system: BodySystem, q) -> np.ndarray:
    """Distances ``|q_i - q_j|`` for ``system.pairs()``, stacked on a last axis.

    ``q`` holds configurations over any leading axes, flat
    (``..., coord_dim``) or per body (``..., n_bodies, space_dim``).  Each
    distance is the square root of the squared differences summed in
    coordinate order, the one distance formula of the package.
    """
    q = _bodies(system, q)
    plan = system._pair_plan
    d = q[..., plan.I, :] - q[..., plan.J, :]
    return np.sqrt(np.add.reduce(d * d, axis=-1))


def _collision(i: int, j: int, r: float) -> SingularityError:
    return SingularityError(f"bodies {i} and {j} are separated by {r:.3e}",
                            pair=(i, j))


def _check_collisions(system: BodySystem, r: np.ndarray) -> None:
    """Raise :class:`SingularityError` for the first pair closer than
    ``COLLISION_TOL``.

    ``r`` holds the distances of ``system.pairs()`` on its last axis, over
    any leading axes.
    """
    for k, rk in enumerate(r.reshape(-1, r.shape[-1]).min(axis=0)):
        if rk < COLLISION_TOL:
            raise _collision(*system._pair_plan.pairs[k], rk)


# -- energies ------------------------------------------------------------------
#
# Each accepts configurations or phase states over any leading axes and
# returns a float for a single one.


def potential_value(system: BodySystem, q):
    """``V(q)``; raises :class:`SingularityError` near collisions."""
    q = _bodies(system, q)
    r = pair_distances(system, q)
    _check_collisions(system, r)
    terms = _pair_terms(system.potential)
    m = system.masses
    total = np.zeros(r.shape[:-1])
    for k, (i, j) in enumerate(system.pairs()):
        total -= m[i] * m[j] * _f_value(terms, r[..., k])
    rows = q.reshape(-1, system.coord_dim)
    for bump in _bumps(system.potential):
        total += np.array([bump(row) for row in rows]).reshape(total.shape)
    return _scalar_or_array(total)


def _gradient(system: BodySystem, x: list, q: np.ndarray) -> list:
    """``dV/dq`` as a list of floats: the one pass of :func:`grad_potential`
    and :meth:`HamiltonianField.__call__` over the system's pair plan.

    ``x`` lists the flat configuration in Python floats and ``q`` holds it
    as an array, read only by the bumps; both may run on past
    ``coord_dim`` (a whole phase state), and those entries are not read.
    A pair's distance is that of :func:`pair_distances`, and a pair closer
    than ``COLLISION_TOL`` raises :class:`SingularityError` before any later
    pair is visited.  Each pair's force is added to body ``i`` and
    subtracted from body ``j`` in pair order; the bumps' gradients follow,
    each added to the whole array.
    """
    plan = system._pair_plan
    g = [0.0] * system.coord_dim
    for i, j, uv, mm in plan.force:
        r2 = 0.0
        for u, v in uv:
            d = x[u] - x[v]
            r2 += d * d
        r = math.sqrt(r2)
        if r < COLLISION_TOL:
            raise _collision(i, j, r)
        fp = 0.0
        for ba, a1 in plan.terms:
            fp += ba * r ** a1
        s = mm * fp / r
        for u, v in uv:
            w = s * (x[u] - x[v])
            g[u] += w
            g[v] -= w
    if plan.bumps:
        out, q = np.array(g), q[:len(g)]
        for bump in plan.bumps:
            out = out + bump.grad(q)
        g = out.tolist()
    return g


def grad_potential(system: BodySystem, q) -> np.ndarray:
    """Flat gradient of ``V``; the force is its negative.

    The system's one pair pass in Python floats, shared with
    :meth:`HamiltonianField.__call__` (see :func:`_gradient`).
    """
    q = np.asarray(q, float).reshape(system.coord_dim)
    return np.array(_gradient(system, q.tolist(), q))


def kinetic_energy(system: BodySystem, p):
    p = _bodies(system, p)
    return _scalar_or_array(
        0.5 * np.sum(p ** 2 / system.masses[:, None], axis=(-2, -1)))


def hamiltonian(system: BodySystem, state):
    """``H`` of a :class:`PhaseState` or of flat phase vectors."""
    q, p = _phase_bodies(system, state)
    return kinetic_energy(system, p) + potential_value(system, q)


def moment_of_inertia(system: BodySystem, q):
    """``I = sum_i m_i |q_i - c|^2`` about the centre of mass ``c``."""
    q = _bodies(system, q)
    c = system.masses @ q / system.total_mass
    d = q - c[..., None, :]
    return _scalar_or_array(
        np.sum(system.masses[:, None] * d ** 2, axis=(-2, -1)))


def angular_momentum(system: BodySystem, state):
    """Total angular momentum: scalar in the plane, norm in 3-D, NaN in
    other dimensions."""
    q, p = _phase_bodies(system, state)
    if system.space_dim == 2:
        out = np.sum(q[..., 0] * p[..., 1] - q[..., 1] * p[..., 0], axis=-1)
    elif system.space_dim == 3:
        out = np.linalg.norm(np.sum(np.cross(q, p), axis=-2), axis=-1)
    else:
        out = np.full(q.shape[:-2], math.nan)
    return _scalar_or_array(out)


# -- exact jets ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _quadratic_positions(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Table positions of ``z_v`` (``lin[v]``) and of ``z_u * z_v``
    (``quad[u, v]``) in ``dim`` variables.

    Tables are prefix-stable, so these positions hold at every degree that
    has the order; ranking them once per dimension spares each sample's jets
    the multi-index lookups of :meth:`TruncatedJet.from_coeffs`.
    """
    sp = _space(dim, 2)
    eye = np.eye(dim, dtype=np.int64)
    lin = sp.rank(eye)
    quad = sp.rank(eye[:, None, :] + eye[None, :, :])
    lin.flags.writeable = False
    quad.flags.writeable = False
    return lin, quad


def _each_sample(fn, x: np.ndarray):
    """``fn`` of one sample's 1-D array: of ``x`` itself, or of each column
    of a sample-minor stack, made contiguous.  For the reductions
    (``np.sum``) whose summation order numpy picks by layout, so a stack
    keeps each sample's bits."""
    if x.ndim == 1:
        return fn(x)
    return np.array([fn(col) for col in np.ascontiguousarray(x.T)])


def _pair_differences(system: BodySystem, chart, q: np.ndarray) -> np.ndarray:
    """Each pair's ``d = sum_k r_k x_k`` over the chart positions of a
    sample-minor stack ``q`` ``(nc, S)``: ``(pairs, space_dim, S)``.  The
    terms with ``r_k != 0`` are added in block order, elementwise, so the
    Cartesian ``1.0 * x_i + -1.0 * x_j`` is bitwise ``q_i - q_j``."""
    x = q.reshape(len(chart.rows[0]), system.space_dim, -1)
    out = []
    for row in chart.rows:
        d = None
        for r, xk in zip(row, x):
            if r:
                d = r * xk if d is None else d + r * xk
        out.append(d)
    return np.stack(out)


def _pair_series(system: BodySystem, d: np.ndarray, degree: int) -> np.ndarray:
    """Each pair's term ``-m_i m_j f(|d|)`` of ``V`` about each column of a
    stack of pair differences ``d`` ``(pairs, space_dim, S)``, in its
    relative coordinates: ``(table_size(space_dim, degree), pairs, S)``.
    Every pair and sample is a column of one stacked ``_pow`` per
    power-law term, and ``|d|^2`` is summed in coordinate order."""
    lin, quad = _quadratic_positions(system.space_dim)
    sp = _space(system.space_dim, degree)
    r2 = np.zeros((sp.size, d.shape[0], d.shape[2]))
    r2[0] = d[:, 0] * d[:, 0]
    for c in range(1, system.space_dim):
        r2[0] += d[:, c] * d[:, c]
    if degree >= 1:
        r2[lin] = 2.0 * d.swapaxes(0, 1)
    if degree >= 2:
        r2[quad.diagonal()] = 1.0
    g = 0.0
    for beta, alpha in _pair_terms(system.potential):
        g = g + beta * _pow(sp, r2.reshape(sp.size, -1), alpha / 2.0)
    return g.reshape(r2.shape) * system._pair_plan.scale[:, None]


@lru_cache(maxsize=None)
def _pair_scatter(rows: tuple, space_dim: int, degree: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, src, weight)``: ``V``'s table on a chart with pair rows
    ``rows`` of one sample is ``bincount(rows, weight * g[src])``, with
    ``g`` the sample's :func:`_pair_series` flattened row-major; the
    entries run pair-major, table rows ascending (see the module notes)."""
    blocks = len(rows[0])
    exps = _space(blocks * space_dim, degree).exps.reshape(
        -1, blocks, space_dim)
    small = _space(space_dim, degree)
    fact = np.array([math.factorial(k) for k in range(degree + 1)], float)
    at_rows, src, weight = [], [], []
    for p, row in enumerate(rows):
        used = [k for k, r in enumerate(row) if r]
        at = np.flatnonzero(~np.delete(exps, used, axis=1).any(axis=(1, 2)))
        a = exps[at][:, used]
        total = a.sum(axis=1)
        at_rows.append(at)
        src.append(small.rank(total) * len(rows) + p)
        weight.append(
            np.prod(fact[total] / np.prod(fact[a], axis=1), axis=1)
            * np.prod(np.array(row)[used] ** a.sum(axis=2), axis=1))
    out = tuple(map(np.concatenate, (at_rows, src, weight)))
    for a in out:
        a.flags.writeable = False
    return out


#: The last ``(system, chart, degree, q shape and bytes, coefficients)``:
#: a Cartesian energy sample or group asks twice, for the observable and
#: for the field, and an inertia scan at an energy scan's points asks again
#: on the Jacobi chart.  It is read and replaced whole, so threads share it
#: without a lock.
_last_potential: tuple = (None, None, None, None, None)


def _potential(system: BodySystem, q: np.ndarray, degree: int,
               chart=None) -> np.ndarray:
    """Exact jet coefficients of ``V`` in a chart's configuration variables
    (``None``: the Cartesian chart) about one flat configuration ``q``
    ``(nc,)`` or each column of a sample-minor stack ``(nc, S)``; the
    previous call's (read-only) array if it had this system, chart, degree
    and ``q``.

    The pair-coordinate route of the module notes: one
    :func:`_pair_series` stack for every pair and sample, scattered by one
    :func:`~saarilab.jet_algebra._product`, plus each bump's stacked
    ``jet_coeffs``; so each column is bitwise equal to its one-point jet.
    """
    global _last_potential
    chart = system._pair_plan if chart is None else chart
    key = (q.shape, q.tobytes())
    last = _last_potential
    if (last[0] is system and last[1] is chart and last[2] == degree
            and last[3] == key):
        return last[4]
    stack = q.reshape(len(q), -1)
    d = _pair_differences(system, chart, stack)
    _check_collisions(system, np.sqrt(np.add.reduce(d * d, axis=1)).T)
    sp = _space(chart.nc, degree)
    rows, src, weight = _pair_scatter(chart.rows, system.space_dim, degree)
    g = _pair_series(system, d, degree).reshape((-1,) + q.shape[1:])
    out = _product(rows, sp.size, weight, None, g, src)
    for bump in chart.bumps:
        out += bump.jet_coeffs(q, degree)
    out.flags.writeable = False
    _last_potential = (system, chart, degree, key, out)
    return out


def potential_config_jet(system: BodySystem, q, degree: int) -> TruncatedJet:
    """Exact Taylor jet of ``V`` about ``q`` in the configuration variables,
    by pair-coordinate series (see the module notes): the one-point case of
    :func:`_potential`, whose coefficients it shares with the previous call
    if that had this system, degree and ``q``."""
    q = _bodies(system, q).ravel()
    return TruncatedJet(system.coord_dim, degree, q, _potential(system, q, degree))


class HamiltonianField:
    """Phase-space vector field of ``H = sum p^2/2m + V(q)``.

    Callable on flat states; exposes exact jets, the separable structure used
    by the symplectic integrator, and energy evaluation.
    """

    separable = True

    def __init__(self, system: BodySystem):
        self.system = system
        self.minv = system._pair_plan.minv
        self._minv = self.minv.tolist()

    @property
    def dim(self) -> int:
        return self.system.phase_dim

    def grad_v(self, qflat: np.ndarray) -> np.ndarray:
        return grad_potential(self.system, qflat)

    def __call__(self, z) -> np.ndarray:
        """``(p / m, -grad V(q))`` at one flat state, in one pass in Python
        floats: each velocity is one product, and the force is the negated
        gradient of the pair pass that :func:`grad_potential` runs.  A state
        of another length than ``phase_dim`` is a
        :class:`CombinabilityError`."""
        z = np.asarray(z, float)
        x = z.tolist()
        if len(x) != 2 * len(self._minv):  # one momentum per inverse mass
            raise CombinabilityError(
                f"field of dim {self.dim} evaluated at a state of {len(x)} entries")
        g = _gradient(self.system, x, z)
        return np.array([p * w for p, w in zip(x[len(g):], self._minv)]
                        + [-w for w in g])

    def energy(self, z) -> float:
        return hamiltonian(self.system, z)

    def jet_field(self, z, degree: int) -> JetField:
        """:meth:`field_coeffs` on the whole table; a force is -0 off the
        configuration, as negated after its placement."""
        z = np.asarray(z, float)
        sp, nc = _space(z.size, degree), self.system.coord_dim
        return JetField(tuple(
            TruncatedJet(z.size, degree, z,
                         _expand(sp, mask, c, -0.0 if k >= nc else 0.0))
            for k, (mask, c) in enumerate(field_coeffs(self, z, degree))))

    def field_coeffs(self, points, degree: int) -> list[tuple]:
        """The components at one phase point ``(phase_dim,)`` or a
        sample-minor stack (see :mod:`saarilab.fields`), on the Cartesian
        chart (see :func:`_field_coeffs`)."""
        system = self.system
        return _field_coeffs(system._pair_plan, points, degree, _potential(
            system, points[:system.coord_dim], degree + 1))


def _field_coeffs(chart, points, degree: int, vjet: np.ndarray) -> list[tuple]:
    """The Hamiltonian field's components on a chart at its points, from
    the degree ``degree + 1`` potential jet ``vjet`` there: the velocity
    ``p_c / m_c`` on ``p_c``'s table, the force ``-dV/dq_c`` on the
    configuration's, with ``m_c`` the chart's ``mass``."""
    nc = chart.nc
    comps: list[tuple] = []
    for c in range(nc):
        coeffs = np.zeros((degree + 1,) + points.shape[1:])
        coeffs[0] = points[nc + c] * chart.minv[c]
        if degree >= 1:
            coeffs[1] = chart.minv[c]
        comps.append((1 << (nc + c), coeffs))
    sp = _space(nc, degree + 1)
    for c in range(nc):
        scale = sp.diff_scale[c]
        comps.append(((1 << nc) - 1, -(vjet[sp.diff_src[c]] * (
            scale if vjet.ndim == 1 else scale[:, None]))))
    return comps


def build_hamiltonian_field(system: BodySystem) -> HamiltonianField:
    return HamiltonianField(system)


class InertiaObservable(PolynomialObservable):
    """The polynomial ``I`` of :func:`inertia_observable`, which knows its
    system, so that its towers can run on the system's Jacobi chart (see
    :func:`_jacobi_tower`).  Two compare equal when their polynomials do,
    whatever their systems; a plain :class:`PolynomialObservable` never
    equals one."""

    def __init__(self, poly: TruncatedJet, system: BodySystem):
        super().__init__(poly)
        object.__setattr__(self, "system", system)


def inertia_observable(system: BodySystem) -> InertiaObservable:
    """``I`` about the centre of mass, lifted to phase space (exact quadratic)."""
    nph = system.phase_dim
    sd = system.space_dim
    m = system.masses
    mt = system.total_mass
    entries: dict[tuple, float] = {}
    for c in range(sd):
        for i in range(system.n_bodies):
            e = [0] * nph
            e[i * sd + c] = 2
            entries[tuple(e)] = m[i] - m[i] ** 2 / mt
            for j in range(i + 1, system.n_bodies):
                e2 = [0] * nph
                e2[i * sd + c] = 1
                e2[j * sd + c] = 1
                entries[tuple(e2)] = -2.0 * m[i] * m[j] / mt
    return InertiaObservable(
        PolynomialObservable.from_coeffs(nph, 2, entries).poly, system)


class EnergyObservable:
    """Total energy as a phase-space observable with exact jets."""

    def __init__(self, system: BodySystem):
        self.system = system

    @property
    def dim(self) -> int:
        return self.system.phase_dim

    def __call__(self, z) -> float:
        return hamiltonian(self.system, z)

    def grad(self, z) -> np.ndarray:
        z = np.asarray(z, float)
        nc = self.system.coord_dim
        return np.concatenate([
            grad_potential(self.system, z[:nc]),
            z[nc:] * self.system._pair_plan.minv
        ])

    def jet(self, z, degree: int) -> TruncatedJet:
        return _jet_at(self, z, degree)

    def jet_coeffs(self, points, degree: int) -> np.ndarray:
        """The energy's jet at one phase point or a sample-minor stack of
        them (see :mod:`saarilab.fields`), on the Cartesian chart (see
        :func:`_energy_coeffs`)."""
        system = self.system
        return _energy_coeffs(system._pair_plan, points, degree, _potential(
            system, points[:system.coord_dim], degree))


def _diagonal_quadratic(dim: int, degree: int, at: np.ndarray, x: np.ndarray,
                        w: np.ndarray) -> np.ndarray:
    """The jet of ``sum_c w_c z_c^2`` in ``dim`` variables, ``z_c`` the
    variable ``at[c]``, about ``x`` (its values of the ``z_c``): one point
    ``(len(at),)`` or a sample-minor stack ``(len(at), S)``.  The
    coefficients are ``sum_c w_c x_c^2``, ``2 w_c x_c`` and ``w_c``."""
    lin, quad = _quadratic_positions(dim)
    col = w if x.ndim == 1 else w[:, None]
    coeffs = np.zeros((table_size(dim, degree),) + x.shape[1:])
    coeffs[0] = _each_sample(lambda v: np.sum(v ** 2 * w), x)
    if degree >= 1:
        coeffs[lin[at]] = 2.0 * col * x
    if degree >= 2:
        coeffs[quad[at, at]] = col
    return coeffs


def _energy_coeffs(chart, points, degree: int, vjet: np.ndarray) -> np.ndarray:
    """The kinetic jet plus the embedded degree-``degree`` potential jet
    ``vjet`` on a chart at its points, the kinetic part ``sum_c p_c^2 / 2
    m_c`` with ``m_c`` the chart's ``mass``."""
    nc = chart.nc
    kinetic = _diagonal_quadratic(2 * nc, degree, np.arange(nc, 2 * nc),
                                  points[nc:], 0.5 * chart.minv)
    return kinetic + _expand(_space(2 * nc, degree), (1 << nc) - 1, vjet)


def _jacobi_tower(F, X) -> tuple[BodySystem, bool] | None:
    """The Jacobi-chart route of a pair of handles, ``(system, energy)``,
    or ``None`` for the Cartesian one: ``X`` must be a
    :class:`HamiltonianField` whose potential has no bump, and ``F`` that
    system's :class:`EnergyObservable` (``energy``) or
    :class:`InertiaObservable`.  Any other pair, such as a bumped
    potential, a sum of fields or observables, or a plain polynomial,
    keeps the Cartesian chart."""
    if not isinstance(X, HamiltonianField) or _bumps(X.system.potential):
        return None
    if not isinstance(F, (EnergyObservable, InertiaObservable)):
        return None
    system = X.system
    if F.system is not system and F.system != system:
        return None
    return system, isinstance(F, EnergyObservable)


def _chart_jets(system: BodySystem, energy: bool, zs: np.ndarray, m: int
                ) -> tuple[int, np.ndarray, list[tuple]]:
    """``(dim, g, comps)`` of the order-``m`` towers of ``system``'s energy
    (``energy``) or inertia along its Hamiltonian field, on the system's
    Jacobi chart (:class:`_JacobiPlan`), at Cartesian phase points ``zs``,
    one ``(phase_dim,)`` or a sample-minor stack: the chart's dimension,
    the observable's degree-``m`` jet and the field's degree ``m - 1``
    components, as :func:`~saarilab.fields.observable_coeffs` and
    :func:`~saarilab.fields.field_coeffs` give them on the Cartesian chart.

    ``I`` and ``H - |P|^2 / 2M`` do not depend on ``(R, P)``, and ``|P|^2
    / 2M`` is conserved, so their towers are the Cartesian ones on or off
    the centre-of-mass slice.  The energy and the field read one potential
    jet, and each momentum's partial reads the field's floats, so the
    energy towers stay exactly zero (see
    :func:`~saarilab.lie_tower._lie_step`).  On the chart ``I = sum_k mu_k
    |rho_k|^2``.
    """
    chart = system._jacobi_plan
    at = chart.to_chart(zs)
    q = at[:chart.nc]
    vjet = _potential(system, q, m, chart)
    g = (_energy_coeffs(chart, at, m, vjet) if energy
         else _diagonal_quadratic(chart.dim, m, np.arange(chart.nc), q,
                                  chart.mass))
    return chart.dim, g, _field_coeffs(chart, at, m - 1, vjet)


def energy_observable(system: BodySystem) -> EnergyObservable:
    return EnergyObservable(system)


# -- relative equilibria --------------------------------------------------------


@dataclass(frozen=True)
class RelEqSolution:
    """A central configuration rotating rigidly at angular velocity ``omega``.

    ``configuration`` is centre-of-mass centred; ``residual`` is the max-norm
    defect of ``grad V - omega^2 M q``.
    """

    system: BodySystem
    configuration: np.ndarray
    omega: float
    inertia: float
    residual: float

    def __post_init__(self):
        conf = np.asarray(self.configuration, float)
        conf.flags.writeable = False
        object.__setattr__(self, "configuration", conf)
        if self.omega <= 0:
            raise ValueError("relative equilibria need omega > 0")
        if not self.residual < 1e-10:
            raise NoConvergenceError(
                f"central-configuration residual {self.residual:.3e} "
                "exceeds 1e-10",
                residual=self.residual,
            )

    @property
    def omega_squared(self) -> float:
        return self.omega ** 2

    def to_json_dict(self) -> dict:
        return {
            "configuration": [[float(x) for x in row] for row in self.configuration],
            "omega": float(self.omega),
            "omega_squared": float(self.omega ** 2),
            "inertia": float(self.inertia),
            "residual": float(self.residual),
        }


def _central_residual(system: BodySystem, q2d: np.ndarray, omega2: float) -> float:
    g = grad_potential(system, q2d)
    mq = (system.masses[:, None] * q2d).ravel()
    return float(np.max(np.abs(g - omega2 * mq)))


def _recenter(system: BodySystem, q2d: np.ndarray) -> np.ndarray:
    return q2d - system.masses @ q2d / system.total_mass


def _make_solution(system: BodySystem, q2d: np.ndarray, omega2: float) -> RelEqSolution:
    q2d = _recenter(system, q2d)
    if omega2 <= 0:
        raise NoConvergenceError(
            f"balance requires omega^2 = {omega2:.3e} > 0 (repulsive range?)",
            residual=math.nan,
        )
    return RelEqSolution(
        system=system,
        configuration=q2d,
        omega=math.sqrt(omega2),
        inertia=moment_of_inertia(system, q2d),
        residual=_central_residual(system, q2d, omega2),
    )


def releq_lagrange(system: BodySystem, side: float = 1.0) -> RelEqSolution:
    """Equilateral-triangle relative equilibrium for three bodies.

    With all pair distances equal to ``side``, the balance closes for any
    masses at ``omega^2 = -f'(side) * M_total / side`` (Newtonian:
    ``M_total / side**3``).  ``side`` must be a finite number > 0, else
    :class:`ConfigError`.
    """
    if system.n_bodies != 3 or system.space_dim != 2:
        raise ValueError("Lagrange solutions need three planar bodies")
    side = _finite(side, "side", 0.0, strict=True)
    radius = side / math.sqrt(3.0)
    angles = [math.pi / 2 + 2 * math.pi * k / 3 for k in range(3)]
    q = np.array([[radius * math.cos(a), radius * math.sin(a)] for a in angles])
    omega2 = -_f_prime(_pair_terms(system.potential), side) * system.total_mass / side
    return _make_solution(system, q, omega2)


def releq_euler(system: BodySystem, ordering: tuple[int, int, int] = (0, 1, 2),
                gap: float = 1.0) -> RelEqSolution:
    """Collinear three-body relative equilibrium.

    Bodies sit on a line in the given order with ``gap`` the distance between
    the first two; the spacing ratio ``u = r_23 / r_12`` solves a scalar
    balance equation found by bracketed root-finding (for the Newtonian pair
    law this is Euler's quintic).  ``ordering`` must be a permutation of the
    integers 0, 1, 2 and ``gap`` a finite number > 0, else
    :class:`ConfigError`.
    """
    if system.n_bodies != 3:
        raise ValueError("Euler solutions are for three bodies")
    sequence = isinstance(ordering, (tuple, list))
    for i in ordering if sequence else ():
        _check_count(i, "ordering entry", at_least=0)
    if not sequence or sorted(ordering) != [0, 1, 2]:
        raise ConfigError(f"ordering must be a permutation of (0, 1, 2), "
                          f"got {ordering!r}")
    gap = _finite(gap, "gap", 0.0, strict=True)
    m = system.masses

    def lambdas(u: float) -> tuple[float, float]:
        x = np.zeros(3)
        x[ordering[0]] = 0.0
        x[ordering[1]] = gap
        x[ordering[2]] = gap * (1.0 + u)
        c = float(m @ x / system.total_mass)
        q = np.zeros((3, system.space_dim))
        q[:, 0] = x
        g = grad_potential(system, q).reshape(q.shape)[:, 0]
        a, b = ordering[0], ordering[2]
        return g[a] / (m[a] * (x[a] - c)), g[b] / (m[b] * (x[b] - c))

    def balance(u: float) -> float:
        la, lb = lambdas(u)
        return la - lb

    lo, hi = None, None
    grid = np.geomspace(1e-3, 1e3, 241)
    vals = [balance(u) for u in grid]
    for u0, u1, v0, v1 in zip(grid, grid[1:], vals, vals[1:]):
        if v0 == 0.0:
            lo = hi = u0
            break
        if v0 * v1 < 0:
            lo, hi = u0, u1
            break
    if lo is None:
        raise NoConvergenceError("no collinear balance bracket found")
    u = lo if lo == hi else optimize.brentq(balance, lo, hi, xtol=1e-15, rtol=1e-15)
    omega2 = lambdas(u)[0]
    x = np.zeros(3)
    x[ordering[1]] = gap
    x[ordering[2]] = gap * (1.0 + u)
    q = np.zeros((3, system.space_dim))
    q[:, 0] = x
    return _make_solution(system, q, omega2)


def releq_newton(system: BodySystem, initial_guess,
                 max_iter: int = 100, tol: float = 1e-12) -> RelEqSolution:
    """Gauss-Newton refinement of a central configuration from a guess.

    Unknowns are the configuration and ``omega^2``; the residual stacks the
    balance equations with centre-of-mass, scale (inertia of the guess) and
    rotational-gauge constraints.  Raises :class:`NoConvergenceError` with the
    final residual after ``max_iter`` iterations, and :class:`ConfigError`
    unless the guess holds ``coord_dim`` finite real numbers, ``max_iter``
    is an integer >= 1 and ``tol`` a finite number > 0.
    """
    _check_count(max_iter, "max_iter")
    tol = _finite(tol, "tol", 0.0, strict=True)
    guess = _finite_array(initial_guess, "guess")
    if guess.size != system.coord_dim:
        raise ConfigError(f"guess must hold {system.coord_dim} coordinates, "
                          f"got shape {guess.shape}")
    guess = _recenter(system, guess.reshape(system.n_bodies,
                                            system.space_dim))
    nc = system.coord_dim
    sd = system.space_dim
    m = system.masses
    i_target = moment_of_inertia(system, guess)
    mq = (m[:, None] * guess).ravel()
    g0 = grad_potential(system, guess)
    denom = float(mq @ guess.ravel())
    omega2 = float(g0 @ guess.ravel()) / denom if denom > 0 else 1.0

    if sd == 2:
        gauge_dirs = [np.column_stack([-guess[:, 1], guess[:, 0]]).ravel()]
    elif sd == 3:
        gauge_dirs = []
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = 1.0
            gauge_dirs.append(np.cross(np.broadcast_to(e, guess.shape), guess).ravel())
    else:
        gauge_dirs = []

    def residual(theta: np.ndarray) -> np.ndarray:
        q = theta[:nc].reshape(system.n_bodies, sd)
        w2 = theta[nc]
        parts = [grad_potential(system, q) - w2 * (m[:, None] * q).ravel()]
        parts.append(m @ q)
        parts.append([moment_of_inertia(system, q) - i_target])
        for d in gauge_dirs:
            parts.append([(m[:, None] * q).ravel() @ d / max(1.0, abs(denom))])
        return np.concatenate([np.atleast_1d(np.asarray(p, float)) for p in parts])

    theta = np.concatenate([guess.ravel(), [omega2]])
    r = residual(theta)
    for _ in range(max_iter):
        if np.max(np.abs(r)) < tol:
            break
        jac = np.empty((r.size, theta.size))
        for k in range(theta.size):
            h = 1e-7 * max(1.0, abs(theta[k]))
            tp = theta.copy()
            tp[k] += h
            tm = theta.copy()
            tm[k] -= h
            jac[:, k] = (residual(tp) - residual(tm)) / (2 * h)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        scale = 1.0
        for _ in range(12):
            trial = theta + scale * step
            rt = residual(trial)
            if np.linalg.norm(rt) <= np.linalg.norm(r) or scale < 1e-6:
                theta, r = trial, rt
                break
            scale *= 0.5
    else:
        raise NoConvergenceError(
            f"central-configuration solve stalled at residual "
            f"{float(np.max(np.abs(r))):.3e} after {max_iter} iterations",
            residual=float(np.max(np.abs(r))),
        )
    q = theta[:nc].reshape(system.n_bodies, sd)
    return _make_solution(system, q, float(theta[nc]))


def releq_trajectory(sol: RelEqSolution, t: float) -> PhaseState:
    """State of the rigidly rotating solution at time ``t`` (planar)."""
    if sol.system.space_dim != 2:
        raise ValueError("rigid-rotation states are generated in the plane")
    w = sol.omega
    c, s = math.cos(w * t), math.sin(w * t)
    rot = np.array([[c, -s], [s, c]])
    q = sol.configuration @ rot.T
    v = np.column_stack([-q[:, 1], q[:, 0]]) * w
    p = sol.system.masses[:, None] * v
    return PhaseState(q, p)


def find_equilibria(system: BodySystem, n_starts: int = 24, seed: int = 0,
                    box: float = 2.0) -> list[np.ndarray]:
    """Multistart search for genuine equilibria (``grad V = 0``).

    Returns distinct non-collision configurations found; for attractive pair
    laws like the Newtonian one there are none, and the list is empty.
    """
    nc = system.coord_dim
    found: list[np.ndarray] = []

    def wrapped(qflat: np.ndarray) -> np.ndarray:
        try:
            return grad_potential(system, qflat)
        except SingularityError:
            return np.full(nc, 1e6)

    for k in range(n_starts):
        rng = stream_rng(seed, 41, k)
        q0 = rng.uniform(-box, box, nc)
        sol = optimize.root(wrapped, q0, method="hybr", tol=1e-12)
        if not sol.success:
            continue
        q = sol.x.reshape(system.n_bodies, system.space_dim)
        if pair_distances(system, q).min() < 1e-3:
            continue
        if np.max(np.abs(grad_potential(system, q))) > 1e-8:
            continue
        if not any(np.allclose(q, prev, atol=1e-6) for prev in found):
            found.append(q)
    return found
