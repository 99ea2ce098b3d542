"""Random-perturbation experiments on the constant-observable obstruction.

The obstruction vector vanishes along any solution that keeps an observable
constant.  These tools measure, empirically, how rare such zeros are: perturb
the observable, the vector field, or the N-body potential by a seeded random
polynomial bump and count zero-obstruction samples across a phase-space box.
Random bumps are the constructive mechanism behind the density arguments this
mirrors, but a random draw is not a residual-set proof — every report labels
its conclusion "empirical".

Also here: the trajectory classifier that separates rigid rotations
(constant moment of inertia and shape) from orbits whose inertia genuinely
varies, using the measured energy drift as the noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    InsufficientSamplesError,
    _check_count,
    _finite,
    _finite_array,
)
from .fields import (
    PolynomialField,
    PolynomialObservable,
    SumField,
    SumObservable,
    stream_rng,
    _check_handles,
)
from .flow import Trajectory
from .jet_algebra import _CHUNK_ELEMENTS, TruncatedJet, table_size
from .lie_tower import _check_tower_order, _obstructions, default_tower_order
from .mech import (
    BodySystem,
    PerturbedPotential,
    _jacobi_tower,
    build_hamiltonian_field,
    pair_distances,
)

__all__ = [
    "TOL_ZERO",
    "PerturbationSpec",
    "perturb",
    "Sampler",
    "ScanReport",
    "obstruction_scan",
    "ExperimentReport",
    "genericity_experiment",
    "SaariClassification",
    "classify_trajectory",
]

#: Obstruction norms below this count as "zero" in scans.
TOL_ZERO = 1e-6

_TARGETS = ("observable", "vector_field", "potential")


# Stream tags keeping the named sub-streams of one global seed disjoint.
_TAG_BUMP = 7
_TAG_SAMPLE = 11


@dataclass(frozen=True)
class PerturbationSpec:
    """A seeded random polynomial bump.

    ``target`` names what receives the bump: the scalar observable, the
    vector field (componentwise), or the N-body potential (a bump in the
    configuration variables only).  Coefficients are iid standard normal
    scaled by ``epsilon``; identical spec and seed reproduce identical
    coefficients.
    """

    target: str
    degree: int
    epsilon: float
    seed: int

    def __post_init__(self):
        if self.target not in _TARGETS:
            raise ConfigError(
                f"unknown perturbation target {self.target!r}; "
                f"choose from {_TARGETS}"
            )
        _check_count(self.degree, "perturbation degree")
        _check_count(self.seed, "perturbation seed", at_least=0)
        object.__setattr__(self, "epsilon", _finite(
            self.epsilon, "perturbation epsilon", at_least=0.0))

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "degree": int(self.degree),
            "epsilon": float(self.epsilon),
            "seed": int(self.seed),
        }


def _bump_observable(spec: PerturbationSpec, dim: int,
                     rng: np.random.Generator) -> PolynomialObservable:
    """iid N(0,1) * epsilon on every monomial coefficient up to the degree,
    in table order."""
    coeffs = rng.normal(size=table_size(dim, spec.degree)) * spec.epsilon
    return PolynomialObservable(
        TruncatedJet(dim, spec.degree, np.zeros(dim), coeffs))


def perturb(spec: PerturbationSpec, base, trial: int = 0):
    """Return ``base`` plus the seeded random bump ``spec`` describes.

    * ``observable`` — ``base`` is a scalar handle; result sums it with a
      polynomial bump and exposes the bump as ``.bump``.
    * ``vector_field`` — ``base`` is a field handle; each component gets an
      independent bump; result exposes ``.bump``.
    * ``potential`` — ``base`` is a :class:`BodySystem`; the bump is a
      polynomial in the configuration variables only and the result is a new
      system with a :class:`PerturbedPotential`.

    ``epsilon == 0`` returns ``base`` itself.  ``trial`` separates the random
    streams of repeated draws under one spec.
    """
    if spec.epsilon == 0.0:
        return base
    if spec.target == "observable":
        bump = _bump_observable(
            spec, base.dim, stream_rng(spec.seed, _TAG_BUMP, trial, 0))
        out = SumObservable(base, bump)
        out.bump = bump
        return out
    if spec.target == "vector_field":
        rng = stream_rng(spec.seed, _TAG_BUMP, trial, 1)
        bump = PolynomialField(tuple(
            _bump_observable(spec, base.dim, rng) for _ in range(base.dim)))
        out = SumField(base, bump)
        out.bump = bump
        if hasattr(base, "system"):
            out.system = base.system
        return out
    # potential bump lives on configuration space only
    if not isinstance(base, BodySystem):
        raise ConfigError("potential perturbation needs a BodySystem")
    bump = _bump_observable(
        spec, base.coord_dim, stream_rng(spec.seed, _TAG_BUMP, trial, 2))
    return BodySystem(
        n_bodies=base.n_bodies,
        space_dim=base.space_dim,
        masses=base.masses,
        potential=PerturbedPotential(base=base.potential, bump=bump),
        com_fixed=base.com_fixed,
    )


# -- phase-space sampling -------------------------------------------------------


@dataclass(frozen=True)
class Sampler:
    """Uniform box sampler with counter-based streams.

    Each sample is drawn from its own ``(seed, index, attempt)`` stream, so
    results do not depend on evaluation or grouping order.  For N-body
    fields the draw is projected to the centre-of-mass frame when the system
    declares it, then rejected (up to ``max_attempts``) until all
    separations clear ``min_separation``; :meth:`draw_group` draws a whole
    group in one call, :meth:`draw` one sample."""

    box: tuple[float, float]
    count: int
    seed: int
    min_separation: float = 0.1
    max_attempts: int = 100

    def __post_init__(self):
        box = _finite_array(self.box, "sampler box")
        if box.shape != (2,) or not box[0] < box[1]:
            raise ConfigError(
                f"sampler box must be [lo, hi] with lo < hi, got {self.box!r}")
        _check_count(self.count, "sampler count")
        _check_count(self.seed, "sampler seed", at_least=0)
        object.__setattr__(self, "box", tuple(box.tolist()))
        object.__setattr__(self, "min_separation", _finite(
            self.min_separation, "sampler min_separation", at_least=0.0))

    def draw(self, index: int, dim: int, system: BodySystem | None = None
             ) -> np.ndarray:
        """Sample ``index``: the one-sample case of :meth:`draw_group`."""
        return self.draw_group([index], dim, system)[0]

    def draw_group(self, indices, dim: int, system: BodySystem | None = None
                   ) -> np.ndarray:
        """The samples ``indices``, one row each.  An attempt draws each
        pending sample from its own stream, projects and checks them all at
        once in one-sample arithmetic and redraws the rejected; the lowest
        index still pending after ``max_attempts`` is named in the error."""
        lo, hi = self.box
        out = np.empty((len(indices), dim))
        todo = np.arange(len(indices))
        for attempt in range(self.max_attempts):
            z = np.array([stream_rng(self.seed, _TAG_SAMPLE, indices[k],
                                     attempt).uniform(lo, hi, dim)
                          for k in todo]).reshape(len(todo), dim)
            if system is None:
                return z  # the first attempt, every sample in order
            nc = system.coord_dim
            shape = (len(todo), system.n_bodies, system.space_dim)
            q, p = z[:, :nc].reshape(shape), z[:, nc:].reshape(shape)
            if system.com_fixed:
                q = q - (system.masses @ q / system.total_mass)[:, None]
                p = p - p.sum(axis=1, keepdims=True) / system.n_bodies
            ok = ~(pair_distances(system, q) < self.min_separation).any(axis=1)
            out[todo[ok]] = np.concatenate([q, p], axis=1)[ok].reshape(-1, dim)
            todo = todo[~ok]
            if not todo.size:
                return out
        raise InsufficientSamplesError(
            f"sample {min(indices[k] for k in todo)}: no collision-free draw "
            f"in {self.max_attempts} attempts"
        )

    def to_json_dict(self) -> dict:
        return {
            "box": [float(self.box[0]), float(self.box[1])],
            "count": int(self.count),
            "seed": int(self.seed),
            "min_separation": float(self.min_separation),
        }


@dataclass(frozen=True)
class ScanReport:
    """Classified obstruction norms over one batch of samples.

    The four exclusive classes (equilibrium-excluded, F-critical-excluded,
    singular-excluded, zero/nonzero obstruction) partition ``n_samples``.
    """

    n_samples: int
    n_excluded_equilibrium: int
    n_excluded_F_critical: int
    n_excluded_singular: int
    n_obstruction_zero: int
    n_obstruction_nonzero: int
    min_nonexcluded_norm: float
    tol_zero: float
    tol_eq: float
    tol_crit: float
    seed: int
    tower_order: int

    def __post_init__(self):
        total = (self.n_excluded_equilibrium + self.n_excluded_F_critical
                 + self.n_excluded_singular + self.n_obstruction_zero
                 + self.n_obstruction_nonzero)
        if total != self.n_samples:
            raise ValueError("scan counts must partition n_samples")

    @property
    def n_nonexcluded(self) -> int:
        return self.n_obstruction_zero + self.n_obstruction_nonzero

    @property
    def zero_fraction(self) -> float:
        if self.n_nonexcluded == 0:
            return math.nan
        return self.n_obstruction_zero / self.n_nonexcluded

    def to_json_dict(self) -> dict:
        mn = self.min_nonexcluded_norm
        return {
            "n_samples": self.n_samples,
            "n_excluded_equilibrium": self.n_excluded_equilibrium,
            "n_excluded_F_critical": self.n_excluded_F_critical,
            "n_excluded_singular": self.n_excluded_singular,
            "n_obstruction_zero": self.n_obstruction_zero,
            "n_obstruction_nonzero": self.n_obstruction_nonzero,
            "min_nonexcluded_norm": None if math.isnan(mn) else float(mn),
            "tolerances": {
                "tol_zero": float(self.tol_zero),
                "tol_eq": float(self.tol_eq),
                "tol_crit": float(self.tol_crit),
            },
            "seed": int(self.seed),
            "tower_order": int(self.tower_order),
        }


def _field_and_system(X):
    if isinstance(X, BodySystem):
        return build_hamiltonian_field(X), X
    return X, getattr(X, "system", None)


def obstruction_scan(X, F, sampler: Sampler, m: int | None = None,
                     tol_zero: float = TOL_ZERO, tol_eq: float = 1e-9,
                     tol_crit: float = 1e-9) -> ScanReport:
    """Evaluate the obstruction at each sample and tally the outcomes.

    ``X`` may be a field handle or a :class:`BodySystem` (its Hamiltonian
    field is used).  Samples within ``tol_eq`` of an equilibrium or
    ``tol_crit`` of a critical point of ``F`` are excluded, mirroring the
    exclusion zones of the theory; singular evaluations are counted and
    excluded rather than fatal.  The default tower order is one more than the
    effective phase dimension.  Each tolerance must be a finite number > 0.
    The phase dimension is the field's ``dim``, else the observable's; two
    handles without one, or a handle without exact jets, are a
    :class:`ConfigError` before any sample is drawn.

    Samples are drawn by :meth:`Sampler.draw_group`, one call per block of
    whole groups of about ``_CHUNK_ELEMENTS`` coordinates (all samples of
    a short scan), and run in groups of S: the field is evaluated at each
    sample (a singular one is dropped there), the others' jets are built as
    sample-minor stacks ``(coeffs, S)`` (see :mod:`saarilab.fields`), and
    one tower chain runs them (see :func:`~saarilab.jet_algebra._product`);
    the group's ``<grad F, X>`` check and its tallies run on its arrays.  Every
    kernel runs each column in one-sample arithmetic and order, so the
    report is bitwise equal to evaluating one sample at a time.
    ``S = max(1, _CHUNK_ELEMENTS // (table_size(n, m) * n))``, with ``n``
    the dimension of the chart the towers run on: ``2 (N - 1) space_dim``
    on the Jacobi chart of a translation-invariant system's energy or
    inertia (see :func:`~saarilab.lie_tower._obstructions`), else the phase
    dimension.  So S is 520 at planar two-body m = 5 and 5 at planar
    three-body m = 7 on the Jacobi chart.  On the Cartesian chart it is 25
    at planar two-body m = 5, and 1 at planar three-body m = 7, whose
    products gain nothing from a group and which runs on plain 1-D arrays.
    """
    tol_zero = _finite(tol_zero, "tol_zero", 0.0, strict=True)
    tol_eq = _finite(tol_eq, "tol_eq", 0.0, strict=True)
    tol_crit = _finite(tol_crit, "tol_crit", 0.0, strict=True)
    fieldX, system = _field_and_system(X)
    dim = getattr(fieldX, "dim", None) or getattr(F, "dim", None)
    _check_handles(F, fieldX, dim)
    if dim is None:
        raise ConfigError(
            "obstruction_scan needs the phase dimension: neither the field "
            "nor the observable has a dim")
    if m is None:
        n_eff = system.effective_phase_dim if system is not None else dim
        m = default_tower_order(n_eff)
    _check_tower_order(m)
    route = _jacobi_tower(F, fieldX)
    n = dim if route is None else route[0]._jacobi_plan.dim
    group = max(1, _CHUNK_ELEMENTS // (table_size(n, m) * n))
    block = group * max(1, _CHUNK_ELEMENTS // (group * dim))
    n_eq = n_crit = n_sing = n_zero = n_nonzero = 0
    min_norm = math.inf
    for start in range(0, sampler.count, group):
        if start % block == 0:
            points = sampler.draw_group(
                range(start, min(start + block, sampler.count)), dim, system)
        values, eq, crit, singular = _obstructions(
            F, fieldX, points[start % block:][:group], m, tol_eq, tol_crit)
        rest = ~(eq | crit | np.isnan(values[0]))  # NaN: singular
        norms = np.abs(values[:, rest]).max(axis=0)
        n_sing += len(singular)
        n_eq += int(eq.sum())
        n_crit += int((crit & ~eq).sum())
        n_zero += int((norms < tol_zero).sum())
        n_nonzero += int((norms >= tol_zero).sum())
        min_norm = min(min_norm, float(norms.min(initial=math.inf)))
    return ScanReport(
        n_samples=sampler.count,
        n_excluded_equilibrium=n_eq,
        n_excluded_F_critical=n_crit,
        n_excluded_singular=n_sing,
        n_obstruction_zero=n_zero,
        n_obstruction_nonzero=n_nonzero,
        min_nonexcluded_norm=min_norm if min_norm < math.inf else math.nan,
        tol_zero=tol_zero,
        tol_eq=tol_eq,
        tol_crit=tol_crit,
        seed=sampler.seed,
        tower_order=m,
    )


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregate of repeated perturb-then-scan trials.

    ``pooled_zero_fraction`` pools zero counts over all non-excluded samples
    of all trials.  The ``note`` flags that random bumps give empirical
    evidence, not a residual-set proof.
    """

    spec: PerturbationSpec
    trials: tuple[ScanReport, ...]
    pooled_zero_fraction: float
    n_nonexcluded_total: int
    note: str = field(
        default="empirical evidence from seeded random polynomial "
                "perturbations; not a residuality proof"
    )

    def to_json_dict(self) -> dict:
        pz = self.pooled_zero_fraction
        return {
            "perturbation": self.spec.to_json_dict(),
            "trials": [t.to_json_dict() for t in self.trials],
            "pooled_zero_fraction": None if math.isnan(pz) else float(pz),
            "n_nonexcluded_total": int(self.n_nonexcluded_total),
            "note": self.note,
        }


def genericity_experiment(base, F, spec: PerturbationSpec, trials: int,
                          sampler: Sampler, m: int | None = None,
                          tol_zero: float = TOL_ZERO, tol_eq: float = 1e-9,
                          tol_crit: float = 1e-9) -> ExperimentReport:
    """Repeatedly perturb and scan; pool the zero-obstruction fraction.

    ``base`` is a field handle or :class:`BodySystem`; the perturbation
    applies per ``spec.target`` — bumping ``F`` (observable), the field, or
    the potential (leaving ``F`` fixed).  Each trial draws a fresh bump from
    the trial-indexed stream and scans with a trial-shifted sampler seed.
    The tolerances are checked as in :func:`obstruction_scan`.
    """
    _check_count(trials, "trials")
    reports = []
    zero_total = 0
    nonexcluded_total = 0
    for t in range(trials):
        X_t, F_t = base, F
        if spec.target == "observable":
            F_t = perturb(spec, F, trial=t)
        else:
            X_t = perturb(spec, base, trial=t)
        trial_sampler = replace(sampler, seed=sampler.seed + t)
        rep = obstruction_scan(X_t, F_t, trial_sampler, m=m,
                               tol_zero=tol_zero, tol_eq=tol_eq,
                               tol_crit=tol_crit)
        reports.append(rep)
        zero_total += rep.n_obstruction_zero
        nonexcluded_total += rep.n_nonexcluded
    pooled = (zero_total / nonexcluded_total if nonexcluded_total > 0
              else math.nan)
    return ExperimentReport(
        spec=spec,
        trials=tuple(reports),
        pooled_zero_fraction=pooled,
        n_nonexcluded_total=nonexcluded_total,
    )


# -- trajectory classification ---------------------------------------------------


@dataclass(frozen=True)
class SaariClassification:
    """Verdict on whether a trajectory rotates rigidly.

    ``RelativeEquilibrium`` needs both the inertia and the shape (mutual
    distances) to stay constant within tolerance; ``NonConstantF`` needs the
    inertia variation to clear the energy-drift noise floor by ``margin``;
    anything in between is ``Indeterminate``.
    """

    verdict: str
    inertia_rel_variation: float
    shape_variation: float
    energy_drift: float
    tol_inertia: float
    tol_shape: float
    margin: float

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "inertia_rel_variation": float(self.inertia_rel_variation),
            "shape_variation": float(self.shape_variation),
            "energy_drift": float(self.energy_drift),
            "tolerances": {
                "tol_inertia": float(self.tol_inertia),
                "tol_shape": float(self.tol_shape),
                "margin": float(self.margin),
            },
        }


def classify_trajectory(traj: Trajectory, tol_inertia: float | None = None,
                        tol_shape: float = 1e-6, margin: float = 100.0,
                        tol_eq: float = 1e-9) -> SaariClassification:
    """Classify an N-body trajectory by its inertia and shape variation.

    ``inertia_rel_variation`` is (max I - min I) / mean I; ``shape_variation``
    the worst relative spread of any mutual distance; ``energy_drift`` the
    relative energy spread (max E - min E) / |mean E|, serving as the
    integration noise floor, not the trajectory's own ``energy_drift``,
    max |E - E0|.  The inertia tolerance defaults to ``10 x energy_drift``
    with a 1e-10 floor so that analytically generated rigid rotations (zero
    measured drift) still classify.  A given ``tol_inertia`` and ``tol_shape``, ``margin`` and
    ``tol_eq`` must be finite numbers above 0, else :class:`ConfigError`.
    """
    if tol_inertia is not None:
        tol_inertia = _finite(tol_inertia, "tol_inertia", 0.0, strict=True)
    tol_shape = _finite(tol_shape, "tol_shape", 0.0, strict=True)
    margin = _finite(margin, "margin", 0.0, strict=True)
    tol_eq = _finite(tol_eq, "tol_eq", 0.0, strict=True)
    system = traj.system
    if system is None:
        raise ConfigError("classification needs an N-body trajectory")
    if traj.times.size < 10:
        raise InsufficientSamplesError(
            f"trajectory has {traj.times.size} samples; need >= 10"
        )
    inertia = traj.inertia
    mean_i = float(np.mean(inertia))
    irv = float((np.max(inertia) - np.min(inertia)) / abs(mean_i))
    energy = traj.energy
    drift = float((np.max(energy) - np.min(energy))
                  / max(abs(float(np.mean(energy))), 1e-300))
    shape = 0.0
    for r in pair_distances(system, traj.states[:, :system.coord_dim]).T:
        spread = float((np.max(r) - np.min(r)) / np.mean(r))
        shape = max(shape, spread)
    if tol_inertia is None:
        tol_inertia = max(10.0 * drift, 1e-10)

    speeds = np.max(np.abs([np.asarray(traj.field(z), float)
                            for z in traj.states[:: max(1, traj.times.size // 32)]]),
                    axis=1)
    scale = max(1.0, float(np.max(np.abs(traj.states[0]))))
    if float(np.max(speeds)) < tol_eq * scale:
        verdict = "Equilibrium"
    elif irv < tol_inertia and shape < tol_shape:
        verdict = "RelativeEquilibrium"
    elif irv > margin * drift:
        verdict = "NonConstantF"
    else:
        verdict = "Indeterminate"
    return SaariClassification(
        verdict=verdict,
        inertia_rel_variation=irv,
        shape_variation=shape,
        energy_drift=drift,
        tol_inertia=tol_inertia,
        tol_shape=tol_shape,
        margin=margin,
    )
