"""Trajectory integration with conservation monitoring.

Three integrators behind one entry point:

* ``stormer_verlet`` — fixed-step kick-drift-kick leapfrog, only for fields
  that expose the separable structure (``separable``, ``minv``, ``grad_v``);
  symplectic, so energy errors stay bounded on long runs;
* ``rk4`` — fixed-step classical Runge-Kutta for generic fields;
* ``dop853`` — adaptive high-order Runge-Kutta with tolerance control.

Every accepted step is recorded together with energy, angular momentum,
moment of inertia and minimum pairwise separation (NaN where the field has no
N-body structure).  Integration halts with a partial trajectory when bodies
approach collision (separation below ``MIN_SEPARATION``) or when the adaptive
step underflows.

``derivative_probe`` estimates time derivatives of a scalar observable along
a trajectory by re-integrating a short window at tight tolerance and applying
Richardson-extrapolated central differences; it is deliberately independent
of the jet machinery so the two can check each other.

``figure8_initial_conditions`` gives the equal-mass figure-eight, the
standard non-rigid control, refined by Gauss-Newton shooting.  Each shoot
integrates a third of the period and compares the end state with the
initial one relabelled cyclically, which a choreography returns to after
a third of its period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    ConfigError,
    InsufficientSamplesError,
    NoConvergenceError,
    SingularityError,
    _check_count,
    _finite,
    _flag,
)
from .mech import (
    BodySystem,
    NewtonianPotential,
    angular_momentum,
    build_hamiltonian_field,
    hamiltonian,
    moment_of_inertia,
    pair_distances,
)

__all__ = [
    "MIN_SEPARATION",
    "STEP_UNDERFLOW",
    "MAX_FIXED_STEPS",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "reverse_check",
    "ProbeResult",
    "derivative_probe",
    "figure8_system",
    "figure8_initial_conditions",
]

#: Pairwise separation below which integration halts.
MIN_SEPARATION = 1e-6

#: Adaptive steps below this count as underflow.
STEP_UNDERFLOW = 1e-14

#: Most steps a fixed-step run may take.  Its times and states are
#: allocated before the first step: 10**7 planar 3-body states are 1 GB.
MAX_FIXED_STEPS = 10 ** 7

_METHODS = ("stormer_verlet", "rk4", "dop853")


@dataclass(frozen=True)
class IntegratorConfig:
    """Method selection plus step control.

    ``step`` is the fixed step size for ``stormer_verlet`` / ``rk4`` and the
    ``(rtol, atol)`` pair for ``dop853``.  Steps, tolerances and
    ``max_time`` must be finite positive numbers (a bool is not one), and a
    fixed step must cover ``max_time`` in at most :data:`MAX_FIXED_STEPS`
    steps, else :class:`ConfigError`; they are stored as floats.
    """

    method: str = "dop853"
    step: float | tuple[float, float] = (1e-10, 1e-12)
    max_time: float = 1.0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(
                f"unknown integrator {self.method!r}; choose from {_METHODS}"
            )
        max_time = _finite(self.max_time, "max_time", 0.0, strict=True)
        if self.method == "dop853":
            try:
                rtol, atol = self.step
            except (TypeError, ValueError):
                raise ConfigError("dop853 needs step=(rtol, atol)") from None
            step = (_finite(rtol, "rtol", 0.0, strict=True),
                    _finite(atol, "atol", 0.0, strict=True))
        else:
            step = _finite(self.step, "fixed step", 0.0, strict=True)
            if step < STEP_UNDERFLOW:
                raise ConfigError(f"step {step} underflows {STEP_UNDERFLOW}")
            if max_time / step > MAX_FIXED_STEPS:
                raise ConfigError(f"max_time {max_time:g} takes more than "
                                  f"{MAX_FIXED_STEPS} steps of {step:g}")
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "max_time", max_time)

    def to_json_dict(self) -> dict:
        step = list(self.step) if isinstance(self.step, tuple) else self.step
        return {"method": self.method, "step": step,
                "max_time": self.max_time}


def _system_of(field):
    return getattr(field, "system", None)


class Trajectory:
    """Sampled solution with per-sample conservation monitors.

    ``status`` is ``"completed"``, ``"singular"`` (halted near collision) or
    ``"step_underflow"``.  States are flat phase vectors, one row per time.
    """

    def __init__(self, field, times: np.ndarray, states: np.ndarray,
                 status: str, config: IntegratorConfig):
        times = np.asarray(times, float)
        states = np.asarray(states, float)
        if times.ndim != 1 or states.shape[0] != times.size:
            raise ValueError("times and states must align")
        if times.size >= 2 and np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        times.flags.writeable = False
        states.flags.writeable = False
        self.field = field
        self.times = times
        self.states = states
        self.status = status
        self.config = config
        self.system = _system_of(field)
        self._fill_monitors()

    def _fill_monitors(self) -> None:
        m = self.times.size
        sysb = self.system
        if sysb is None:
            energy_fn = getattr(self.field, "energy", None)
            if energy_fn is not None:
                self.energy = np.array([energy_fn(z) for z in self.states])
            else:
                self.energy = np.full(m, math.nan)
            self.angular_momentum = np.full(m, math.nan)
            self.inertia = np.full(m, math.nan)
            self.min_sep = np.full(m, math.nan)
            return
        q = self.states[:, :sysb.coord_dim]
        self.energy = hamiltonian(sysb, self.states)
        self.angular_momentum = angular_momentum(sysb, self.states)
        self.inertia = moment_of_inertia(sysb, q)
        self.min_sep = pair_distances(sysb, q).min(axis=-1)

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def energy_drift(self) -> float:
        """Max absolute energy deviation from the initial value."""
        if np.any(np.isnan(self.energy)):
            return math.nan
        return float(np.max(np.abs(self.energy - self.energy[0])))

    def interpolate(self, t: float) -> np.ndarray:
        """Cubic Hermite interpolation between recorded samples."""
        times = self.times
        if not times[0] <= t <= times[-1]:
            raise ValueError(f"t={t} outside [{times[0]}, {times[-1]}]")
        idx = int(np.searchsorted(times, t, side="right") - 1)
        idx = min(idx, times.size - 2) if times.size > 1 else 0
        if times.size == 1 or t == times[idx]:
            return self.states[idx].copy()
        t0, t1 = times[idx], times[idx + 1]
        z0, z1 = self.states[idx], self.states[idx + 1]
        f0 = np.asarray(self.field(z0), float)
        f1 = np.asarray(self.field(z1), float)
        h = t1 - t0
        s = (t - t0) / h
        h00 = 2 * s ** 3 - 3 * s ** 2 + 1
        h10 = s ** 3 - 2 * s ** 2 + s
        h01 = -2 * s ** 3 + 3 * s ** 2
        h11 = s ** 3 - s ** 2
        return h00 * z0 + h10 * h * f0 + h01 * z1 + h11 * h * f1

    def to_csv(self, path) -> None:
        """Write ``t,q...,p...,energy,ang_mom,inertia,min_sep`` rows."""
        dim = self.states.shape[1]
        if dim % 2 == 0:
            nc = dim // 2
            cols = [f"q{i}" for i in range(nc)] + [f"p{i}" for i in range(nc)]
        else:
            cols = [f"z{i}" for i in range(dim)]
        header = ",".join(["t", *cols, "energy", "ang_mom", "inertia", "min_sep"])
        data = np.column_stack([
            self.times, self.states, self.energy, self.angular_momentum,
            self.inertia, self.min_sep,
        ])
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header,
                   comments="")

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "t_final": self.t_final,
            "n_samples": int(self.times.size),
            "final_state": [float(x) for x in self.final_state],
            "energy_drift": float(self.energy_drift),
        }


def _as_flat(z0) -> np.ndarray:
    if hasattr(z0, "flat") and callable(getattr(z0, "flat")):
        return np.asarray(z0.flat(), float)
    return np.asarray(z0, float).ravel()


def _fixed_steps(h: float, max_time: float) -> tuple[int, int, float]:
    """Steps covering [0, max_time] exactly: the step count, the count of
    full steps of size ``h`` that start it, and the size of the one
    remainder step after them (``h`` when there is none)."""
    n_full = math.floor(max_time / h + 1e-9)
    remainder = max_time - n_full * h
    if remainder > 1e-9 * h:
        return n_full + 1, n_full, remainder
    return n_full, n_full, h


def _integrate_verlet(field, z0, cfg) -> tuple[np.ndarray, np.ndarray, str]:
    if not getattr(field, "separable", False):
        raise ConfigError(
            "stormer_verlet needs a separable kinetic+potential field"
        )
    system = _system_of(field)
    minv = np.asarray(field.minv, float)
    nq = minv.size
    q = z0[:nq].copy()
    p = z0[nq:].copy()
    n_steps, n_full, remainder = _fixed_steps(cfg.step, cfg.max_time)
    times = np.zeros(n_steps + 1)
    states = np.empty((n_steps + 1, z0.size))
    states[0] = z0
    status = "completed"
    filled = 1
    g = field.grad_v(q)
    for k in range(n_steps):
        h = cfg.step if k < n_full else remainder
        p_half = p - 0.5 * h * g
        q = q + h * p_half * minv
        if (system is not None
                and pair_distances(system, q).min() < MIN_SEPARATION):
            status = "singular"
            break
        g = field.grad_v(q)
        p = p_half - 0.5 * h * g
        times[filled] = times[filled - 1] + h
        states[filled, :nq] = q
        states[filled, nq:] = p
        filled += 1
    return times[:filled], states[:filled], status


def _integrate_rk4(field, z0, cfg) -> tuple[np.ndarray, np.ndarray, str]:
    system = _system_of(field)
    z = z0.copy()
    n_steps, n_full, remainder = _fixed_steps(cfg.step, cfg.max_time)
    times = np.zeros(n_steps + 1)
    states = np.empty((n_steps + 1, z0.size))
    states[0] = z0
    status = "completed"
    filled = 1
    for k in range(n_steps):
        h = cfg.step if k < n_full else remainder
        k1 = np.asarray(field(z), float)
        k2 = np.asarray(field(z + 0.5 * h * k1), float)
        k3 = np.asarray(field(z + 0.5 * h * k2), float)
        k4 = np.asarray(field(z + h * k3), float)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (system is not None and pair_distances(
                system, z[:system.coord_dim]).min() < MIN_SEPARATION):
            status = "singular"
            break
        times[filled] = times[filled - 1] + h
        states[filled] = z
        filled += 1
    return times[:filled], states[:filled], status


def _integrate_dop853(field, z0, cfg) -> tuple[np.ndarray, np.ndarray, str]:
    system = _system_of(field)
    rtol, atol = cfg.step
    events = []
    if system is not None:
        def near_collision(t, y):
            return (pair_distances(system, y[:system.coord_dim]).min()
                    - MIN_SEPARATION)

        near_collision.terminal = True
        near_collision.direction = -1
        events.append(near_collision)
    sol = solve_ivp(
        lambda t, y: np.asarray(field(y), float), (0.0, cfg.max_time), z0,
        method="DOP853", rtol=rtol, atol=atol, events=events or None,
        dense_output=False,
    )
    if sol.status == 1:
        status = "singular"
    elif sol.status == 0:
        status = "completed"
    else:
        status = "step_underflow"
    times = sol.t
    states = sol.y.T
    keep = np.concatenate([[True], np.diff(times) > 0])
    return times[keep], states[keep], status


def integrate(field, z0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate ``dz/dt = field(z)`` from ``z0`` for ``cfg.max_time``.

    Halts early (partial trajectory, status ``"singular"``) when bodies of an
    N-body field come within ``MIN_SEPARATION``.  A non-finite ``z0`` is a
    :class:`ConfigError`, raised before the first step.
    """
    z0 = _as_flat(z0)
    if not np.all(np.isfinite(z0)):
        raise ConfigError(f"initial state must be finite, got {z0.tolist()}")
    system = _system_of(field)
    if (system is not None and pair_distances(
            system, z0[:system.coord_dim]).min() < MIN_SEPARATION):
        raise SingularityError("initial state is already near collision")
    if cfg.method == "stormer_verlet":
        times, states, status = _integrate_verlet(field, z0, cfg)
    elif cfg.method == "rk4":
        times, states, status = _integrate_rk4(field, z0, cfg)
    else:
        times, states, status = _integrate_dop853(field, z0, cfg)
    return Trajectory(field, times, states, status, cfg)


class _Reversed:
    """Time reversal of a field; keeps the separable structure usable."""

    def __init__(self, field):
        self._field = field
        self.separable = getattr(field, "separable", False)
        if self.separable:
            self.minv = -np.asarray(field.minv, float)
        sysb = _system_of(field)
        if sysb is not None:
            self.system = sysb

    def grad_v(self, q):
        return -self._field.grad_v(q)

    def __call__(self, z):
        return -np.asarray(self._field(z), float)


def reverse_check(field, z0, cfg: IntegratorConfig) -> float:
    """Integrate forward then back; return the Euclidean return error."""
    fwd = integrate(field, z0, cfg)
    back = integrate(_Reversed(field), fwd.final_state, cfg)
    return float(np.linalg.norm(back.final_state - _as_flat(z0)))


# -- figure-eight choreography ---------------------------------------------------

# Equal-mass three-body figure-8: one body starts at the origin moving with
# velocity v3, the other two sit symmetrically at +-(x1, y1) with -v3/2 each.
_FIG8_POS = (0.97000436, -0.24308753)
_FIG8_VEL = (-0.93240737, -0.86473146)
_FIG8_PERIOD = 6.32591398

# A third of a period on, body k is where body _FIG8_SHIFT[k] started;
# indexing a flat state (q, p) with _FIG8_RELABEL relabels it so.
_FIG8_SHIFT = (2, 0, 1)
_FIG8_RELABEL = np.array([block + 2 * b + c for block in (0, 6)
                          for b in _FIG8_SHIFT for c in range(2)])


def figure8_system():
    """Three unit masses under the Newtonian pair law."""
    return BodySystem(3, 2, np.ones(3), NewtonianPotential())


def _fig8_state(vx: float, vy: float) -> np.ndarray:
    x1, y1 = _FIG8_POS
    q = np.array([x1, y1, -x1, -y1, 0.0, 0.0])
    p = np.array([-vx / 2, -vy / 2, -vx / 2, -vy / 2, vx, vy])
    return np.concatenate([q, p])


def figure8_initial_conditions(refine: bool = True,
                               tol: float = 1e-11,
                               max_iter: int = 12):
    """Equal-mass figure-8 initial state and period.

    Starts from the standard published values and, when ``refine`` is set,
    runs a Gauss-Newton shooting iteration on (velocity of the middle body,
    period) under a tight adaptive integration.  Each shoot runs a third of
    the period: the residual is the one-third defect ``z(T/3) - P z(0)``,
    where ``P`` relabels the bodies cyclically, body k of ``P z`` being
    body ``(2, 0, 1)[k]`` of ``z``.  The orbit is a choreography, all three
    bodies tracing one curve a third of a period apart, so it passes
    through ``P z(0)`` at ``T/3``.  Relabelling equal masses maps solutions
    to solutions, so ``z(T/3) = P z(0)`` gives ``z(2T/3) = P^2 z(0)`` and
    ``z(T) = P^3 z(0) = z(0)``: closing the third closes the period, in a
    third of the integration.  Returns ``(system, z0, period)``.

    ``refine`` must be a bool, ``tol`` a finite number > 0 and ``max_iter``
    an integer >= 1, else :class:`ConfigError`.  ``tol`` bounds the largest
    entry of the one-third defect; if it is still ``>= tol`` after
    ``max_iter`` Gauss-Newton steps, :class:`NoConvergenceError` carries
    that entry as its ``residual``.
    """
    _flag(refine, "refine")
    tol = _finite(tol, "tol", 0.0, strict=True)
    _check_count(max_iter, "max_iter")
    system = figure8_system()
    field = build_hamiltonian_field(system)
    theta = np.array([*_FIG8_VEL, _FIG8_PERIOD])
    if not refine:
        return system, _fig8_state(theta[0], theta[1]), float(theta[2])

    def shoot(th: np.ndarray) -> np.ndarray:
        z0 = _fig8_state(th[0], th[1])
        sol = solve_ivp(lambda t, y: field(y), (0.0, th[2] / 3.0), z0,
                        method="DOP853", rtol=1e-13, atol=1e-13)
        if sol.status != 0:
            raise InsufficientSamplesError("figure-8 shooting integration failed")
        return sol.y[:, -1] - z0[_FIG8_RELABEL]

    r = shoot(theta)
    for _ in range(max_iter):
        if np.max(np.abs(r)) < tol:
            break
        jac = np.empty((r.size, 3))
        for k in range(3):
            h = 1e-7 * max(1.0, abs(theta[k]))
            tp = theta.copy()
            tp[k] += h
            jac[:, k] = (shoot(tp) - r) / h
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        theta = theta + step
        r = shoot(theta)
    defect = float(np.max(np.abs(r)))
    if not defect < tol:
        raise NoConvergenceError(
            f"figure-8 refinement left a one-third defect of {defect:.3e} "
            f"(tol {tol:g}) after {max_iter} steps", residual=defect)
    return system, _fig8_state(theta[0], theta[1]), float(theta[2])


# -- independent time-derivative estimates -------------------------------------

_PROBE_RTOL = 1e-13
_PROBE_ATOL = 1e-13
_PROBE_LADDER = (1.0, 2.0, 4.0, 8.0)
_PROBE_MAX_STEP = 0.125


def _stencil_1d(order: int) -> list[tuple[float, float]]:
    """(offset, weight) pairs of the central difference delta^order.

    delta f(x) = f(x + 1/2) - f(x - 1/2); offsets are in step units, weights
    are (-1)^t * C(order, t).  Bias is O(h^2).
    """
    return [
        (order / 2.0 - t, (-1.0) ** t * math.comb(order, t))
        for t in range(order + 1)
    ]


@dataclass(frozen=True)
class ProbeResult:
    """Estimated ``d^k/dt^k F(z(t))`` at ``t0`` for ``k = 1..k_max``."""

    t0: float
    state: np.ndarray
    f_value: float
    values: np.ndarray
    errors: np.ndarray

    def value(self, k: int) -> float:
        if not 1 <= k <= self.values.size:
            raise IndexError(f"order {k} outside 1..{self.values.size}")
        return float(self.values[k - 1])


def derivative_probe(F, traj: Trajectory, t0: float, k_max: int,
                     rtol: float = _PROBE_RTOL,
                     atol: float = _PROBE_ATOL) -> ProbeResult:
    """Central-difference time derivatives of ``F`` along a trajectory.

    Re-integrates a window around ``t0`` at tight tolerance starting from the
    recorded sample just before the window, evaluates ``F`` on a ladder of
    uniform sub-grids, and Richardson-extrapolates; per-order error estimates
    combine the extrapolation defect with the tolerance noise amplified by
    the stencil.  Raises :class:`InsufficientSamplesError` when the window
    does not fit inside the trajectory.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    noise_floor = max(rtol, atol)
    plans = []
    w_max = 0.0
    for k in range(1, k_max + 1):
        base = noise_floor ** (1.0 / (k + 4))
        steps = [base * f for f in _PROBE_LADDER if base * f <= _PROBE_MAX_STEP]
        if not steps:
            steps = [_PROBE_MAX_STEP]
        plans.append((k, steps))
        w_max = max(w_max, (k / 2.0) * steps[-1])
    t_lo, t_hi = t0 - w_max, t0 + w_max
    times = traj.times
    if t_lo < times[0] or t_hi > times[-1]:
        raise InsufficientSamplesError(
            f"probe window [{t_lo:.6g}, {t_hi:.6g}] extends outside the "
            f"trajectory span [{times[0]:.6g}, {times[-1]:.6g}]"
        )
    anchor = int(np.searchsorted(times, t_lo, side="right") - 1)
    t_anchor = float(times[anchor])
    z_anchor = traj.states[anchor]

    wanted = {t0}
    for k, steps in plans:
        for h in steps:
            for off, _ in _stencil_1d(k):
                wanted.add(t0 + off * h)
    t_eval = np.array(sorted(wanted))
    sol = solve_ivp(
        lambda t, y: np.asarray(traj.field(y), float),
        (t_anchor, float(t_eval[-1])), z_anchor,
        method="DOP853", rtol=rtol, atol=atol, t_eval=t_eval,
    )
    if not sol.success or sol.y.shape[1] != t_eval.size:
        raise InsufficientSamplesError(
            "high-accuracy re-integration failed inside the probe window"
        )
    phi = {}
    for t, col in zip(t_eval, sol.y.T):
        phi[t] = float(F(col))
    z_t0 = sol.y.T[int(np.searchsorted(t_eval, t0))]
    scale = max(abs(v) for v in phi.values())
    noise = noise_floor * max(scale, 1.0)

    values = np.empty(k_max)
    errors = np.empty(k_max)
    for k, steps in plans:
        stencil = _stencil_1d(k)
        weight_sum = 2.0 ** k
        ests = []
        for h in steps:
            acc = sum(w * phi[t0 + off * h] for off, w in stencil)
            ests.append(acc / h ** k)
        best_val, best_err = ests[0], math.inf
        for lo, hi, h_lo in zip(ests, ests[1:], steps):
            rich = (4.0 * lo - hi) / 3.0
            err = abs(lo - hi) / 3.0 + noise * weight_sum / h_lo ** k
            if err < best_err:
                best_val, best_err = rich, err
        if len(ests) == 1:
            best_err = noise * weight_sum / steps[0] ** k
        values[k - 1] = best_val
        errors[k - 1] = best_err
    return ProbeResult(
        t0=float(t0), state=z_t0, f_value=phi[t0], values=values, errors=errors
    )
