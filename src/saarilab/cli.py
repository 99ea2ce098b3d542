"""Command-line front end: config ingestion, orchestration, report emission.

One JSON config file per invocation plus a few flag overrides.  Every report
is JSON with a top-level ``schema_version``; trajectory output is the CSV
format of :mod:`saarilab.flow`.  Exit codes: 0 success, 1 negative verdict
under ``--expect`` / ``--expect-submersion``, 2 configuration problem,
3 runtime (numerical) failure.

All randomness derives from the seeds in the config (or ``--seed``); repeated
runs with the same inputs emit byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, SaariLabError
from .fields import (
    PolynomialField,
    PolynomialObservable,
    SeparableOscillator,
    coordinate_observable,
    linear1d_field,
    oscillator_energy,
)
from .flow import IntegratorConfig, figure8_initial_conditions, integrate
from .genericity import (
    PerturbationSpec,
    Sampler,
    classify_trajectory,
    genericity_experiment,
    obstruction_scan,
)
from .lie_tower import (
    RANK_THRESHOLD,
    default_tower_order,
    dpsi_wrt_F,
    dpsi_wrt_X,
    obstruction_at,
)
from .mech import (
    BodySystem,
    PhaseState,
    build_hamiltonian_field,
    energy_observable,
    inertia_observable,
    releq_euler,
    releq_lagrange,
    releq_newton,
)

__all__ = ["main"]

SCHEMA_VERSION = 1


# -- config plumbing -------------------------------------------------------------


def _check_keys(d, ctx: str, required=(), optional=()) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx} must be a JSON object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{ctx}: missing keys {sorted(missing)}")
    return d


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _entries_to_dict(entries, dim: int, degree: int, ctx: str) -> dict:
    out = {}
    if not isinstance(entries, list):
        raise ConfigError(f"{ctx}: entries must be a list")
    for e in entries:
        _check_keys(e, f"{ctx} entry", required=("alpha", "c"))
        alpha = tuple(int(a) for a in e["alpha"])
        if len(alpha) != dim or any(a < 0 for a in alpha):
            raise ConfigError(f"{ctx}: bad multi-index {list(alpha)}")
        if sum(alpha) > degree:
            raise ConfigError(f"{ctx}: multi-index {list(alpha)} exceeds "
                              f"degree {degree}")
        out[alpha] = float(e["c"])
    return out


def _build_system(cfg: dict):
    """Returns (field, system-or-None, kind)."""
    _check_keys(cfg, "system", required=("kind",),
                optional=("n_bodies", "space_dim", "masses", "potential",
                          "com_fixed", "dim", "degree", "components"))
    kind = cfg["kind"]
    try:
        if kind == "nbody":
            _check_keys(cfg, "system(nbody)",
                        required=("kind", "n_bodies", "space_dim", "masses",
                                  "potential"),
                        optional=("com_fixed",))
            system = BodySystem.from_json_dict(
                {k: v for k, v in cfg.items() if k != "kind"})
            return build_hamiltonian_field(system), system, kind
        if kind == "oscillator":
            _check_keys(cfg, "system(oscillator)", required=("kind",))
            return SeparableOscillator(), None, kind
        if kind == "linear1d":
            _check_keys(cfg, "system(linear1d)", required=("kind",))
            return linear1d_field(), None, kind
        if kind == "polynomial_field":
            _check_keys(cfg, "system(polynomial_field)",
                        required=("kind", "dim", "degree", "components"))
            dim, degree = int(cfg["dim"]), int(cfg["degree"])
            comps = cfg["components"]
            if not isinstance(comps, list) or len(comps) != dim:
                raise ConfigError(
                    f"polynomial_field needs {dim} component entry lists")
            built = tuple(
                PolynomialObservable.from_coeffs(
                    dim, degree,
                    _entries_to_dict(c, dim, degree, f"component {i}"))
                for i, c in enumerate(comps)
            )
            return PolynomialField(built), None, kind
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"invalid system block: {e}") from None
    raise ConfigError(f"unknown system kind {kind!r}")


def _build_observable(cfg: dict, field, system):
    _check_keys(cfg, "observable", required=("kind",),
                optional=("index", "degree", "entries"))
    kind = cfg["kind"]
    dim = field.dim
    try:
        if kind == "inertia":
            if system is None:
                raise ConfigError("inertia observable needs an nbody system")
            return inertia_observable(system)
        if kind == "energy":
            if system is not None:
                return energy_observable(system)
            if isinstance(field, SeparableOscillator):
                return oscillator_energy()
            raise ConfigError("energy observable needs an nbody system "
                              "or the oscillator")
        if kind == "coordinate":
            _check_keys(cfg, "observable(coordinate)",
                        required=("kind", "index"))
            return coordinate_observable(dim, int(cfg["index"]))
        if kind == "polynomial":
            _check_keys(cfg, "observable(polynomial)",
                        required=("kind", "degree", "entries"))
            degree = int(cfg["degree"])
            return PolynomialObservable.from_coeffs(
                dim, degree,
                _entries_to_dict(cfg["entries"], dim, degree,
                                 "observable entries"))
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"invalid observable block: {e}") from None
    raise ConfigError(f"unknown observable kind {kind!r}")


def _build_point(cfg: dict, field, system) -> np.ndarray:
    """The config's ``point`` or ``state`` as a flat phase vector; a
    malformed block or a NaN or infinite entry is a :class:`ConfigError`."""
    if "point" in cfg:
        try:
            z = np.asarray(cfg["point"], float)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"invalid point: {e}") from None
        if z.ndim != 1 or z.size != field.dim:
            raise ConfigError(
                f"point must be a flat list of length {field.dim}")
    elif "state" in cfg:
        if system is None:
            raise ConfigError("state blocks need an nbody system")
        st = _check_keys(cfg["state"], "state", required=("q", "p"))
        try:
            z = PhaseState(np.asarray(st["q"], float),
                           np.asarray(st["p"], float)).flat()
        except (ValueError, TypeError) as e:
            raise ConfigError(f"invalid state block: {e}") from None
    else:
        raise ConfigError("config needs a 'point' or 'state' block")
    if not np.all(np.isfinite(z)):
        raise ConfigError(f"point and state entries must be finite, "
                          f"got {z.tolist()}")
    return z


def _build_integrator(cfg: dict) -> IntegratorConfig:
    """The integrator block, its values passed through to
    :class:`IntegratorConfig`, which checks them."""
    _check_keys(cfg, "integrator", required=("method", "step", "max_time"))
    step = cfg["step"]
    if isinstance(step, list):
        if len(step) != 2:
            raise ConfigError("integrator step pair must be [rtol, atol]")
        step = tuple(step)
    return IntegratorConfig(method=cfg["method"], step=step,
                            max_time=cfg["max_time"])


def _global_seed(cfg: dict, args) -> int | None:
    if args.seed is not None:
        return args.seed
    return cfg.get("seed")


def _block_seed(block: dict, global_seed: int | None, ctx: str) -> int:
    if "seed" in block:
        return block["seed"]
    if global_seed is None:
        raise ConfigError(
            f"{ctx} needs a seed (block-level or global 'seed'/--seed)")
    return global_seed


def _build_sampler(cfg: dict, global_seed) -> Sampler:
    _check_keys(cfg, "scan", required=("box", "count"),
                optional=("seed", "min_separation"))
    box = cfg["box"]
    if not isinstance(box, list) or len(box) != 2:
        raise ConfigError("scan box must be [lo, hi]")
    return Sampler(
        box=tuple(box),
        count=cfg["count"],
        seed=_block_seed(cfg, global_seed, "scan block"),
        min_separation=cfg.get("min_separation", 0.1),
    )


def _build_perturbation(cfg: dict, global_seed) -> PerturbationSpec:
    _check_keys(cfg, "perturbation", required=("target", "degree", "epsilon"),
                optional=("seed",))
    return PerturbationSpec(
        target=cfg["target"],
        degree=cfg["degree"],
        epsilon=cfg["epsilon"],
        seed=_block_seed(cfg, global_seed, "perturbation block"),
    )


def _scan_tolerances(cfg: dict) -> dict:
    """The config's scan tolerances as keyword arguments; unset ones keep
    the defaults of :func:`obstruction_scan`."""
    return _check_keys(cfg.get("tolerances", {}), "tolerances",
                       optional=("tol_zero", "tol_eq", "tol_crit"))


def _tower_order(cfg: dict, default: int | None = None) -> int | None:
    """The config's ``tower_order``, or ``default`` when it is absent."""
    if "tower_order" not in cfg:
        return default
    m = cfg["tower_order"]
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ConfigError(f"tower_order must be an integer >= 1, got {m!r}")
    return m


def _threshold(cfg: dict) -> float:
    """The config's relative rank ``threshold``, a finite number strictly
    between 0 and 1; ``RANK_THRESHOLD`` when it is absent."""
    t = cfg.get("threshold", RANK_THRESHOLD)
    if (isinstance(t, bool) or not isinstance(t, (int, float))
            or not 0.0 < t < 1.0):
        raise ConfigError(
            f"threshold must be a number strictly between 0 and 1, got {t!r}")
    return float(t)


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _out_path(cfg: dict, args) -> str | None:
    return args.out if args.out else cfg.get("output")


# -- commands ---------------------------------------------------------------------


def _cmd_tower(cfg: dict, args) -> int:
    _check_keys(cfg, "config",
                required=("system", "observable"),
                optional=("point", "state", "tower_order", "output", "seed"))
    field, system, _ = _build_system(cfg["system"])
    F = _build_observable(cfg["observable"], field, system)
    z = _build_point(cfg, field, system)
    m = _tower_order(cfg, default_tower_order(field.dim))
    sample = obstruction_at(F, field, z, m=m)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "tower",
        "tower": sample.psi.to_json_dict(),
        "norm_inf": float(sample.norm_inf),
        "is_near_equilibrium": sample.is_near_equilibrium,
        "is_near_F_critical": sample.is_near_F_critical,
    }
    _emit(report, _out_path(cfg, args))
    return 0


def _cmd_rank(cfg: dict, args) -> int:
    _check_keys(cfg, "config",
                required=("system",),
                optional=("observable", "point", "state", "tower_order",
                          "jacobian", "threshold", "output", "seed"))
    field, system, _ = _build_system(cfg["system"])
    z = _build_point(cfg, field, system)
    m = _tower_order(cfg, default_tower_order(field.dim))
    which = cfg.get("jacobian", "F")
    threshold = _threshold(cfg)
    xf = field.jet_field(z, m - 1)
    if which == "F":
        result = dpsi_wrt_F(xf, m=m, threshold=threshold)
    elif which == "X":
        if "observable" not in cfg:
            raise ConfigError("jacobian 'X' needs an observable block")
        F = _build_observable(cfg["observable"], field, system)
        fj = F.jet(z, m)
        result = dpsi_wrt_X(fj, xf, m=m, threshold=threshold)
    else:
        raise ConfigError(f"jacobian must be 'F' or 'X', got {which!r}")
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "rank",
        "jacobian": which,
        "rank": result.rank_report.to_json_dict(),
    }
    _emit(report, _out_path(cfg, args))
    if args.expect_submersion and not result.rank_report.submersion:
        print("expected a submersion; rank "
              f"{result.rank_report.numerical_rank} < "
              f"{result.rank_report.full_rank_expected}", file=sys.stderr)
        return 1
    return 0


def _cmd_simulate(cfg: dict, args) -> int:
    _check_keys(cfg, "config",
                required=("system", "integrator"),
                optional=("point", "state", "output", "seed"))
    field, system, _ = _build_system(cfg["system"])
    z0 = _build_point(cfg, field, system)
    icfg = _build_integrator(cfg["integrator"])
    traj = integrate(field, z0, icfg)
    out = _out_path(cfg, args)
    if out:
        traj.to_csv(out)
        _emit({
            "schema_version": SCHEMA_VERSION,
            "command": "simulate",
            "trajectory": traj.to_json_dict(),
            "csv": out,
        }, None)
    else:
        traj.to_csv(sys.stdout)
    return 0


def _cmd_releq(cfg: dict, args) -> int:
    _check_keys(cfg, "config",
                required=("system", "family"),
                optional=("side", "ordering", "gap", "guess", "output",
                          "seed"))
    field, system, _ = _build_system(cfg["system"])
    if system is None:
        raise ConfigError("releq needs an nbody system")
    family = cfg["family"]
    if family == "lagrange":
        sol = releq_lagrange(system, side=cfg.get("side", 1.0))
    elif family == "euler":
        sol = releq_euler(system, ordering=cfg.get("ordering", (0, 1, 2)),
                          gap=cfg.get("gap", 1.0))
    elif family == "newton":
        if "guess" not in cfg:
            raise ConfigError("family 'newton' needs a 'guess' configuration")
        sol = releq_newton(system, np.asarray(cfg["guess"], float))
    else:
        raise ConfigError(f"unknown releq family {family!r}")
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "releq",
        "family": family,
        "solution": sol.to_json_dict(),
    }
    _emit(report, _out_path(cfg, args))
    return 0


def _cmd_scan(cfg: dict, args) -> int:
    _check_keys(cfg, "config",
                required=("system", "observable", "scan"),
                optional=("tower_order", "tolerances", "output", "seed"))
    field, system, _ = _build_system(cfg["system"])
    F = _build_observable(cfg["observable"], field, system)
    sampler = _build_sampler(cfg["scan"], _global_seed(cfg, args))
    rep = obstruction_scan(field, F, sampler, m=_tower_order(cfg),
                           **_scan_tolerances(cfg))
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "scan",
        "sampler": sampler.to_json_dict(),
        "report": rep.to_json_dict(),
        "zero_fraction": None if math.isnan(rep.zero_fraction)
        else rep.zero_fraction,
    }
    _emit(report, _out_path(cfg, args))
    return 0


def _cmd_perturb_experiment(cfg: dict, args) -> int:
    _check_keys(cfg, "config",
                required=("system", "observable", "perturbation", "trials",
                          "scan"),
                optional=("tower_order", "tolerances", "output", "seed"))
    field, system, _ = _build_system(cfg["system"])
    F = _build_observable(cfg["observable"], field, system)
    gseed = _global_seed(cfg, args)
    spec = _build_perturbation(cfg["perturbation"], gseed)
    sampler = _build_sampler(cfg["scan"], gseed)
    base = system if spec.target == "potential" else field
    rep = genericity_experiment(
        base, F, spec, cfg["trials"], sampler, m=_tower_order(cfg),
        **_scan_tolerances(cfg),
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "perturb-experiment",
        "experiment": rep.to_json_dict(),
    }
    _emit(report, _out_path(cfg, args))
    return 0


def _cmd_classify(cfg: dict, args) -> int:
    _check_keys(cfg, "config",
                required=("system", "integrator"),
                optional=("point", "state", "tolerances", "output", "seed"))
    field, system, _ = _build_system(cfg["system"])
    if system is None:
        raise ConfigError("classify needs an nbody system")
    z0 = _build_point(cfg, field, system)
    icfg = _build_integrator(cfg["integrator"])
    tols = _check_keys(cfg.get("tolerances", {}), "tolerances",
                       optional=("tol_inertia", "tol_shape", "margin"))
    traj = integrate(field, z0, icfg)
    ti = tols.get("tol_inertia")
    cls = classify_trajectory(
        traj,
        tol_inertia=float(ti) if ti is not None else None,
        tol_shape=float(tols.get("tol_shape", 1e-6)),
        margin=float(tols.get("margin", 100.0)),
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "classify",
        "trajectory": traj.to_json_dict(),
        "classification": cls.to_json_dict(),
    }
    _emit(report, _out_path(cfg, args))
    if args.expect is not None and cls.verdict != args.expect:
        print(f"expected verdict {args.expect}, got {cls.verdict}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_figure8(cfg: dict, args) -> int:
    _check_keys(cfg, "config",
                optional=("refine", "integrator", "output", "seed"))
    refine = cfg.get("refine", True)
    if not isinstance(refine, bool):
        raise ConfigError(f"refine must be true or false, got {refine!r}")
    system, z0, period = figure8_initial_conditions(refine=refine)
    field = build_hamiltonian_field(system)
    if "integrator" in cfg:
        icfg = _build_integrator(cfg["integrator"])
    else:
        icfg = IntegratorConfig("dop853", (1e-12, 1e-13), period)
    traj = integrate(field, z0, icfg)
    closure = float(np.max(np.abs(traj.final_state - z0)))
    cls = classify_trajectory(traj)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "figure8-demo",
        "refined": refine,
        "period": float(period),
        "initial_state": [float(x) for x in z0],
        "closure_error": closure,
        "trajectory": traj.to_json_dict(),
        "classification": cls.to_json_dict(),
    }
    _emit(report, _out_path(cfg, args))
    if args.expect is not None and cls.verdict != args.expect:
        print(f"expected verdict {args.expect}, got {cls.verdict}",
              file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "tower": _cmd_tower,
    "rank": _cmd_rank,
    "simulate": _cmd_simulate,
    "releq": _cmd_releq,
    "scan": _cmd_scan,
    "perturb-experiment": _cmd_perturb_experiment,
    "classify": _cmd_classify,
    "figure8-demo": _cmd_figure8,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saarilab",
        description="Obstruction towers, relative equilibria, and "
                    "genericity scans for N-body dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        if name == "figure8-demo":
            sp.add_argument("config", nargs="?", default=None,
                            help="optional JSON config")
        else:
            sp.add_argument("config", help="JSON config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the global seed")
        sp.add_argument("--out", default=None,
                        help="override the output path")
        if name == "rank":
            sp.add_argument("--expect-submersion", action="store_true",
                            help="exit 1 unless the Jacobian is a submersion")
        if name in ("classify", "figure8-demo"):
            sp.add_argument("--expect", default=None,
                            help="exit 1 unless the verdict matches")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    if not hasattr(args, "expect"):
        args.expect = None
    try:
        if args.config is None:
            cfg = {}
        else:
            cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except SaariLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
