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
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    SaariLabError,
    _check_count,
    _check_keys,
    _check_kind,
    _finite,
    _finite_array,
)
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


def _entries(entries, ctx: str) -> dict:
    """An ``[{"alpha": [...], "c": ...}, ...]`` list as the
    ``{multi-index: coefficient}`` mapping that
    :meth:`TruncatedJet.from_coeffs` checks."""
    if not isinstance(entries, list):
        raise ConfigError(f"{ctx}: entries must be a list")
    return {tuple(_check_keys(e, f"{ctx} entry",
                              required=("alpha", "c"))["alpha"]): e["c"]
            for e in entries}


_SYSTEM_KINDS = {
    "nbody": (("n_bodies", "space_dim", "masses", "potential"),
              ("com_fixed",)),
    "oscillator": ((), ()),
    "linear1d": ((), ()),
    "polynomial_field": (("dim", "degree", "components"), ()),
}


def _build_system(cfg: dict):
    """Returns (field, system-or-None, kind)."""
    kind = _check_kind(cfg, "system", _SYSTEM_KINDS)
    try:
        if kind == "nbody":
            system = BodySystem.from_json_dict(
                {k: v for k, v in cfg.items() if k != "kind"})
            return build_hamiltonian_field(system), system, kind
        if kind == "oscillator":
            return SeparableOscillator(), None, kind
        if kind == "linear1d":
            return linear1d_field(), None, kind
        comps = cfg["components"]
        if not isinstance(comps, list):
            raise ConfigError("polynomial_field components must be a list "
                              "of entry lists")
        return PolynomialField(tuple(
            PolynomialObservable.from_coeffs(
                cfg["dim"], cfg["degree"], _entries(c, f"component {i}"))
            for i, c in enumerate(comps)
        )), None, kind
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"invalid system block: {e}") from None


_OBSERVABLE_KINDS = {
    "inertia": ((), ()),
    "energy": ((), ()),
    "coordinate": (("index",), ()),
    "polynomial": (("degree", "entries"), ()),
}


def _build_observable(cfg: dict, field, system):
    kind = _check_kind(cfg, "observable", _OBSERVABLE_KINDS)
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
        return coordinate_observable(field.dim, cfg["index"])
    try:
        return PolynomialObservable.from_coeffs(
            field.dim, cfg["degree"],
            _entries(cfg["entries"], "observable entries"))
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"invalid observable block: {e}") from None


def _build_point(cfg: dict, field, system) -> np.ndarray:
    """The config's ``point`` or ``state`` as a flat phase vector; a
    malformed block, one of another phase dimension or an entry that is not
    a finite number is a :class:`ConfigError`."""
    if "point" in cfg:
        z = _finite_array(cfg["point"], "point")
    elif "state" in cfg:
        if system is None:
            raise ConfigError("state blocks need an nbody system")
        st = _check_keys(cfg["state"], "state", required=("q", "p"))
        try:
            z = PhaseState(_finite_array(st["q"], "state q"),
                           _finite_array(st["p"], "state p")).flat()
        except ValueError as e:
            raise ConfigError(f"invalid state block: {e}") from None
    else:
        raise ConfigError("config needs a 'point' or 'state' block")
    if z.shape != (field.dim,):
        raise ConfigError(f"point or state must be a phase vector of length "
                          f"{field.dim}, got shape {z.shape}")
    return z


def _build_integrator(cfg: dict) -> IntegratorConfig:
    """The integrator block, its values passed through to
    :class:`IntegratorConfig`, which checks them."""
    return IntegratorConfig(**_check_keys(
        cfg, "integrator", required=("method", "step", "max_time")))


def _global_seed(cfg: dict, args) -> int | None:
    return cfg.get("seed") if args.seed is None else args.seed


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
    return Sampler(
        box=cfg["box"],
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


_SCAN_TOLERANCES = ("tol_zero", "tol_eq", "tol_crit")


def _tolerances(cfg: dict, names: tuple[str, ...]) -> dict:
    """The config's ``tolerances`` among ``names`` as keyword arguments;
    unset ones keep the defaults of the function that takes them."""
    return _check_keys(cfg.get("tolerances", {}), "tolerances",
                       optional=names)


def _tower_order(cfg: dict, default: int | None = None) -> int | None:
    """The config's ``tower_order``, or ``default`` when it is absent."""
    if "tower_order" not in cfg:
        return default
    _check_count(cfg["tower_order"], "tower_order")
    return cfg["tower_order"]


def _emit(args, report: dict, out: str | None,
          failure: str | None = None) -> int:
    """Write ``report`` under the ``schema_version`` / ``command`` header to
    ``out``, or to stdout when it is None.  The exit code is 1 with
    ``failure`` on stderr when the command's expectation failed, else 0."""
    report = {"schema_version": SCHEMA_VERSION, "command": args.command,
              **report}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    if failure:
        print(failure, file=sys.stderr)
        return 1
    return 0


def _out_path(cfg: dict, args) -> str | None:
    return args.out if args.out else cfg.get("output")


def _verdict_failure(args, verdict: str) -> str | None:
    """The failure message when ``--expect`` names another verdict."""
    if args.expect is not None and verdict != args.expect:
        return f"expected verdict {args.expect}, got {verdict}"
    return None


# -- commands ---------------------------------------------------------------------


def _cmd_tower(cfg: dict, args) -> int:
    field, system, _ = _build_system(cfg["system"])
    F = _build_observable(cfg["observable"], field, system)
    z = _build_point(cfg, field, system)
    m = _tower_order(cfg, default_tower_order(field.dim))
    sample = obstruction_at(F, field, z, m=m)
    return _emit(args, {
        "tower": sample.psi.to_json_dict(),
        "norm_inf": float(sample.norm_inf),
        "is_near_equilibrium": sample.is_near_equilibrium,
        "is_near_F_critical": sample.is_near_F_critical,
    }, _out_path(cfg, args))


def _cmd_rank(cfg: dict, args) -> int:
    field, system, _ = _build_system(cfg["system"])
    z = _build_point(cfg, field, system)
    m = _tower_order(cfg, default_tower_order(field.dim))
    which = cfg.get("jacobian", "F")
    if which not in ("F", "X"):
        raise ConfigError(f"jacobian must be 'F' or 'X', got {which!r}")
    if which == "X":
        if "observable" not in cfg:
            raise ConfigError("jacobian 'X' needs an observable block")
        F = _build_observable(cfg["observable"], field, system)
    threshold = _finite(cfg.get("threshold", RANK_THRESHOLD), "threshold",
                        0.0, strict=True)
    if threshold >= 1.0:
        raise ConfigError(f"threshold must be below 1, got {threshold!r}")
    xf = field.jet_field(z, m - 1)
    if which == "F":
        result = dpsi_wrt_F(xf, m=m, threshold=threshold)
    else:
        result = dpsi_wrt_X(F.jet(z, m), xf, m=m, threshold=threshold)
    rank = result.rank_report
    failure = None
    if args.expect_submersion and not rank.submersion:
        failure = (f"expected a submersion; rank {rank.numerical_rank} < "
                   f"{rank.full_rank_expected}")
    return _emit(args, {"jacobian": which, "rank": rank.to_json_dict()},
                 _out_path(cfg, args), failure)


def _cmd_simulate(cfg: dict, args) -> int:
    field, system, _ = _build_system(cfg["system"])
    z0 = _build_point(cfg, field, system)
    icfg = _build_integrator(cfg["integrator"])
    traj = integrate(field, z0, icfg)
    out = _out_path(cfg, args)
    if not out:
        traj.to_csv(sys.stdout)
        return 0
    traj.to_csv(out)
    return _emit(args, {"trajectory": traj.to_json_dict(), "csv": out}, None)


def _cmd_releq(cfg: dict, args) -> int:
    field, system, _ = _build_system(cfg["system"])
    if system is None:
        raise ConfigError("releq needs an nbody system")
    family = cfg["family"]
    if family in ("lagrange", "euler") and system.n_bodies != 3:
        raise ConfigError(f"family {family!r} needs three bodies, got "
                          f"{system.n_bodies}")
    if family == "lagrange" and system.space_dim != 2:
        raise ConfigError(f"family 'lagrange' needs planar bodies, got "
                          f"space_dim {system.space_dim}")
    if family == "lagrange":
        sol = releq_lagrange(system, side=cfg.get("side", 1.0))
    elif family == "euler":
        sol = releq_euler(system, ordering=cfg.get("ordering", (0, 1, 2)),
                          gap=cfg.get("gap", 1.0))
    elif family == "newton":
        if "guess" not in cfg:
            raise ConfigError("family 'newton' needs a 'guess' configuration")
        sol = releq_newton(system, cfg["guess"])
    else:
        raise ConfigError(f"unknown releq family {family!r}")
    return _emit(args, {"family": family, "solution": sol.to_json_dict()},
                 _out_path(cfg, args))


def _cmd_scan(cfg: dict, args) -> int:
    field, system, _ = _build_system(cfg["system"])
    F = _build_observable(cfg["observable"], field, system)
    sampler = _build_sampler(cfg["scan"], _global_seed(cfg, args))
    rep = obstruction_scan(field, F, sampler, m=_tower_order(cfg),
                           **_tolerances(cfg, _SCAN_TOLERANCES))
    return _emit(args, {
        "sampler": sampler.to_json_dict(),
        "report": rep.to_json_dict(),
        "zero_fraction": None if math.isnan(rep.zero_fraction)
        else rep.zero_fraction,
    }, _out_path(cfg, args))


def _cmd_perturb_experiment(cfg: dict, args) -> int:
    field, system, _ = _build_system(cfg["system"])
    F = _build_observable(cfg["observable"], field, system)
    gseed = _global_seed(cfg, args)
    spec = _build_perturbation(cfg["perturbation"], gseed)
    sampler = _build_sampler(cfg["scan"], gseed)
    base = system if spec.target == "potential" else field
    rep = genericity_experiment(
        base, F, spec, cfg["trials"], sampler, m=_tower_order(cfg),
        **_tolerances(cfg, _SCAN_TOLERANCES),
    )
    return _emit(args, {"experiment": rep.to_json_dict()},
                 _out_path(cfg, args))


def _cmd_classify(cfg: dict, args) -> int:
    field, system, _ = _build_system(cfg["system"])
    if system is None:
        raise ConfigError("classify needs an nbody system")
    z0 = _build_point(cfg, field, system)
    icfg = _build_integrator(cfg["integrator"])
    tols = _tolerances(cfg, ("tol_inertia", "tol_shape", "margin"))
    traj = integrate(field, z0, icfg)
    cls = classify_trajectory(traj, **tols)
    return _emit(args, {
        "trajectory": traj.to_json_dict(),
        "classification": cls.to_json_dict(),
    }, _out_path(cfg, args), _verdict_failure(args, cls.verdict))


def _cmd_figure8(cfg: dict, args) -> int:
    refine = cfg.get("refine", True)
    system, z0, period = figure8_initial_conditions(refine=refine)
    field = build_hamiltonian_field(system)
    if "integrator" in cfg:
        icfg = _build_integrator(cfg["integrator"])
    else:
        icfg = IntegratorConfig("dop853", (1e-12, 1e-13), period)
    traj = integrate(field, z0, icfg)
    closure = float(np.max(np.abs(traj.final_state - z0)))
    cls = classify_trajectory(traj)
    return _emit(args, {
        "refined": refine,
        "period": float(period),
        "initial_state": [float(x) for x in z0],
        "closure_error": closure,
        "trajectory": traj.to_json_dict(),
        "classification": cls.to_json_dict(),
    }, _out_path(cfg, args), _verdict_failure(args, cls.verdict))


# name -> (command, its required config keys, its optional keys besides
# "output" and "seed")
_COMMANDS = {
    "tower": (_cmd_tower, ("system", "observable"),
              ("point", "state", "tower_order")),
    "rank": (_cmd_rank, ("system",),
             ("observable", "point", "state", "tower_order", "jacobian",
              "threshold")),
    "simulate": (_cmd_simulate, ("system", "integrator"), ("point", "state")),
    "releq": (_cmd_releq, ("system", "family"),
              ("side", "ordering", "gap", "guess")),
    "scan": (_cmd_scan, ("system", "observable", "scan"),
             ("tower_order", "tolerances")),
    "perturb-experiment": (
        _cmd_perturb_experiment,
        ("system", "observable", "perturbation", "trials", "scan"),
        ("tower_order", "tolerances")),
    "classify": (_cmd_classify, ("system", "integrator"),
                 ("point", "state", "tolerances")),
    "figure8-demo": (_cmd_figure8, (), ("refine", "integrator")),
}


@lru_cache(maxsize=None)
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
    command, required, optional = _COMMANDS[args.command]
    try:
        cfg = {} if args.config is None else _load_config(args.config)
        _check_keys(cfg, "config", required, (*optional, "output", "seed"))
        return command(cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (SaariLabError, ValueError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
