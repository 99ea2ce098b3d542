"""The four workloads: their inputs, their items and their output checks.

A workload is built from an imported ``saarilab`` package and the run's
seed.  ``round(r)`` makes the inputs of round ``r`` and returns its items,
each a ``(kind, call)`` pair whose call is one call of a public entry point
of the package.  Every round holds the same kinds of item, so a run is made
of whole rounds.  ``check(outputs)`` runs after the timed part; it returns
the operations that failed, the problems found in the outputs of the
others, and reference figures for the run's detail line.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

import checks


def sub_seed(seed: int, r: int) -> int:
    """Program seed for round ``r`` (``-1`` is the warm-up round)."""
    return seed * 100_000 + r + 1


class Outcome:
    """What ``check`` found: failed operations, problems and figures."""

    def __init__(self):
        self.failed: list[str] = []
        self.problems: list[str] = []
        self.figures: dict = {}

    def run(self, what: str, check, *args, **kwargs) -> None:
        """Record a failed check, or a report that lacks what it checks."""
        try:
            check(*args, **kwargs)
        except (checks.CheckFailed, KeyError, TypeError) as e:
            self.problems.append(f"{what}: {e!r}")


def _com_point(z, n_bodies: int, space_dim: int):
    nc = n_bodies * space_dim
    return z[:nc].reshape(n_bodies, space_dim), z[nc:].reshape(n_bodies,
                                                               space_dim)


def _bump_euler(system, q) -> float:
    bump = getattr(system.potential, "bump", None)
    if bump is None:
        return 0.0
    return checks.poly_euler(bump.coeffs, bump.dim, bump.degree, q.ravel())


class Genericity2Body:
    """Criterion-7 experiment, reduced: planar two-body, inertia, m = 5."""

    SAMPLES = 20  # samples in every item
    TRIALS = 2

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        self.seed = seed
        self.system = sl.BodySystem(2, 2, np.ones(2), sl.NewtonianPotential())
        self.F = sl.inertia_observable(self.system)

    def _sampler(self, s: int, count: int):
        return self.sl.Sampler(box=(-1.5, 1.5), count=count, seed=s)

    def _spec(self, target: str, s: int):
        return self.sl.PerturbationSpec(target, 3, 1e-2, s)

    def round(self, r: int):
        s = sub_seed(self.seed, r)
        per_trial = self.SAMPLES // self.TRIALS
        return [
            ("bump-observable", partial(
                self.sl.genericity_experiment, self.system, self.F,
                self._spec("observable", s), self.TRIALS,
                self._sampler(s, per_trial))),
            ("bump-potential", partial(
                self.sl.genericity_experiment, self.system, self.F,
                self._spec("potential", s), self.TRIALS,
                self._sampler(s, per_trial))),
            ("baseline-scan", partial(
                self.sl.obstruction_scan, self.system, self.F,
                self._sampler(s, self.SAMPLES))),
        ]

    def _recheck_scan(self, out: Outcome, what, report, system, F, sampler):
        """Recompute each sample's tower; tie it to the report's minimum."""
        sl = self.sl
        field = sl.build_hamiltonian_field(system)
        norms = []
        for idx in range(sampler.count):
            z = sampler.draw(idx, system.phase_dim, system)
            psi = sl.obstruction_at(F, field, z, m=5).psi.values
            norms.append(float(np.max(np.abs(psi))))
            if F is self.F:
                q, p = _com_point(z, 2, 2)
                out.run(f"{what} sample {idx}", checks.lagrange_jacobi, psi,
                        q, p, system.masses, _bump_euler(system, q))
        out.run(what, checks.close, report.min_nonexcluded_norm, min(norms),
                1e-12, "minimum tower norm against the recomputed towers")

    def check(self, outputs) -> Outcome:
        out = Outcome()
        sl = self.sl
        for r, kind, rep in outputs:
            what = f"round {r} {kind}"
            if kind == "baseline-scan":
                scans = [rep]
                out.run(what, checks.equal, rep.n_obstruction_zero, 0,
                        "samples where the inertia tower vanishes")
            else:
                scans = list(rep.trials)
                out.run(what, checks.equal, rep.pooled_zero_fraction, 0.0,
                        "pooled zero fraction under bumps")
            for scan in scans:
                out.run(what, checks.equal, scan.tower_order, 5,
                        "default tower order of the planar two-body problem")
            if r != 0:
                continue
            s = sub_seed(self.seed, r)
            if kind == "baseline-scan":
                self._recheck_scan(out, what, rep, self.system, self.F,
                                   self._sampler(s, self.SAMPLES))
                continue
            spec = self._spec(kind.removeprefix("bump-"), s)
            for t, scan in enumerate(rep.trials):
                system, F = self.system, self.F
                if spec.target == "observable":
                    F = sl.perturb(spec, self.F, trial=t)
                else:
                    system = sl.perturb(spec, self.system, trial=t)
                self._recheck_scan(out, f"{what} trial {t}", scan, system, F,
                                   self._sampler(s + t, self.SAMPLES
                                                 // self.TRIALS))
        return out


class RankEnsemble:
    """Criterion-2 Jacobians of random polynomial systems, n = 1, 2, 3."""

    DEGREE = 4
    DIMS = (1, 2, 3)

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        self.seed = seed

    def _inputs(self, r: int, n: int):
        rng = self.sl.stream_rng(sub_seed(self.seed, r), n)
        field = self.sl.random_polynomial_field(n, self.DEGREE, rng)
        F = self.sl.random_polynomial_observable(n, self.DEGREE, rng)
        z = rng.uniform(-1.0, 1.0, n)
        return field, F, z

    def round(self, r: int):
        items = []
        for n in self.DIMS:
            field, F, z = self._inputs(r, n)
            items.append((f"n={n}", partial(self._item, field, F, z, n + 1)))
        return items

    def _item(self, field, F, z, m: int):
        sl = self.sl
        t0 = perf_counter()
        xf = field.jet_field(z, m - 1)
        fj = F.jet(z, m)
        t1 = perf_counter()
        jf = sl.dpsi_wrt_F(xf, m=m)
        t2 = perf_counter()
        jx = sl.dpsi_wrt_X(fj, xf, m=m, method="exact")
        t3 = perf_counter()
        return jf, jx, (t1 - t0, t2 - t1, t3 - t2)

    def check(self, outputs) -> Outcome:
        out = Outcome()
        full = {"F": 0, "X": 0}
        times: dict[str, list] = {}
        for r, kind, (jf, jx, spent) in outputs:
            n = int(kind.removeprefix("n="))
            m = n + 1
            field, F, z = self._inputs(r, n)
            x_vals = [checks.poly_value(c.coeffs, n, self.DEGREE, z)
                      for c in field.components]
            grad_f = checks.poly_grad(F.coeffs, n, self.DEGREE, z)
            what = f"round {r} {kind}"
            out.run(what, checks.jacobian_f_structure, jf.matrix, x_vals, m, m)
            out.run(what, checks.jacobian_x_structure, jx.matrix, x_vals,
                    grad_f, m)
            full["F"] += jf.rank_report.submersion
            full["X"] += jx.rank_report.submersion
            times.setdefault(kind, []).append(spent)
        for which, hits in full.items():
            out.run(f"dpsi_wrt_{which}", checks.share_at_least, hits,
                    len(outputs), 0.99, "full-rank samples")
        out.figures["full_rank"] = {k: f"{v}/{len(outputs)}"
                                    for k, v in full.items()}
        out.figures["unscaled_p50_ms"] = {
            kind: dict(zip(("jets", "dpsi_wrt_F", "dpsi_wrt_X"),
                           (round(1e3 * float(np.median(col)), 4)
                            for col in zip(*spent))))
            for kind, spent in times.items()}
        return out


class ThreeBodyM7:
    """Planar equal-mass three-body problem at m = 7."""

    M = 7
    SAMPLES = 3

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        self.seed = seed
        self.system = sl.BodySystem(3, 2, np.ones(3), sl.NewtonianPotential())
        self.field = sl.build_hamiltonian_field(self.system)
        self.E = sl.energy_observable(self.system)
        self.I = sl.inertia_observable(self.system)
        rng = sl.stream_rng(seed, 3)
        self.releq = {}
        for name, sol in (("lagrange", sl.releq_lagrange(self.system, 1.0)),
                          ("euler", sl.releq_euler(self.system, gap=1.0))):
            phase = rng.uniform(0.0, 2.0 * math.pi / sol.omega)
            self.releq[name] = (sol, sl.releq_trajectory(sol, phase).flat())

    def _sampler(self, r: int):
        return self.sl.Sampler(box=(-1.5, 1.5), count=self.SAMPLES,
                               seed=sub_seed(self.seed, r))

    def round(self, r: int):
        sl = self.sl
        sampler = self._sampler(r)
        items = [
            ("scan-energy", partial(sl.obstruction_scan, self.system, self.E,
                                    sampler, self.M)),
            ("scan-inertia", partial(sl.obstruction_scan, self.system, self.I,
                                     sampler, self.M)),
        ]
        # One relative equilibrium per round, Lagrange and Euler in turn:
        # three kinds of item keep the median item inside one kind.
        name = ("lagrange", "euler")[r % 2]
        items.append(("releq", partial(
            sl.obstruction_at, self.I, self.field, self.releq[name][1],
            self.M)))
        return items

    def check(self, outputs) -> Outcome:
        out = Outcome()
        sl = self.sl
        out.run("lagrange", checks.close,
                self.releq["lagrange"][0].omega_squared, 3.0, 1e-12,
                "omega^2 of the Lagrange solution with side 1")
        out.run("euler", checks.close,
                self.releq["euler"][0].omega_squared, 1.25, 1e-12,
                "omega^2 of the Euler solution with gap 1")
        energy_nonzero = energy_samples = 0
        scans = {}
        for r, kind, rep in outputs:
            what = f"round {r} {kind}"
            if kind == "releq":
                out.run(what, checks.vanishes, rep.norm_inf, 1e-9,
                        "inertia tower at a relative equilibrium")
                continue
            out.run(what, checks.equal, rep.tower_order, self.M, "tower order")
            if kind == "scan-energy":
                energy_nonzero += rep.n_obstruction_nonzero
                energy_samples += rep.n_samples
            else:
                out.run(what, checks.equal, rep.n_obstruction_zero, 0,
                        "samples where the inertia tower vanishes")
            if r == 0:
                scans[kind] = rep
        sampler = self._sampler(0)
        norms = {"scan-energy": [], "scan-inertia": []}
        for idx in range(sampler.count):
            z = sampler.draw(idx, self.system.phase_dim, self.system)
            psi_i = sl.obstruction_at(self.I, self.field, z, self.M).psi.values
            psi_e = sl.obstruction_at(self.E, self.field, z, self.M).psi.values
            norm_i = float(np.max(np.abs(psi_i)))
            norm_e = float(np.max(np.abs(psi_e)))
            norms["scan-inertia"].append(norm_i)
            norms["scan-energy"].append(norm_e)
            q, p = _com_point(z, 3, 2)
            what = f"round 0 sample {idx}"
            out.run(what, checks.lagrange_jacobi, psi_i, q, p,
                    self.system.masses)
            out.run(what, checks.energy_vanishes, norm_e, norm_i)
        for kind, rep in scans.items():
            out.run(f"round 0 {kind}", checks.close, rep.min_nonexcluded_norm,
                    min(norms[kind]), 1e-12,
                    "minimum tower norm against the recomputed towers")
        # The scan calls an energy sample zero only below an absolute 1e-6,
        # so roundoff near close approaches reads as "nonzero".  Reported,
        # not counted as failed: how many there are depends on the seed.
        out.figures["energy_nonzero_verdicts"] = (
            f"{energy_nonzero}/{energy_samples}")
        return out


# README configs, as the package README writes them.
_OSCILLATOR = {"kind": "oscillator"}
_TWO_BODY = {"kind": "nbody", "n_bodies": 2, "space_dim": 2,
             "masses": [1.0, 1.0], "potential": {"variant": "newtonian"}}
_THREE_BODY = {"kind": "nbody", "n_bodies": 3, "space_dim": 2,
               "masses": [1.0, 1.0, 1.0],
               "potential": {"variant": "newtonian"}}
_STATE = {"q": [[-0.5, 0.0], [0.5, 0.0]], "p": [[0.0, -0.5], [0.0, 0.5]]}
_INTEGRATORS = {
    "rk4": {"method": "rk4", "step": 0.1, "max_time": 10.0},
    "verlet": {"method": "verlet", "step": 0.01, "max_time": 10.0},
    "dop853": {"method": "dop853", "step": [1e-12, 1e-13], "max_time": 10.0},
}
_SIM = {"system": _TWO_BODY, "state": _STATE,
        "integrator": {"method": "dop853", "step": [1e-10, 1e-12],
                       "max_time": 12.0}}


class OrbitsCli:
    """Every README command, called in process through ``saarilab.cli.main``.

    Each command has the exit code the README documents; an item that exits
    otherwise is a failed operation.
    """

    def __init__(self, sl, seed: int, workdir: Path):
        self.main = sl.cli.main
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        s = sub_seed(seed, 0)
        tower = {"system": _OSCILLATOR, "observable": {"kind": "energy"},
                 "point": [0.6, 0.8], "tower_order": 3}
        configs = {
            "tower": tower,
            "sim": _SIM,
            "releq-lagrange": {"system": _THREE_BODY, "family": "lagrange",
                               "side": 1.0},
            "releq-euler": {"system": _THREE_BODY, "family": "euler",
                            "gap": 1.0},
            "releq-newton": {"system": _TWO_BODY, "family": "newton",
                             "guess": [[-0.5, 0.0], [0.5, 0.0]]},
            # Counts cut from the README's 1000 and 10 x 1000 so that no
            # command dominates a round and a run holds about ten rounds.
            "scan": {"system": _OSCILLATOR, "observable": {"kind": "energy"},
                     "scan": {"box": [0.5, 1.5], "count": 100, "seed": s}},
            "experiment": {"system": _OSCILLATOR,
                           "observable": {"kind": "energy"},
                           "perturbation": {"target": "observable",
                                            "degree": 3, "epsilon": 0.01,
                                            "seed": s + 1},
                           "trials": 2,
                           "scan": {"box": [0.5, 1.5], "count": 50,
                                    "seed": s + 2}},
            "figure8-unrefined": {"refine": False},
            "tower-2body": {"system": _TWO_BODY,
                            "observable": {"kind": "inertia"},
                            "state": _STATE},
            "collision": {"system": _TWO_BODY,
                          "observable": {"kind": "inertia"},
                          "state": {"q": [[0.0, 0.0], [0.0, 0.0]],
                                    "p": [[0.0, -0.5], [0.0, 0.5]]}},
        }
        for name, block in _INTEGRATORS.items():
            configs[f"sim-{name}"] = dict(_SIM, integrator=block)
        for name, cfg in configs.items():
            (workdir / f"{name}.json").write_text(json.dumps(cfg))

        def c(name: str, suffix: str = ".json") -> str:
            return str(workdir / (name + suffix))

        # (kind, argv, documented exit code)
        self.commands = [
            ("tower", ["tower", c("tower")], 0),
            ("rank", ["rank", c("tower"), "--expect-submersion"], 0),
            ("releq-lagrange", ["releq", c("releq-lagrange")], 0),
            ("releq-euler", ["releq", c("releq-euler")], 0),
            ("releq-newton", ["releq", c("releq-newton")], 0),
            ("scan", ["scan", c("scan")], 0),
            ("perturb-experiment", ["perturb-experiment", c("experiment")], 0),
            ("classify", ["classify", c("sim"), "--expect", "NonConstantF"], 0),
            ("figure8-demo", ["figure8-demo", "--expect", "NonConstantF"], 0),
            ("figure8-unrefined", ["figure8-demo", c("figure8-unrefined"),
                                   "--expect", "NonConstantF"], 0),
            ("tower-2body", ["tower", c("tower-2body")], 0),
            ("tower-collision", ["tower", c("collision")], 3),
        ]
        for name in _INTEGRATORS:
            self.commands.append((f"simulate-{name}", [
                "simulate", c(f"sim-{name}"), "--out", c(f"sim-{name}", ".csv")],
                0))

    def _call(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
                stderr):
            code = self.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def round(self, r: int):
        return [(kind, partial(self._call, argv))
                for kind, argv, _code in self.commands]

    def check(self, outputs) -> Outcome:
        out = Outcome()
        documented = {kind: code for kind, _argv, code in self.commands}
        for r, kind, (code, stdout, stderr) in outputs:
            what = f"round {r} {kind}"
            if code != documented[kind]:
                out.failed.append(f"{kind}: exit {code}, documented "
                                  f"{documented[kind]}: {stderr.strip()}")
                continue
            if code != 0:
                continue
            try:
                report = json.loads(stdout)
            except json.JSONDecodeError as e:
                out.problems.append(f"{what}: report is not JSON: {e}")
                continue
            out.run(what, self._check_report, kind, report)
        return out

    def _check_report(self, kind: str, rep: dict) -> None:
        if kind == "tower":
            checks.vanishes(rep["norm_inf"], 1e-12,
                            "oscillator energy tower")
        elif kind == "rank":
            checks.equal(rep["rank"]["submersion"], True, "submersion")
        elif kind.startswith("releq-"):
            want = {"releq-lagrange": 3.0, "releq-euler": 1.25,
                    "releq-newton": 2.0}[kind]
            checks.close(rep["solution"]["omega_squared"], want, 1e-9,
                         "omega^2")
        elif kind == "scan":
            checks.equal(rep["zero_fraction"], 1.0,
                         "zero fraction of a conserved energy")
        elif kind == "perturb-experiment":
            checks.equal(rep["experiment"]["pooled_zero_fraction"], 0.0,
                         "pooled zero fraction under bumps")
        elif kind in ("classify", "figure8-demo", "figure8-unrefined"):
            checks.equal(rep["classification"]["verdict"], "NonConstantF",
                         "verdict")
            if kind == "figure8-demo":
                checks.vanishes(rep["closure_error"], 1e-9,
                                "figure-eight closure error")
        elif kind == "tower-2body":
            checks.equal(rep["tower"]["order"], 9, "tower order "
                         "(phase dimension + 1)")
            q, p = (np.asarray(_STATE[k], float) for k in ("q", "p"))
            checks.lagrange_jacobi(rep["tower"]["values"], q, p,
                                   np.ones(2))
        elif kind.startswith("simulate-"):
            traj = rep["trajectory"]
            checks.equal(traj["status"], "completed", "trajectory status")
            checks.close(traj["t_final"], 10.0, 1e-12, "final time")
            header = Path(rep["csv"]).read_text().split("\n", 1)[0]
            checks.equal(header, "t,q0,q1,q2,q3,p0,p1,p2,p3,energy,ang_mom,"
                         "inertia,min_sep", "CSV header")


WORKLOADS = {
    "genericity-2body": Genericity2Body,
    "rank-ensemble": RankEnsemble,
    "threebody-m7": ThreeBodyM7,
    "orbits-cli": OrbitsCli,
}
