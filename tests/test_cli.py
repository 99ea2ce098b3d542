"""End-to-end command-line tests driven through ``saarilab.cli.main``."""

import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from saarilab import cli, jet_algebra
from saarilab.flow import figure8_initial_conditions
from saarilab.cli import (
    SCHEMA_VERSION,
    _build_integrator,
    _build_observable,
    _build_system,
    main,
)
from saarilab.mech import (
    BodySystem,
    HamiltonianField,
    NewtonianPotential,
    releq_newton,
    releq_trajectory,
)

from fresh import run_fresh

OSC = {"kind": "oscillator"}
NBODY2 = {
    "kind": "nbody",
    "n_bodies": 2,
    "space_dim": 2,
    "masses": [1.0, 1.0],
    "potential": {"variant": "newtonian"},
}


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def circular_state():
    system = BodySystem(2, 2, (1.0, 1.0), NewtonianPotential())
    sol = releq_newton(system, np.array([[-0.5, 0.0], [0.5, 0.0]]))
    state = releq_trajectory(sol, 0.0)
    return ({"q": state.q.tolist(), "p": state.p.tolist()},
            2.0 * math.pi / sol.omega)


# -- tower ---------------------------------------------------------------------------


def test_tower_oscillator_coordinate(tmp_path, capsys):
    cfg = write_config(tmp_path, "t.json", {
        "system": OSC,
        "observable": {"kind": "coordinate", "index": 0},
        "point": [1.0, 0.0],
        "tower_order": 3,
    })
    code, out, _ = run(capsys, ["tower", cfg])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["command"] == "tower"
    np.testing.assert_allclose(rep["tower"]["values"], [0.0, -1.0, 0.0],
                               atol=1e-12)
    assert not rep["is_near_equilibrium"]


def test_tower_conserved_energy(tmp_path, capsys):
    cfg = write_config(tmp_path, "t.json", {
        "system": OSC,
        "observable": {"kind": "energy"},
        "point": [0.6, 0.8],
    })
    code, out, _ = run(capsys, ["tower", cfg])
    assert code == 0
    assert json.loads(out)["norm_inf"] < 1e-12


def test_tower_writes_output_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    cfg = write_config(tmp_path, "t.json", {
        "system": OSC,
        "observable": {"kind": "energy"},
        "point": [1.0, 0.0],
        "output": str(out_file),
    })
    code, out, _ = run(capsys, ["tower", cfg])
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text())["command"] == "tower"


#: The README's planar three-body system.
NBODY3 = {"kind": "nbody", "n_bodies": 3, "space_dim": 2,
          "masses": [1.0, 1.0, 1.0], "potential": {"variant": "newtonian"}}

_TOWER_FRESH = """
import json, sys
import saarilab.cli
code = saarilab.cli.main(["tower", sys.argv[1]])
print(json.dumps({"code": code, "peak_mb": peak_mb()}))
"""


def test_three_body_tower_runs_at_its_default_order(tmp_path):
    # Without "tower_order" the tower takes m = phase_dim + 1 = 13.  The
    # inertia runs on the Jacobi chart's (8, 13) table of 203 490
    # coefficients, where the Cartesian (12, 13) table of 5 200 300 ran out
    # of memory: in a fresh process it takes about 0.7 s and 215 MB on 2
    # vCPUs.  Its first entry is dI/dt = 2 q.p about the centre of mass.
    q = [[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]]
    p = [[0.1, 0.3], [-0.2, -0.1], [0.1, -0.2]]
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, "t.json", {
        "system": NBODY3, "observable": {"kind": "inertia"},
        "state": {"q": q, "p": p}, "output": str(out)})
    got = run_fresh(_TOWER_FRESH, cfg)
    assert got["code"] == 0
    assert got["peak_mb"] < 400
    tower = json.loads(out.read_text())["tower"]
    assert tower["order"] == 13 and len(tower["values"]) == 13
    assert np.isfinite(tower["values"]).all()
    assert tower["values"][0] == pytest.approx(
        2.0 * float(np.sum(np.array(q) * np.array(p))), rel=1e-12)


# -- rank ----------------------------------------------------------------------------


def test_rank_submersion_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, "r.json", {
        "system": OSC,
        "point": [1.0, 0.0],
        "tower_order": 3,
    })
    code, out, _ = run(capsys, ["rank", cfg, "--expect-submersion"])
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"]["submersion"] is True
    assert rep["rank"]["numerical_rank"] == 3


_RANK_FRESH = """
import contextlib, io, json, sys, time
import saarilab.cli
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = saarilab.cli.main(["rank", sys.argv[1]])
seconds = time.perf_counter() - start
print(json.dumps({"code": code, "seconds": seconds,
                  "report": json.loads(out.getvalue())}))
"""


def test_two_body_rank_runs_at_its_default_order(tmp_path):
    # The README's two-body system: without "tower_order" the observable
    # Jacobian takes m = phase_dim + 1 = 9 over the 24 309 non-constant
    # coefficients of the (8, 9) table, in m transposed sweeps: about 0.2 s
    # on 2 vCPUs.
    cfg = write_config(tmp_path, "r.json", {
        "system": NBODY2,
        "state": {"q": [[-0.5, 0.0], [0.5, 0.0]],
                  "p": [[0.0, -0.5], [0.0, 0.5]]},
        "jacobian": "F"})
    got = run_fresh(_RANK_FRESH, cfg)
    assert got["code"] == 0
    rank = got["report"]["rank"]
    assert len(rank["singular_values"]) == 9
    assert rank["submersion"] is True
    assert got["seconds"] < 10.0


def test_rank_degenerate_field_fails_expectation(tmp_path, capsys):
    # x' = x^2 vanishes to first order at the origin: every tower entry
    # does too, so the Jacobian cannot reach full rank there.
    cfg = write_config(tmp_path, "r.json", {
        "system": {
            "kind": "polynomial_field",
            "dim": 1,
            "degree": 2,
            "components": [[{"alpha": [2], "c": 1.0}]],
        },
        "point": [0.0],
        "tower_order": 2,
    })
    code, out, err = run(capsys, ["rank", cfg, "--expect-submersion"])
    assert code == 1
    assert "rank 0 < 2" in err
    assert json.loads(out)["rank"]["submersion"] is False


def test_rank_wrt_field_needs_observable(tmp_path, capsys):
    base = {"system": OSC, "point": [1.0, 0.0], "jacobian": "X"}
    cfg = write_config(tmp_path, "r.json", base)
    code, _, err = run(capsys, ["rank", cfg])
    assert code == 2 and "observable" in err
    cfg2 = write_config(tmp_path, "r2.json",
                        {**base, "observable": {"kind": "energy"}})
    code2, out2, _ = run(capsys, ["rank", cfg2])
    assert code2 == 0
    assert json.loads(out2)["jacobian"] == "X"


@pytest.mark.parametrize("extra, message", [
    ({"jacobian": "Z"}, "jacobian must be"),
    ({"jacobian": "X"}, "observable block"),
    ({"jacobian": "X", "observable": {"kind": "spin"}}, "observable")])
def test_rank_refuses_its_config_before_building_the_field_jet(
        tmp_path, capsys, monkeypatch, extra, message):
    # The field jet is the costly step, at the planar three-body default
    # order m = 13 above all, so the config is checked before it is built.
    built = []
    monkeypatch.setattr(HamiltonianField, "jet_field",
                        lambda *args: built.append(args))
    state = {"q": [[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]],
             "p": [[0.1, 0.3], [-0.2, -0.1], [0.1, -0.2]]}
    cfg = write_config(tmp_path, "r.json",
                       {"system": NBODY3, "state": state, **extra})
    code, out, err = run(capsys, ["rank", cfg])
    assert code == 2 and message in err and out == ""
    assert built == []


# -- simulate -------------------------------------------------------------------------


def test_simulate_writes_csv_and_summary(tmp_path, capsys):
    csv = tmp_path / "traj.csv"
    cfg = write_config(tmp_path, "s.json", {
        "system": OSC,
        "point": [1.0, 0.0],
        "integrator": {"method": "rk4", "step": 0.1, "max_time": 1.0},
    })
    code, out, _ = run(capsys, ["simulate", cfg, "--out", str(csv)])
    assert code == 0
    rep = json.loads(out)
    assert rep["trajectory"]["status"] == "completed"
    assert rep["csv"] == str(csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,q0,p0,energy,ang_mom,inertia,min_sep"
    assert len(lines) == 1 + 11


def test_simulate_streams_csv_without_out(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        "system": OSC,
        "point": [1.0, 0.0],
        "integrator": {"method": "rk4", "step": 0.5, "max_time": 1.0},
    })
    code, out, _ = run(capsys, ["simulate", cfg])
    assert code == 0
    assert out.splitlines()[0].startswith("t,q0,p0,")


def test_simulate_collision_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        "system": NBODY2,
        "state": {"q": [[-0.5, 0.0], [0.5, 0.0]],
                  "p": [[0.0, 0.0], [0.0, 0.0]]},
        "integrator": {"method": "dop853", "step": [1e-10, 1e-12],
                       "max_time": 10.0},
    })
    # head-on free fall ends in a singular halt, which is still exit 0 ...
    code, out, _ = run(capsys, ["simulate", cfg, "--out",
                                str(tmp_path / "c.csv")])
    assert code == 0
    assert json.loads(out)["trajectory"]["status"] == "singular"
    # ... but starting *at* the collision is an error
    cfg2 = write_config(tmp_path, "s2.json", {
        "system": NBODY2,
        "state": {"q": [[0.0, 0.0], [1e-9, 0.0]],
                  "p": [[0.0, 0.0], [0.0, 0.0]]},
        "integrator": {"method": "rk4", "step": 0.01, "max_time": 1.0},
    })
    code2, _, err2 = run(capsys, ["simulate", cfg2])
    assert code2 == 3 and "collision" in err2


# -- releq ----------------------------------------------------------------------------


def test_releq_lagrange(tmp_path, capsys):
    cfg = write_config(tmp_path, "l.json", {
        "system": {**NBODY2, "n_bodies": 3, "masses": [1.0, 1.0, 1.0]},
        "family": "lagrange",
        "side": 1.0,
    })
    code, out, _ = run(capsys, ["releq", cfg])
    assert code == 0
    sol = json.loads(out)["solution"]
    assert sol["omega_squared"] == pytest.approx(3.0, rel=1e-12)
    assert sol["residual"] < 1e-11


def test_releq_newton_and_euler(tmp_path, capsys):
    cfg = write_config(tmp_path, "n.json", {
        "system": NBODY2,
        "family": "newton",
        "guess": [[-0.5, 0.0], [0.5, 0.0]],
    })
    code, out, _ = run(capsys, ["releq", cfg])
    assert code == 0
    assert json.loads(out)["solution"]["omega_squared"] == pytest.approx(2.0)
    cfg2 = write_config(tmp_path, "e.json", {
        "system": {**NBODY2, "n_bodies": 3, "masses": [1.0, 1.0, 1.0]},
        "family": "euler",
    })
    code2, out2, _ = run(capsys, ["releq", cfg2])
    assert code2 == 0
    assert json.loads(out2)["solution"]["omega_squared"] == pytest.approx(1.25)


@pytest.mark.parametrize("family, key, value", [
    ("lagrange", "side", "2"),
    ("lagrange", "side", True),
    ("lagrange", "side", -1),
    ("lagrange", "side", math.nan),
    ("lagrange", "side", math.inf),
    ("euler", "gap", "2"),
    ("euler", "gap", -1),
    ("euler", "gap", math.nan),
    ("euler", "gap", math.inf),
    ("euler", "ordering", [0, 1.7, 2]),
    ("euler", "ordering", [0, 1, 1]),
    ("euler", "ordering", 12),
])
def test_releq_rejects_bad_numbers_as_config_errors(tmp_path, capsys, family,
                                                    key, value):
    # json.dumps writes nan and inf as NaN and Infinity, which json reads
    # back; none of these may run as a nearby number
    cfg = write_config(tmp_path, "bad.json", {
        "system": {**NBODY2, "n_bodies": 3, "masses": [1.0, 1.0, 1.0]},
        "family": family,
        key: value,
    })
    code, out, err = run(capsys, ["releq", cfg])
    assert code == 2 and key in err and out == ""


@pytest.mark.parametrize("family, n_bodies, space_dim, needs", [
    ("lagrange", 2, 2, "three bodies"),
    ("lagrange", 4, 2, "three bodies"),
    ("lagrange", 3, 3, "planar"),
    ("euler", 2, 2, "three bodies"),
    ("euler", 4, 3, "three bodies"),
])
def test_releq_on_a_system_of_the_wrong_shape_is_a_config_error(
        tmp_path, capsys, family, n_bodies, space_dim, needs):
    # The library raises ValueError for these; the command checks the
    # shape first, so a wrong system is exit 2, not a run-time error.
    cfg = write_config(tmp_path, "shape.json", {
        "system": {**NBODY2, "n_bodies": n_bodies, "space_dim": space_dim,
                   "masses": [1.0] * n_bodies},
        "family": family,
    })
    code, out, err = run(capsys, ["releq", cfg])
    assert code == 2 and out == ""
    assert err.startswith("config error:") and needs in err


def test_releq_unknown_family(tmp_path, capsys):
    cfg = write_config(tmp_path, "x.json", {
        "system": NBODY2, "family": "halo",
    })
    code, _, err = run(capsys, ["releq", cfg])
    assert code == 2 and "family" in err


# -- scan and perturb-experiment --------------------------------------------------------


def test_scan_conserved_energy(tmp_path, capsys):
    cfg = write_config(tmp_path, "scan.json", {
        "system": OSC,
        "observable": {"kind": "energy"},
        "scan": {"box": [0.5, 1.5], "count": 50, "seed": 3},
    })
    code, out, _ = run(capsys, ["scan", cfg])
    assert code == 0
    rep = json.loads(out)
    assert rep["zero_fraction"] == 1.0
    assert rep["report"]["n_samples"] == 50


def test_scan_needs_a_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, "scan.json", {
        "system": OSC,
        "observable": {"kind": "energy"},
        "scan": {"box": [0.5, 1.5], "count": 5},
    })
    code, _, err = run(capsys, ["scan", cfg])
    assert code == 2 and "seed" in err
    code2, out2, _ = run(capsys, ["scan", cfg, "--seed", "11"])
    assert code2 == 0
    assert json.loads(out2)["report"]["seed"] == 11


def test_perturb_experiment_is_byte_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, "exp.json", {
        "system": OSC,
        "observable": {"kind": "energy"},
        "perturbation": {"target": "observable", "degree": 3,
                         "epsilon": 0.01, "seed": 5},
        "trials": 2,
        "scan": {"box": [0.5, 1.5], "count": 20, "seed": 7},
    })
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, ["perturb-experiment", cfg, "--out", str(out_a)])[0] == 0
    assert run(capsys, ["perturb-experiment", cfg, "--out", str(out_b)])[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    rep = json.loads(out_a.read_text())["experiment"]
    assert rep["pooled_zero_fraction"] == 0.0
    assert rep["n_nonexcluded_total"] == 40
    assert len(rep["trials"]) == 2


# -- classify and figure-8 ----------------------------------------------------------------


def test_classify_circular_orbit(tmp_path, capsys):
    state, period = circular_state()
    cfg = write_config(tmp_path, "c.json", {
        "system": NBODY2,
        "state": state,
        "integrator": {"method": "dop853", "step": [1e-12, 1e-13],
                       "max_time": period},
    })
    code, out, _ = run(capsys, ["classify", cfg, "--expect",
                                "RelativeEquilibrium"])
    assert code == 0
    assert json.loads(out)["classification"]["verdict"] == "RelativeEquilibrium"
    # a wrong expectation flips only the exit code, not the report
    code2, out2, err2 = run(capsys, ["classify", cfg, "--expect", "Equilibrium"])
    assert code2 == 1
    assert json.loads(out2)["classification"]["verdict"] == "RelativeEquilibrium"
    assert "expected verdict" in err2


def test_figure8_demo_quick_arc(tmp_path, capsys):
    cfg = write_config(tmp_path, "f8.json", {
        "refine": False,
        "integrator": {"method": "dop853", "step": [1e-10, 1e-12],
                       "max_time": 2.0},
    })
    code, out, _ = run(capsys, ["figure8-demo", cfg, "--expect",
                                "NonConstantF"])
    assert code == 0
    rep = json.loads(out)
    assert rep["refined"] is False
    assert rep["period"] == pytest.approx(6.32591398)
    assert rep["classification"]["verdict"] == "NonConstantF"


# -- error handling --------------------------------------------------------------------


def test_missing_and_malformed_configs(tmp_path, capsys):
    code, _, err = run(capsys, ["tower", str(tmp_path / "nope.json")])
    assert code == 2 and "config" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, ["tower", str(bad)])[0] == 2
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert run(capsys, ["tower", str(lst)])[0] == 2


def test_unknown_keys_are_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "t.json", {
        "system": OSC,
        "observable": {"kind": "energy"},
        "point": [1.0, 0.0],
        "towr_order": 3,  # typo
    })
    code, _, err = run(capsys, ["tower", cfg])
    assert code == 2 and "towr_order" in err


_BUMP = {"dim": 4, "degree": 2, "base": [0.0] * 4,
         "coeffs": [{"alpha": [2, 0, 0, 0], "c": 0.1}]}


@pytest.mark.parametrize("potential, named", [
    ({"variant": "newtonian", "terms": [[1, -2]]}, "terms"),
    ({"variant": "power_law", "terms": [[1, -1]], "softening": 0.1},
     "softening"),
    ({"variant": "yukawa"}, "yukawa"),
    ({"terms": [[1, -1]]}, "variant"),
    ({"variant": "power_law"}, "terms"),
    ({"variant": "perturbed", "base": {"variant": "newtonian", "x": 1},
      "bump": _BUMP}, "'x'"),
    ({"variant": "perturbed", "base": {"variant": "newtonian"},
      "bump": {**_BUMP, "scale": 2}}, "scale"),
    ({"variant": "perturbed", "base": {"variant": "newtonian"},
      "bump": {**_BUMP, "coeffs": [{"alpha": [2, 0, 0, 0], "c": 0.1,
                                    "d": 1}]}}, "'d'"),
], ids=["newtonian-terms", "power-law-extra", "unknown-variant",
        "no-variant", "missing-terms", "base-extra", "bump-extra",
        "bump-entry-extra"])
def test_a_potential_block_holds_only_the_keys_of_its_variant(
        tmp_path, capsys, potential, named):
    # {"variant": "newtonian", "terms": ...} used to run the 1/r law and exit 0
    cfg = write_config(tmp_path, "t.json", {
        "system": {**NBODY2, "potential": potential},
        "observable": {"kind": "energy"},
        "point": [0.5, 0.0, -0.5, 0.0, 0.0, 0.3, 0.0, -0.3],
    })
    code, out, err = run(capsys, ["tower", cfg])
    assert code == 2 and named in err and not out, err
    good = {**NBODY2, "potential": {"variant": "perturbed",
                                    "base": {"variant": "newtonian"},
                                    "bump": _BUMP}}
    cfg = write_config(tmp_path, "good.json", {
        "system": good, "observable": {"kind": "energy"},
        "point": [0.5, 0.0, -0.5, 0.0, 0.0, 0.3, 0.0, -0.3]})
    assert run(capsys, ["tower", cfg])[0] == 0


def test_main_twice_in_one_process_gives_the_same_results(tmp_path, capsys):
    # The argument parser is built once per process and reused by every call.
    cfg = write_config(tmp_path, "t.json", {
        "system": OSC, "observable": {"kind": "energy"},
        "point": [1.0, 0.0], "tower_order": 3})
    bad = write_config(tmp_path, "bad.json", {"system": OSC})
    calls = [["tower", cfg], ["tower", bad], ["tower", cfg, "--seed", "x"],
             ["rank", cfg, "--expect-submersion"], []]
    first = [run(capsys, argv) for argv in calls]
    assert [r[0] for r in first] == [0, 2, 2, 0, 2]
    assert [run(capsys, argv) for argv in calls] == first


def test_unknown_system_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, "t.json", {
        "system": {"kind": "pendulum"},
        "observable": {"kind": "energy"},
        "point": [0.0, 0.0],
    })
    assert run(capsys, ["tower", cfg])[0] == 2


def test_point_must_match_dimension(tmp_path, capsys):
    cfg = write_config(tmp_path, "t.json", {
        "system": OSC,
        "observable": {"kind": "energy"},
        "point": [1.0, 0.0, 0.0],
    })
    code, _, err = run(capsys, ["tower", cfg])
    assert code == 2 and "length 2" in err


_SIM_STATE = {"q": [[-0.5, 0.0], [0.5, 0.0]], "p": [[0.0, -0.5], [0.0, 0.5]]}


@pytest.mark.parametrize("command, cfg, key", [
    ("tower", {"system": NBODY2, "observable": {"kind": "energy"},
               "state": {"q": [[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]],
                         "p": [[0.0, -0.5, 0.0], [0.0, 0.5, 0.0]]}}, "state"),
    ("releq", {"system": NBODY2, "family": "newton",
               "guess": [[-0.5, 0.0, 1.0], [0.5, 0.0, 1.0]]}, "guess"),
])
def test_states_and_guesses_must_match_the_system(tmp_path, capsys, command,
                                                  cfg, key):
    # three coordinates per body do not fit a planar two-body system
    code, out, err = run(capsys, [command, write_config(tmp_path, "c.json",
                                                        cfg)])
    assert (code, out) == (2, "") and key in err


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("method, step", [
    ("rk4", 0.1), ("stormer_verlet", 0.01), ("dop853", [1e-10, 1e-12])])
def test_non_finite_states_are_config_errors(tmp_path, capsys, method, step,
                                             bad):
    # json.dumps writes nan and inf as NaN and Infinity, which json reads
    state = {"q": [[-0.5, 0.0], [0.5, 0.0]], "p": [[0.0, -0.5], [0.0, bad]]}
    path = write_config(tmp_path, "s.json", {
        "system": NBODY2, "state": state,
        "integrator": {"method": method, "step": step, "max_time": 1.0}})
    code, out, err = run(capsys, ["simulate", path])
    assert (code, out) == (2, "") and "finite" in err


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_config_errors(tmp_path, capsys, bad):
    for name, cfg in [
        ("point", {"system": OSC, "point": [0.6, bad]}),
        ("state", {"system": NBODY2, "state": dict(
            _SIM_STATE, q=[[-0.5, bad], [0.5, 0.0]])}),
    ]:
        path = write_config(tmp_path, f"{name}.json",
                            dict(cfg, observable={"kind": "energy"}))
        code, out, err = run(capsys, ["tower", path])
        assert (code, out) == (2, "") and "finite" in err


@pytest.mark.parametrize("integrator", [
    {"method": "rk4", "step": True, "max_time": 1.0},
    {"method": "rk4", "step": "0.1", "max_time": 1.0},
    {"method": "rk4", "step": 0.1, "max_time": math.inf},
    {"method": "rk4", "step": 0.1, "max_time": "x"},
])
def test_integrator_values_are_config_errors(tmp_path, capsys, integrator):
    # NaN tolerances or max_time are checked on IntegratorConfig alone
    # (test_flow.py): should the check fail, integrating them never returns.
    path = write_config(tmp_path, "s.json", {
        "system": NBODY2, "state": _SIM_STATE, "integrator": integrator})
    code, out, _ = run(capsys, ["simulate", path])
    assert (code, out) == (2, "")


@pytest.mark.parametrize("refine", ["false", 0, 1, None])
def test_figure8_refine_must_be_a_boolean(tmp_path, capsys, refine):
    path = write_config(tmp_path, "f8.json", {"refine": refine})
    code, out, err = run(capsys, ["figure8-demo", path])
    assert (code, out) == (2, "") and "refine" in err


def test_figure8_refinement_that_does_not_converge_exits_3(monkeypatch,
                                                          capsys):
    monkeypatch.setattr(cli, "figure8_initial_conditions", functools.partial(
        figure8_initial_conditions, tol=1e-30, max_iter=1))
    code, out, err = run(capsys, ["figure8-demo"])
    assert (code, out) == (3, "") and "one-third defect" in err


_AT_POINT = {"system": OSC, "observable": {"kind": "energy"},
             "point": [0.6, 0.8]}
_SCANNED = {"system": OSC, "observable": {"kind": "energy"},
            "scan": {"box": [0.5, 1.5], "count": 5, "seed": 3}}


@pytest.mark.parametrize("order", [0, -1, 2.5])
@pytest.mark.parametrize("command, cfg", [
    ("tower", _AT_POINT),
    ("rank", dict(_AT_POINT, jacobian="F")),
    ("rank", dict(_AT_POINT, jacobian="X")),
    ("scan", _SCANNED),
    ("perturb-experiment", dict(
        _SCANNED, trials=1,
        perturbation={"target": "observable", "degree": 3, "epsilon": 0.01,
                      "seed": 5})),
])
def test_tower_order_must_be_a_positive_integer(tmp_path, capsys, command,
                                                 cfg, order):
    path = write_config(tmp_path, "c.json", dict(cfg, tower_order=order))
    code, out, err = run(capsys, [command, path, "--expect-submersion"]
                         if command == "rank" else [command, path])
    assert code == 2 and "tower_order" in err
    assert out == ""


@pytest.mark.parametrize("threshold", ["x", "1e-6", True, None, 0, -1, 1,
                                       math.nan, math.inf])
def test_rank_threshold_must_lie_strictly_between_0_and_1(tmp_path, capsys,
                                                          threshold):
    path = write_config(tmp_path, "c.json", dict(_AT_POINT, threshold=threshold))
    code, out, err = run(capsys, ["rank", path])
    assert code == 2 and "threshold" in err
    assert out == ""


def test_rank_threshold_overrides_the_default(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", dict(_AT_POINT, threshold=1e-6))
    code, out, _ = run(capsys, ["rank", path])
    assert code == 0
    assert json.loads(out)["rank"]["threshold"] == 1e-6


_EXPERIMENT = dict(_SCANNED, trials=2, perturbation={
    "target": "observable", "degree": 3, "epsilon": 0.01, "seed": 5})


@pytest.mark.parametrize("block, key, value", [
    ("scan", "count", 2.5), ("scan", "count", True), ("scan", "count", 0),
    ("scan", "count", "3"),
    ("scan", "box", [0.5, "a"]), ("scan", "box", [False, 1.5]),
    ("scan", "box", [0.5, math.inf]), ("scan", "box", [math.nan, 1.5]),
    ("scan", "box", [0.5, 10 ** 400]),
    ("scan", "box", [1.5, 0.5]), ("scan", "box", [1.0, 1.0]),
    ("scan", "min_separation", "x"), ("scan", "min_separation", math.nan),
    ("scan", "min_separation", -0.1), ("scan", "min_separation", math.inf),
    ("perturbation", "degree", 2.5), ("perturbation", "degree", True),
    ("perturbation", "degree", 0),
    ("perturbation", "epsilon", "x"), ("perturbation", "epsilon", math.nan),
    ("perturbation", "epsilon", -1e-3), ("perturbation", "epsilon", math.inf),
    (None, "trials", 2.5), (None, "trials", True), (None, "trials", 0),
    (None, "trials", "2"),
    ("scan", "seed", 2.5), ("scan", "seed", True), ("scan", "seed", "x"),
    ("scan", "seed", -1),
    ("perturbation", "seed", 2.5), ("perturbation", "seed", True),
    ("perturbation", "seed", "x"), ("perturbation", "seed", -1),
    ("tolerances", "tol_zero", math.nan), ("tolerances", "tol_zero", 0),
    ("tolerances", "tol_zero", "x"), ("tolerances", "tol_eq", -1e-9),
    ("tolerances", "tol_eq", True), ("tolerances", "tol_crit", math.inf),
])
def test_scan_perturbation_and_trials_values_are_checked(tmp_path, capsys,
                                                         block, key, value):
    # A configuration error is exit 2 before any sample is drawn: no value
    # is truncated, coerced from a bool or string, or accepted as NaN.
    commands = {"perturb-experiment": _EXPERIMENT}
    if block in ("scan", "tolerances"):
        commands["scan"] = _SCANNED
    for command, base in commands.items():
        cfg = json.loads(json.dumps(base))
        (cfg if block is None else cfg.setdefault(block, {}))[key] = value
        path = write_config(tmp_path, "c.json", cfg)
        code, out, err = run(capsys, [command, path])
        assert code == 2 and err.startswith("config error:"), (command, err)
        assert key in err and out == ""


@pytest.mark.parametrize("seed", [2.5, True, "x", -1])
def test_a_global_seed_must_be_an_integer(tmp_path, capsys, seed):
    # The blocks take the config's seed when they have none of their own.
    for command, base in (("scan", _SCANNED), ("perturb-experiment", _EXPERIMENT)):
        cfg = json.loads(json.dumps(base))
        for block in ("scan", "perturbation"):
            cfg.get(block, {}).pop("seed", None)
        cfg["seed"] = seed
        code, out, err = run(capsys, [command, write_config(tmp_path, "c.json", cfg)])
        assert code == 2 and err.startswith("config error:"), (command, err)
        assert "seed" in err and out == ""


def test_integral_numbers_read_as_their_floats(tmp_path, capsys):
    as_floats = dict(_EXPERIMENT,
                     scan={"box": [0.0, 2.0], "count": 5, "seed": 3,
                           "min_separation": 0.0},
                     perturbation=dict(_EXPERIMENT["perturbation"], epsilon=1.0),
                     tolerances={"tol_zero": 1.0})
    as_ints = dict(_EXPERIMENT,
                   scan={"box": [0, 2], "count": 5, "seed": 3,
                         "min_separation": 0},
                   perturbation=dict(_EXPERIMENT["perturbation"], epsilon=1),
                   tolerances={"tol_zero": 1})
    outs = []
    for cfg in (as_floats, as_ints):
        code, out, _ = run(capsys, ["perturb-experiment",
                                    write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


_AT_STATE = {"system": NBODY2, "observable": {"kind": "energy"},
             "state": _SIM_STATE}
_AT_POLY = {"system": {"kind": "polynomial_field", "dim": 1, "degree": 2,
                       "components": [[{"alpha": [1], "c": 1.0}]]},
            "observable": {"kind": "coordinate", "index": 0},
            "point": [0.5], "tower_order": 2}
_SIMULATED = {"system": NBODY2, "state": _SIM_STATE,
              "integrator": {"method": "rk4", "step": 0.001, "max_time": 1.0}}
_CLASSIFIED = dict(_SIMULATED, tolerances={})
_ALPHA = ("system", "components", 0, 0, "alpha", 0)


_COERCED = [
    ("tower", _AT_POINT, ("point", 0), True, "point"),
    ("tower", _AT_STATE, ("state", "q", 0, 0), True, "state"),
    ("releq", {"system": NBODY2, "family": "newton",
               "guess": [[-0.5, 0.0], [0.5, 0.0]]}, ("guess", 0, 0), True,
     "guess"),
    ("tower", _AT_POLY, _ALPHA, 2.5, "alpha"),
    ("tower", _AT_POLY, _ALPHA, True, "alpha"),
    ("tower", _AT_POLY, _ALPHA[:-2] + ("c",), "1.5", "c"),
    ("tower", _AT_POLY, ("system", "dim"), 1.7, "dim"),
    ("tower", _AT_POLY, ("system", "degree"), True, "degree"),
    ("tower", dict(_AT_POINT, observable={"kind": "coordinate", "index": 0}),
     ("observable", "index"), True, "index"),
    ("tower", _AT_STATE, ("system", "n_bodies"), 2.9, "n_bodies"),
    ("tower", _AT_STATE, ("system", "com_fixed"), "false", "com_fixed"),
    ("tower", _AT_STATE, ("system", "masses", 0), True, "masses"),
    ("tower", _AT_STATE, ("system", "masses", 0), math.nan, "masses"),
    ("tower", dict(_AT_STATE, system=dict(NBODY2, potential={
        "variant": "power_law", "terms": [[1.0, -1.0]]})),
     ("system", "potential", "terms"), [[True, "-1"]], "terms"),
    ("classify", _CLASSIFIED, ("tolerances", "tol_shape"), "x", "tol_shape"),
    ("classify", _CLASSIFIED, ("tolerances", "margin"), math.nan, "margin"),
    ("simulate", _SIMULATED, ("integrator", "max_time"), 1e300,
     "max_time"),
    ("simulate", _SIMULATED, ("integrator", "max_time"), 1e15, "max_time"),
    ("simulate", dict(_SIMULATED, integrator={
        "method": "rk4", "step": 1e-13, "max_time": 1e300}),
     ("integrator", "step"), 1e-13, "max_time"),
]


@pytest.mark.parametrize("command, base, path, value, key", _COERCED,
                         ids=[f"{c[4]}-{c[3]!r}" for c in _COERCED])
def test_values_a_cast_would_coerce_are_config_errors(tmp_path, capsys,
                                                      command, base, path,
                                                      value, key):
    # No value is truncated, read from a bool or a string, or accepted as
    # NaN, and a fixed step count must be at most MAX_FIXED_STEPS, also one
    # past float range: each is exit 2 naming its key, before any report.
    cfg = json.loads(json.dumps(base))
    block = cfg
    for k in path[:-1]:
        block = block[k]
    block[path[-1]] = value
    code, out, err = run(capsys, [command, write_config(tmp_path, "c.json",
                                                        cfg)])
    assert code == 2 and err.startswith("config error:"), err
    assert re.search(rf"\b{key}\b", err) and out == "", err


def test_collision_point_exits_3(tmp_path, capsys, monkeypatch):
    # Record every jet table requested, under each name it is imported as.
    space = jet_algebra._space
    requested = []

    def recording_space(dim, degree):
        requested.append((dim, degree))
        return space(dim, degree)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "saarilab":
            for attr, value in list(vars(module).items()):
                if value is space:
                    monkeypatch.setattr(module, attr, recording_space)
    cfg = write_config(tmp_path, "t.json", {
        "system": NBODY2,
        "observable": {"kind": "energy"},
        "state": {"q": [[0.0, 0.0], [1e-12, 0.0]],
                  "p": [[0.0, 0.0], [0.0, 0.0]]},
    })
    assert run(capsys, ["tower", cfg])[0] == 3
    # The default order is 9: a collision fails before its tables are built.
    assert [r for r in requested if r[1] >= 9] == []


def _readme_config_blocks() -> dict:
    """The JSON objects of the README's "Common config blocks", by section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Common config blocks:", 1)[1]
    block = block.split("```jsonc", 1)[1].split("```", 1)[0]
    sections: dict[str, str] = {}
    section = None
    for line in block.strip().splitlines():
        if line.strip().startswith("//"):
            section = line.strip()[2:].strip()
            sections[section] = ""
        else:
            sections[section] += line.split("//", 1)[0] + "\n"
    decoder = json.JSONDecoder()
    out = {}
    for section, text in sections.items():
        objects, pos = [], 0
        text = text.strip()
        while pos < len(text):
            obj, pos = decoder.raw_decode(text, pos)
            objects.append(obj)
            while pos < len(text) and text[pos].isspace():
                pos += 1
        out[section] = objects
    return out


def test_readme_config_blocks_work_as_written():
    blocks = _readme_config_blocks()
    assert sorted(blocks) == ["integrators", "observables", "systems"]
    built = [_build_system(cfg) for cfg in blocks["systems"]]
    field, system, _ = next(b for b in built if b[2] == "nbody")
    for cfg in blocks["observables"]:
        _build_observable(cfg, field, system)
    for cfg in blocks["integrators"]:
        _build_integrator(cfg)


def test_argparse_errors_surface_as_exit_2(capsys):
    assert main([]) == 2          # no command
    capsys.readouterr()
    assert main(["tower"]) == 2   # missing config path
    capsys.readouterr()
