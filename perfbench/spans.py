"""Spans and counters for the traced run, recorded from outside the program.

:meth:`Tracer.install` replaces public functions and methods of an imported
``saarilab`` with wrappers.  A plain function is replaced under every name
that refers to it in the package, so calls between modules are seen too.
Each span keeps its name, start, end, parent span and item id in memory;
:meth:`Tracer.write` saves them when the run ends.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Item ids of spans made outside the timed items.
SETUP_ITEM = -1
INPUTS_ITEM = -2
CHECK_ITEM = -3

# (layer.name, module, attribute, owning class or None)
_SPANS = (
    ("jet_algebra.jet_mul", "jet_algebra", "jet_mul", None),
    ("jet_algebra.shift_base", "jet_algebra", "shift_base", None),
    ("jet_algebra.embed_jet", "jet_algebra", "embed_jet", None),
    ("lie_tower.psi_tower", "lie_tower", "psi_tower", None),
    ("lie_tower.lie_derivative", "lie_tower", "lie_derivative", None),
    ("lie_tower.dpsi_wrt_F", "lie_tower", "dpsi_wrt_F", None),
    ("lie_tower.dpsi_wrt_X", "lie_tower", "dpsi_wrt_X", None),
    ("lie_tower.obstruction_at", "lie_tower", "obstruction_at", None),
    ("mech.jet_field", "mech", "jet_field", "HamiltonianField"),
    ("mech.energy_jet", "mech", "jet", "EnergyObservable"),
    ("mech.potential_config_jet", "mech", "potential_config_jet", None),
    ("mech.releq", "mech", "releq_lagrange", None),
    ("mech.releq", "mech", "releq_euler", None),
    ("mech.releq", "mech", "releq_newton", None),
    ("fields.observable_jet", "fields", "jet", "PolynomialObservable"),
    ("fields.observable_jet", "fields", "jet", "SumObservable"),
    ("fields.field_jet", "fields", "jet_field", "PolynomialField"),
    ("fields.field_jet", "fields", "jet_field", "SumField"),
    ("fields.field_jet", "fields", "jet_field", "SeparableOscillator"),
    ("flow.figure8", "flow", "figure8_initial_conditions", None),
    ("flow.to_csv", "flow", "to_csv", "Trajectory"),
    ("genericity.draw", "genericity", "draw", "Sampler"),
    ("genericity.perturb", "genericity", "perturb", None),
    ("genericity.scan", "genericity", "obstruction_scan", None),
    ("genericity.experiment", "genericity", "genericity_experiment", None),
    ("genericity.classify", "genericity", "classify_trajectory", None),
    ("cli.main", "cli", "main", None),
)

# Field evaluations made by the integrators: (module, class, method).
_FIELD_EVALS = (
    ("mech", "HamiltonianField", "__call__"),
    ("mech", "HamiltonianField", "grad_v"),
    ("fields", "SeparableOscillator", "__call__"),
    ("fields", "SeparableOscillator", "grad_v"),
    ("fields", "PolynomialField", "__call__"),
)

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "jet_algebra.jets_built": ("count/item", "lower"),
    "jet_algebra.jet_mul.calls": ("count/item", "lower"),
    "jet_algebra.jet_mul.self_ms": ("ms/item", "lower"),
    "jet_algebra.shift_base.self_ms": ("ms/item", "lower"),
    "jet_algebra.embed_jet.self_ms": ("ms/item", "lower"),
    "jet_algebra.tables_built": ("count/run", "lower"),
    "jet_algebra.table_coeffs": ("count", "lower"),
    "jet_algebra.table_build_s": ("s/run", "lower"),
    "lie_tower.psi_tower.calls": ("count/item", "lower"),
    "lie_tower.psi_tower.self_ms": ("ms/item", "lower"),
    "lie_tower.lie_derivative.calls": ("count/item", "lower"),
    "lie_tower.dpsi_wrt_F.self_ms": ("ms/item", "lower"),
    "lie_tower.dpsi_wrt_X.self_ms": ("ms/item", "lower"),
    "lie_tower.obstruction_at.self_ms": ("ms/item", "lower"),
    "mech.jet_field.self_ms": ("ms/item", "lower"),
    "mech.energy_jet.self_ms": ("ms/item", "lower"),
    "mech.potential_config_jet.self_ms": ("ms/item", "lower"),
    "mech.releq.self_ms": ("ms/item", "lower"),
    "fields.observable_jet.self_ms": ("ms/item", "lower"),
    "fields.field_jet.self_ms": ("ms/item", "lower"),
    "flow.integrate.self_ms": ("ms/item", "lower"),
    "flow.integrate.steps": ("count/call", "lower"),
    "flow.field_evals": ("count/call", "lower"),
    "flow.figure8.self_ms": ("ms/item", "lower"),
    "flow.to_csv.self_ms": ("ms/item", "lower"),
    "genericity.draw.self_ms": ("ms/item", "lower"),
    "genericity.draw.accept_ratio": ("ratio", "higher"),
    "genericity.perturb.self_ms": ("ms/item", "lower"),
    "genericity.scan.self_ms": ("ms/item", "lower"),
    "genericity.classify.self_ms": ("ms/item", "lower"),
    "cli.main.self_ms": ("ms/item", "lower"),
}


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.item = SETUP_ITEM
        self._names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._name = array("i")
        self._item = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._self = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        # counter name -> {True: timed items, False: set-up}
        self.counts: dict[str, dict[bool, float]] = defaultdict(
            lambda: {True: 0.0, False: 0.0})

    # -- recording --------------------------------------------------------

    def count(self, name: str, n: float = 1.0) -> None:
        self.counts[name][self.item >= 0] += n

    def _inside(self, name: str) -> bool:
        nid = self._name_id.get(name)
        return nid is not None and any(self._name[s[0]] == nid
                                       for s in self._stack)

    def _enter(self, name: str) -> None:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self._names)
            self._names.append(name)
        idx = len(self._name)
        self._name.append(nid)
        self._item.append(self.item)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._end.append(0.0)
        self._self.append(0.0)
        self._stack.append([idx, 0.0])
        self._start.append(perf_counter())

    def _exit(self) -> None:
        end = perf_counter()
        idx, covered = self._stack.pop()
        duration = end - self._start[idx]
        self._end[idx] = end
        self._self[idx] = duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` may count."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(out, args)
            return out

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, sl) -> None:
        """Wrap the traced entry points of the package ``sl``."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == sl.__name__ or name.startswith(sl.__name__ + ".")}

        def module(short):
            return mods[f"{sl.__name__}.{short}"]

        def replace_function(orig, wrapped):
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

        def on_integrate(traj, _args):
            self.count("flow.integrate.steps", traj.times.size - 1)
            self.count("flow.integrate.calls")

        def on_table(_none, args):
            self.count("jet_algebra.tables_built")
            self.count("jet_algebra.table_coeffs", args[0].size)

        for name, short, attr, cls in _SPANS:
            if cls is None:
                orig = getattr(module(short), attr)
                replace_function(orig, self.span(name, orig))
            else:
                owner = getattr(module(short), cls)
                setattr(owner, attr, self.span(name, owner.__dict__[attr]))
        flow = module("flow")
        replace_function(flow.integrate, self.span(
            "flow.integrate", flow.integrate, on_integrate))
        space = module("jet_algebra")._JetSpace
        space.__init__ = self.span("jet_algebra.table_build",
                                   space.__dict__["__init__"], on_table)

        def counted(name, fn, when=None):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if when is None or self._inside(when):
                    self.count(name)
                return fn(*args, **kwargs)
            return wrapper

        jet_cls = sl.jet_algebra.TruncatedJet
        jet_cls.__post_init__ = counted("jet_algebra.jets_built",
                                        jet_cls.__dict__["__post_init__"])
        for short, cls, attr in _FIELD_EVALS:
            owner = getattr(module(short), cls)
            owner_fn = owner.__dict__[attr]
            setattr(owner, attr, counted("flow.field_evals", owner_fn,
                                         when="flow.integrate"))
        gen = module("genericity")
        gen.stream_rng = counted("genericity.draw.attempts", gen.stream_rng,
                                 when="genericity.draw")

    # -- results ---------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self._name, dtype=np.int32),
                np.frombuffer(self._item, dtype=np.int32),
                np.frombuffer(self._self, dtype=np.float64))

    def metrics(self, factors, setup_factor: float) -> dict:
        """Every per-layer metric; a layer that did not run reads 0.

        ``factors[i]`` scales the times of item ``i`` to the benchmark's
        reference speed, ``setup_factor`` those made outside the items.
        """
        names, items, self_s = self._arrays()
        n_items = len(factors)
        timed = items >= 0
        scale = np.append(np.asarray(factors, float), setup_factor)
        self_s = self_s * scale[np.where(timed, items, n_items)]

        def self_ms(span):
            nid = self._name_id.get(span)
            if nid is None:
                return 0.0
            return 1e3 * float(self_s[timed & (names == nid)].sum()) / n_items

        def calls(span):
            nid = self._name_id.get(span)
            if nid is None:
                return 0
            return int(np.count_nonzero(timed & (names == nid)))

        def timed_count(counter):
            return self.counts[counter][True] if counter in self.counts else 0.0

        def run_count(counter):
            c = self.counts.get(counter)
            return c[True] + c[False] if c else 0.0

        def table_build_s():
            nid = self._name_id.get("jet_algebra.table_build")
            if nid is None:
                return 0.0
            return float(self_s[names == nid].sum())

        def per(total, n):
            return total / n if n else 0.0

        integrate_calls = timed_count("flow.integrate.calls")
        draws = calls("genericity.draw")
        values = {
            "jet_algebra.jets_built": per(timed_count("jet_algebra.jets_built"),
                                          n_items),
            "jet_algebra.jet_mul.calls": per(calls("jet_algebra.jet_mul"),
                                             n_items),
            "jet_algebra.tables_built": run_count("jet_algebra.tables_built"),
            "jet_algebra.table_coeffs": run_count("jet_algebra.table_coeffs"),
            "jet_algebra.table_build_s": table_build_s(),
            "lie_tower.psi_tower.calls": per(calls("lie_tower.psi_tower"),
                                             n_items),
            "lie_tower.lie_derivative.calls": per(
                calls("lie_tower.lie_derivative"), n_items),
            "flow.integrate.steps": per(timed_count("flow.integrate.steps"),
                                        integrate_calls),
            "flow.field_evals": per(timed_count("flow.field_evals"),
                                    integrate_calls),
            "genericity.draw.accept_ratio": per(
                draws, timed_count("genericity.draw.attempts")),
        }
        out = {}
        for metric, (unit, _better) in PER_LAYER.items():
            if metric in values:
                value = values[metric]
            else:
                value = self_ms(metric.removesuffix(".self_ms"))
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> int:
        """Save every span to ``path`` (numpy ``.npz``); returns the count."""
        names, items, self_s = self._arrays()
        np.savez(path, names=np.array(self._names), name=names, item=items,
                 parent=np.frombuffer(self._parent, dtype=np.int64),
                 start=np.frombuffer(self._start, dtype=np.float64),
                 end=np.frombuffer(self._end, dtype=np.float64),
                 self_time=self_s)
        return len(names)
