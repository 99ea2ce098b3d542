"""The public API: what each module exports exists, and the package exports
only public names."""

import ast
import importlib
import inspect
from pathlib import Path

import saarilab
from saarilab import errors, jet_algebra

MODULES = ("cli", "fields", "flow", "genericity", "jet_algebra", "lie_tower",
           "mech")

# One-jet helpers that live in tests/oracles.py: no library code calls them.
REMOVED = ("jet_partial", "jet_truncate", "jet_pad", "jet_pow",
           "partials_from_jet", "jet_add", "jet_scale")

# Functions the benchmark's tracer wraps by module attribute.
TRACED = (("jet_algebra", "jet_mul"), ("jet_algebra", "shift_base"),
          ("jet_algebra", "embed_jet"), ("lie_tower", "lie_derivative"))


def _public(module) -> set[str]:
    if module is errors:  # no __all__: its exception classes
        return {name for name, obj in vars(errors).items()
                if inspect.isclass(obj) and issubclass(obj, Exception)
                and obj.__module__ == errors.__name__}
    return set(module.__all__)


def test_the_public_api_is_consistent():
    modules = {name: importlib.import_module(f"saarilab.{name}")
               for name in MODULES + ("errors",)}
    for name, module in modules.items():
        missing = [n for n in _public(module) if not hasattr(module, n)]
        assert not missing, (name, missing)

    tree = ast.parse(Path(saarilab.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert name in _public(modules[module]), (module, name)
        assert getattr(saarilab, name) is getattr(modules[module], name)

    for name in REMOVED:
        assert not hasattr(saarilab, name), name
        assert not hasattr(jet_algebra, name), name
        assert name not in jet_algebra.__all__, name
    for module, name in TRACED:
        assert name in _public(modules[module]), (module, name)


def test_bincount_runs_only_in_the_product_kernel():
    # Every gather-multiply-bincount of the package goes through
    # jet_algebra._product, so a change to how products sum (a different
    # arithmetic, a bound beside each value) is one edit.
    calls = []
    for path in sorted(Path(saarilab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "bincount"):
                inside = [f.name for f in functions
                          if f.lineno <= node.lineno <= f.end_lineno]
                calls.append((path.name, inside[-1] if inside else None))
    assert calls and set(calls) == {("jet_algebra.py", "_product")}, calls


def test_no_module_imports_threading():
    # The kernels keep no per-thread state: each product gathers into fresh
    # arrays, and the caches on a table are built whole before they are
    # stored, so threads share them without a lock.
    imported = []
    for path in sorted(Path(saarilab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.append((path.name, node.module))
    assert imported
    assert [(name, module) for name, module in imported
            if module.split(".")[0] == "threading"] == []


def test_one_fixed_step_loop_and_one_collision_predicate():
    # The fixed-step methods supply only their step: one function iterates
    # the step times of flow._fixed_steps, and one predicate compares the
    # pair distances with MIN_SEPARATION, so the collision exit and the
    # cut inside a step are one edit for every fixed-step method.  The
    # steps themselves are pure one-step maps: they test no separation, and
    # the loop alone turns a SingularityError inside a step into a halt.
    loops, predicates, catches, step_names = [], [], [], set()
    for path in sorted(Path(saarilab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]

        def where(node):
            inside = [f.name for f in functions
                      if f.lineno <= node.lineno <= f.end_lineno]
            return path.name, inside[-1] if inside else None

        def names(node):
            return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_fixed_steps"):
                loops.append(where(node))
            elif isinstance(node, ast.Compare) and {
                    "pair_distances", "MIN_SEPARATION"} <= names(node):
                predicates.append(where(node))
            elif (path.name == "flow.py"
                    and isinstance(node, ast.ExceptHandler) and node.type
                    and "SingularityError" in names(node.type)):
                catches.append(where(node))
        if path.name == "flow.py":
            steps = [f for f in functions
                     if f.name in ("_verlet_step", "_rk4_step")]
            assert len(steps) == 2, [f.name for f in steps]
            for f in steps:
                step_names |= names(f)
    assert loops == [("flow.py", "_integrate_fixed")], loops
    assert predicates == [("flow.py", "_too_close")], predicates
    assert catches == [("flow.py", "_integrate_fixed")], catches
    assert not step_names & {"_too_close", "MIN_SEPARATION"}, step_names
