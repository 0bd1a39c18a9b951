"""Static checks over the pmaflow sources: module boundaries and exports."""

import ast
import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import pmaflow
from pmaflow import FlowParams, cli
from pmaflow.cli import RunConfig

SRC = pathlib.Path(pmaflow.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _module_name(path):
    return "pmaflow" if path.stem == "__init__" else f"pmaflow.{path.stem}"


def _package_imports(tree):
    """(node, source module) for every `from` import of a pmaflow module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            yield node, "pmaflow" + (f".{node.module}" if node.module else "")
        elif node.level == 0 and (node.module or "").split(".")[0] == "pmaflow":
            yield node, node.module


def _static_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_names_cross_module_boundaries(path):
    """No module imports a _-prefixed name from another pmaflow module, or
    reads one off a pmaflow module it imported (`from . import grid`)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders, aliases = [], set()
    for node, source in _package_imports(tree):
        for alias in node.names:
            if alias.name.startswith("_"):
                offenders.append(f"line {node.lineno}: {alias.name} from {source}")
            if source == "pmaflow":
                aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            offenders.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    assert offenders == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_export_resolves(path):
    """Each __all__ entry names something the module defines, and each name
    the package root imports is a listed export of its source module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module = importlib.import_module(_module_name(path))
    missing = [n for n in _static_all(tree) if not hasattr(module, n)]
    assert missing == []
    if path.stem != "__init__":
        return
    for node, source in _package_imports(tree):
        exported = _static_all(ast.parse(
            (SRC / f"{source.rsplit('.', 1)[1]}.py").read_text()))
        for alias in node.names:
            assert alias.name in exported, f"{alias.name} is not in {source}.__all__"


# Exported names that no other package module reaches, by why they stay.
LIBRARY_API = {
    # documented entry points, and the types of their results and errors
    "cli.RunConfig", "cli.run", "cli.sweep", "cli.main",
    "estimates.LevelStats",
    "flow_hessian.ConeViolation", "flow_hessian.f_eval_grad_arrays",
    "flow_hessian.hessian_residual", "flow_hessian.backward_euler_step",
    "maxprinciple.ContactSetReport", "maxprinciple.LiebermanReport",
    "maxprinciple.HypothesisViolated",
    # what ROADMAP items 4-6 wire in: the auxiliary-equation comparison,
    # the Holder lemma in time, and the De Giorgi ladder with s_*
    "flow_ma.SLevelTooSmall", "flow_ma.build_auxiliary_rhs",
    "flow_ma.eta_smooth_plus",
    "regularize.decreasing_holder_from_averages",
    "estimates.DeGiorgiParams", "estimates.de_giorgi_extinction",
    "estimates.de_giorgi_ladder_check", "estimates.s_star_bound",
}


def _reached_names():
    """(module stem, name) for every name a package module other than
    `__init__` imports from another one, or reads off an imported package
    module (`est.entropy`)."""
    reached = set()
    for path in MODULES:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {}
        for node, source in _package_imports(tree):
            for alias in node.names:
                if source == "pmaflow":
                    aliases[alias.asname or alias.name] = alias.name
                elif source.rsplit(".", 1)[1] != path.stem:
                    reached.add((source.rsplit(".", 1)[1], alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and aliases.get(node.value.id, path.stem) != path.stem):
                reached.add((aliases[node.value.id], node.attr))
    return reached


def test_every_export_is_reached():
    """Every __all__ name is used by another package module or is listed in
    LIBRARY_API; test-only code lives in the tests (`tests/oracles.py`)."""
    reached = _reached_names()
    unreached = [f"{path.stem}.{name}" for path in MODULES if path.stem != "__init__"
                 for name in _static_all(ast.parse(path.read_text()))
                 if (path.stem, name) not in reached]
    assert sorted(set(unreached) - LIBRARY_API) == []
    assert sorted(LIBRARY_API - set(unreached)) == []


def test_cli_import_leaves_out_integrate_and_optimize():
    """The CLI loads numpy and scipy.fft only: no scipy.integrate and,
    through it, no scipy.optimize; no scipy.sparse or scipy.linalg, which
    no package module imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, pmaflow.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.optimize', "
            "'scipy.sparse', 'scipy.linalg'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_flow_params_are_the_config_controls():
    """FlowParams holds exactly the controls that `cli._flow_params` sets,
    each a field of `cli.FlowConfig`: no solver knob that a run config
    cannot reach grows back."""
    tree = ast.parse((SRC / "cli.py").read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_flow_params")
    call = next(node for node in ast.walk(fn) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "FlowParams")
    passed = {kw.arg for kw in call.keywords}
    assert {f.name for f in dataclasses.fields(FlowParams)} == passed
    assert passed <= {f.name for f in dataclasses.fields(cli.FlowConfig)}


def test_flow_error_suffix_is_written_once():
    """The "(at flow time t=...)" suffix is formatted in one place,
    `stepping.FlowError`, the base of every flow error."""
    hits = [f"{path.stem}:{i}" for path in MODULES
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if "at flow time" in line]
    assert len(hits) == 1, hits


@pytest.mark.parametrize("section, key, table", [
    ("rhs", "kind", cli.RHS_KINDS),
    ("flow", "initial_condition", cli.INITIAL_CONDITIONS)])
def test_config_accepts_exactly_its_builder_tables(section, key, table):
    """The table that builds a config's right-hand side or phi_0 is also
    the list of names its validation accepts."""
    for name in table:
        data = {"flow": {"T": 0.1, "dt": 0.05}}
        data.setdefault(section, {})[key] = name
        assert getattr(getattr(RunConfig.from_dict(data), section), key) == name
    data = {section: {key: "bogus"}}
    with pytest.raises(ValueError, match=f"unknown {section}.{key} 'bogus'"):
        RunConfig.from_dict(data)


def test_regularization_params_are_the_battery_controls():
    """RegularizationParams holds exactly the keywords `cli._regularize_battery`
    passes, and no package function takes a `kernel`: the one mollifier is
    `grid.DEFAULT_KERNEL`, and no test-only knob of the measurement layer
    grows back."""
    from pmaflow.regularize import RegularizationParams
    tree = ast.parse((SRC / "cli.py").read_text())
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "_regularize_battery")
    call = next(node for node in ast.walk(fn) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "RegularizationParams")
    assert ({f.name for f in dataclasses.fields(RegularizationParams)}
            == {kw.arg for kw in call.keywords})
    takers = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "kernel" in names:
                    takers.append(f"{path.stem}:{node.lineno}")
    assert takers == []
