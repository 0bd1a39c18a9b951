"""Static checks over the pmaflow sources: module boundaries and exports."""

import ast
import dataclasses
import importlib
import importlib.machinery
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import pmaflow
from pmaflow import FlowParams, cli
from pmaflow.cli import RunConfig
from pmaflow.maxprinciple import ContactSetReport, LiebermanReport

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


# Exported names and class members that no other package code reaches, by
# why they stay.
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
    "flow_ma.RhsSpec.tabulated", "flow_ma.eta_smooth_plus",
    "regularize.decreasing_holder_from_averages",
    "estimates.DeGiorgiParams", "estimates.de_giorgi_extinction",
    "estimates.de_giorgi_ladder_check", "estimates.s_star_bound",
}


def _reached_names():
    """({(module stem, name)}, {attribute}): every name a package module
    other than `__init__` imports from another one, or reads off an imported
    package module (`est.entropy`); and every attribute name package code
    reads (`grid.spacing`, `self.raw_F`), except a member's reads of its
    own name inside its own definition."""
    reached, attributes = set(), set()
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
        own = {id(sub) for _, member in _public_members(tree)
               for sub in ast.walk(member)
               if isinstance(sub, ast.Attribute) and sub.attr == member.name}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load) and id(node) not in own:
                attributes.add(node.attr)
            if (isinstance(node.value, ast.Name)
                    and aliases.get(node.value.id, path.stem) != path.stem):
                reached.add((aliases[node.value.id], node.attr))
    return reached, attributes


def _public_members(tree):
    """(class, member) for every public method, property or classmethod
    of a public top-level class of the module `tree`."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for member in cls.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_")):
                    yield cls, member


def _unlisted(unreached, dots):
    """The LIBRARY_API entries of `dots` dots (1 for a module's name, 2 for
    a class member) that `unreached` does not hold: stale listings."""
    return sorted({name for name in LIBRARY_API if name.count(".") == dots}
                  - set(unreached))


def test_every_export_is_reached():
    """Every __all__ name is used by another package module or is listed in
    LIBRARY_API; test-only code lives in the tests (`tests/oracles.py`)."""
    reached, _ = _reached_names()
    unreached = [f"{path.stem}.{name}" for path in MODULES if path.stem != "__init__"
                 for name in _static_all(ast.parse(path.read_text()))
                 if (path.stem, name) not in reached]
    assert sorted(set(unreached) - LIBRARY_API) == []
    assert _unlisted(unreached, 1) == []


def test_every_public_definition_is_referenced():
    """Every public top-level function or class of a package module, in
    `__all__` or not, is read by package code outside its own definition
    (its module, or another module through an import) or is listed in
    LIBRARY_API: a check only the tests make lives in `tests/oracles.py`."""
    reached, _ = _reached_names()
    unreferenced = []
    for path in MODULES:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or (path.stem, node.name) in reached):
                continue
            own = {id(sub) for sub in ast.walk(node)}
            if not any(isinstance(sub, ast.Name) and sub.id == node.name
                       and id(sub) not in own for sub in ast.walk(tree)):
                unreferenced.append(f"{path.stem}.{node.name}")
    assert sorted(set(unreferenced) - LIBRARY_API) == []


def test_every_public_member_is_referenced():
    """Every public method, property or classmethod of a package class is
    read as an attribute by package code outside its own definition, or is
    listed in LIBRARY_API: a member only the tests read lives in the tests.
    The rule goes by name, so a member that shares its name with another
    attribute package code reads passes unseen."""
    _, attributes = _reached_names()
    unreferenced = [f"{path.stem}.{cls.name}.{member.name}" for path in MODULES
                    for cls, member in _public_members(ast.parse(path.read_text()))
                    if member.name not in attributes]
    assert sorted(set(unreferenced) - LIBRARY_API) == []
    assert _unlisted(unreferenced, 2) == []


def _python(code, *args, path=()):
    """Run `code` with `args` in a fresh interpreter that finds `path`, then
    the package, then the inherited PYTHONPATH; the completed process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in path] + [str(SRC.parent)]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def test_cli_import_leaves_out_integrate_and_optimize():
    """The CLI loads no scipy.integrate and, through it, no scipy.optimize;
    no scipy.sparse or scipy.linalg, which no package module imports."""
    code = ("import sys, pmaflow.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.optimize', "
            "'scipy.sparse', 'scipy.linalg'))))")
    out = _python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy_module():
    """Importing the CLI runs no scipy package code: the transforms' compiled
    pocketfft module is loaded from its file, and nothing named scipy or
    scipy.* enters sys.modules."""
    code = ("import sys, pmaflow.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = _python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


_SCIPY_FFT_AFTER_SEAM = """
import sys
import numpy as np
from pmaflow.grid import TorusGrid
assert "scipy.fft" not in sys.modules
import scipy.fft
for n_complex, N in ((1, 64), (2, 12)):
    grid = TorusGrid(n_complex, N)
    for real in (np.float64, np.float32):
        values = np.random.default_rng(N).standard_normal(grid.shape).astype(real)
        spectrum = grid.rfftn(values)
        want = scipy.fft.rfftn(values)
        assert spectrum.dtype == want.dtype and spectrum.tobytes() == want.tobytes()
        back = grid.irfftn(spectrum)
        want = scipy.fft.irfftn(spectrum, s=grid.shape, axes=grid.axes)
        assert back.dtype == want.dtype and back.tobytes() == want.tobytes()
print("ok")
"""


def test_scipy_fft_imported_after_the_seam_agrees_bit_for_bit():
    """A process that imports the grid first and scipy.fft later gets a
    working scipy.fft, whose rfftn and irfftn agree with the seam bit for
    bit (the in-process seam test may see scipy imported first)."""
    out = _python(_SCIPY_FFT_AFTER_SEAM)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


_COMMANDS_IMPORT = """
import json, pathlib, sys
import pmaflow.cli as cli
tmp = pathlib.Path(sys.argv[1])
(tmp / "cfg.json").write_text(json.dumps({
    "grid": {"n_complex": 1, "points_per_axis": 16},
    "flow": {"equation": "ma", "T": 0.1, "dt": 0.02},
    "rhs": {"kind": "smooth_product", "spatial_amplitude": 0.4,
            "profile": "decay", "p0": 2.0}}))
commands = [
    ["estimate", "--config", str(tmp / "cfg.json"), "--out", str(tmp / "est")],
    ["regularize", "--traj", str(tmp / "est" / "trajectory.bin"),
     "--epsilon", "0.125", "--out", str(tmp / "reg")],
    ["sweep", "--config", str(tmp / "cfg.json"), "--axis", "flow.dt",
     "--values", "0.02,0.01", "--workers", "1", "--out", str(tmp / "sweep")],
    ["maxprinciple", "--dim", "2", "--out", str(tmp / "mp")]]
new = {}
for argv in commands:
    before = set(sys.modules)
    code = cli.main(argv)
    new[argv[0]] = [code, sorted(set(sys.modules) - before)]
print(json.dumps(new))
"""


def test_commands_import_nothing_start_up_did_not(tmp_path):
    """After `import pmaflow.cli`, an n=1 estimate, regularize, sweep and
    maxprinciple import no numpy module (numpy.fft, or numpy.ma through
    np.unique) and not the sweep's thread pool: start-up pays for what
    the package uses, where the benchmark's setup_s shows it."""
    out = _python(_COMMANDS_IMPORT, str(tmp_path))
    assert out.returncode == 0, out.stderr
    new = json.loads(out.stdout.splitlines()[-1])
    assert set(new) == {"estimate", "regularize", "sweep", "maxprinciple"}
    for command, (code, modules) in new.items():
        assert code == 0, command
        late = [m for m in modules
                if m.split(".")[0] in ("numpy", "concurrent", "queue", "heapq")]
        assert late == [], (command, late)


def test_missing_pocketfft_extension_names_the_file(tmp_path):
    """A scipy install without the pocketfft extension fails the grid's
    import with an ImportError that names the file looked for, without
    running scipy's `__init__` on the way."""
    fake = tmp_path / "scipy"
    (fake / "fft" / "_pocketfft").mkdir(parents=True)
    (fake / "__init__.py").write_text("raise RuntimeError('scipy/__init__ ran')\n")
    looked = os.path.join(str(fake), "fft", "_pocketfft",
                          "pypocketfft" + importlib.machinery.EXTENSION_SUFFIXES[0])
    out = _python("import pmaflow.grid", path=[tmp_path])
    assert out.returncode != 0
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError") and looked in last, out.stderr


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


@pytest.mark.parametrize("report", [ContactSetReport, LiebermanReport],
                         ids=lambda cls: cls.__name__)
def test_max_principle_reports_hold_scalars_only(report):
    """Every field of a max-principle report is a scalar: no full-size
    space-time array that no command reads grows back into them."""
    types = {f.name: f.type for f in dataclasses.fields(report)}
    assert types and set(types.values()) <= {"int", "float"}, types


def test_flow_error_suffix_is_written_once():
    """The "(at flow time t=...)" suffix is formatted in one place,
    `stepping.FlowError`, the base of every flow error."""
    hits = [f"{path.stem}:{i}" for path in MODULES
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if "at flow time" in line]
    assert len(hits) == 1, hits


def test_transforms_go_through_the_grid_seam():
    """Only `grid` names scipy.fft or pocketfft: every package FFT goes
    through `TorusGrid.rfftn` and `TorusGrid.irfftn`.  No module uses
    numpy.fft, which a command would otherwise import on first use."""
    pattern = re.compile(r"scipy\.fft|pocketfft|from scipy import .*\bfft\b")
    hits = {path.stem for path in MODULES if pattern.search(path.read_text())}
    assert hits == {"grid"}
    numpy_fft = re.compile(r"\bnp\.fft\b|numpy\.fft|from numpy import .*\bfft\b")
    assert [path.stem for path in MODULES if numpy_fft.search(path.read_text())] == []


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
    passes, and no package function takes a `kernel`: there is one
    mollifier, (1 - r^2)^3, and no test-only knob of the measurement layer
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


@pytest.mark.parametrize("n_complex", [1, 2])
def test_pointwise_layer_returns_contiguous_float64_fields(n_complex):
    """The eigenvalue slots and the symbol's value and gradient are one
    C-contiguous float64 field each, with no trailing slot axis, so the
    linearization's weighted sums read them without striding."""
    from pmaflow import HessianSymbol, TorusGrid, hessian_parts, random_admissible_field
    from pmaflow.flow_hessian import f_eval_grad_arrays
    from pmaflow.grid import identity_plus_eigenvalues

    grid = TorusGrid(n_complex, 8)
    phi = random_admissible_field(grid, np.random.default_rng(1), margin=0.3)
    slots = identity_plus_eigenvalues(hessian_parts(phi.values, grid))
    lam0 = np.full(grid.shape, 1.5)
    symbols = [HessianSymbol.det(n_complex), HessianSymbol.full_sigma_k(n_complex, 1),
               HessianSymbol.sigma_quotient(n_complex, n_complex, n_complex - 1)]
    for sym in symbols:
        val, grad = f_eval_grad_arrays(sym, lam0, slots)
        fields = list(slots) + [val] + list(grad)
        assert len(slots) == n_complex and len(grad) == n_complex + 1
        for f in fields:
            assert isinstance(f, np.ndarray) and f.dtype == np.float64
            assert f.shape == grid.shape and f.flags["C_CONTIGUOUS"]
