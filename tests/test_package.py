"""Package-wide structure: no process-global operator state, no
private names crossing modules, no ledger rule restated outside the
ledger, and no scipy on the 64-cell path.

The solver's operators belong to the run objects that build them
(``FlowSystem``, ``SpeciesSystem``); a ``functools`` cache at module
level would keep operators, and the memory behind them, alive across
runs and grids.  Every module is imported and searched for one.  A
module that needs another's helper imports it under a public name.
The rules a finished run must meet read the ledger's columns, so only
``diagnostics.py`` names the columns those rules check.  Each config
key is declared once, on its ``SimConfig`` field, and only
``config.py`` spells one.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import msflow
from msflow.config import SimConfig

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _cached_attributes(module):
    """Names of module-level attributes, and of attributes of classes
    defined in the module, that carry a functools cache."""
    found = []
    for name, obj in vars(module).items():
        if hasattr(obj, "cache_info"):
            found.append(name)
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            found.extend(f"{name}.{attr}" for attr, member in vars(obj).items()
                         if hasattr(member, "cache_info"))
    return found


def test_no_module_holds_a_functools_cache():
    names = [info.name for info in pkgutil.iter_modules(msflow.__path__)]
    assert "grid" in names and "flow" in names and "species" in names
    cached = {}
    for name in names:
        module = importlib.import_module(f"msflow.{name}")
        found = _cached_attributes(module)
        if found:
            cached[name] = found
    assert not cached, f"process-global caches: {cached}"


def test_no_module_imports_a_private_name():
    sources = sorted(Path(msflow.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    private = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or node.module.startswith("msflow")):
                private.extend(f"{path.name}: {node.module}.{alias.name}"
                               for alias in node.names
                               if alias.name.startswith("_"))
    assert not private, f"private names imported across modules: {private}"


def test_only_the_ledger_reads_the_checked_columns():
    sources = sorted(Path(msflow.__file__).parent.glob("*.py"))
    assert "diagnostics.py" in {path.name for path in sources}
    checked = {"energy_residual", "entropy_slack", "mass_"}
    found = sorted({f"{path.name}: {node.value}"
                    for path in sources if path.name != "diagnostics.py"
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Constant)
                    and node.value in checked})
    assert not found, f"ledger columns named outside the ledger: {found}"


def _readme_config_keys():
    """The keys of README's Configuration table, group prefix added."""
    section = README.read_text().split("## Configuration", 1)[1]
    keys = []
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = line.split("|")
        if len(cells) != 4 or not cells[1].strip().startswith(("`", "(")):
            continue
        text, depth = "", 0     # drop the parenthesized notes
        for ch in cells[2]:
            depth += (ch == "(") - (ch == ")")
            text += ch if depth == 0 and ch != ")" else ""
        group = cells[1].strip().strip("`")
        prefix = "" if group == "(top)" else group + "."
        keys.extend(prefix + name for name in re.findall(r"`([^`]+)`", text))
    return keys


def test_each_config_key_is_declared_once_and_spelled_only_by_config():
    keys = [f.metadata.get("key") for f in dataclasses.fields(SimConfig)]
    assert None not in keys and len(set(keys)) == len(keys), keys
    readme = _readme_config_keys()
    assert sorted(readme) == sorted(keys), set(readme) ^ set(keys)
    sources = sorted(Path(msflow.__file__).parent.glob("*.py"))
    assert "config.py" in {path.name for path in sources}
    spelled = re.compile(r"(?<![\w.])(%s)(?!\w)" % "|".join(
        re.escape(key) for key in keys))
    found = sorted({f"{path.name}: {match}"
                    for path in sources if path.name != "config.py"
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    for match in spelled.findall(node.value)})
    assert not found, f"config keys spelled outside config.py: {found}"


def test_a_64_cell_run_loads_no_scipy():
    # Below TRANSFORM_CROSSOVER cells per axis the transforms are dense
    # products and the species CG is the package's own, so neither
    # `msflow check` nor a run of the shipped 64 x 64 config imports
    # scipy.  scipy.fft comes in only for a longer axis, and
    # scipy.sparse.linalg only for a frozen-advection pass.
    code = (
        "import sys\n"
        "from msflow.cli import main\n"
        "from msflow.config import load_config\n"
        "from msflow.driver import run_simulation\n"
        "assert main(['check', 'configs/standard-2d.cfg']) == 0\n"
        "cfg = load_config('configs/standard-2d.cfg',\n"
        "                  ['scheme.steps=3', 'scheme.t_final=3e-3'])\n"
        "assert run_simulation(cfg).ledger.check_global_bounds().ok\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
