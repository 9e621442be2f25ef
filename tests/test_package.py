"""Package-wide structure: no process-global operator state, no
private names crossing modules, no ledger rule restated outside the
ledger.

The solver's operators belong to the run objects that build them
(``FlowSystem``, ``SpeciesSystem``); a ``functools`` cache at module
level would keep operators, and the memory behind them, alive across
runs and grids.  Every module is imported and searched for one.  A
module that needs another's helper imports it under a public name.
The rules a finished run must meet read the ledger's columns, so only
``diagnostics.py`` names the columns those rules check.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import msflow


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
