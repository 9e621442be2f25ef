"""Package-wide structure: no process-global operator state.

The solver's operators belong to the run objects that build them
(``FlowSystem``, ``SpeciesSystem``); a ``functools`` cache at module
level would keep operators, and the memory behind them, alive across
runs and grids.  Every module is imported and searched for one.
"""

import importlib
import inspect
import pkgutil

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
