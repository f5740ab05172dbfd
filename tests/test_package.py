import importlib
import pkgutil

import fockbench


def test_every_exported_name_resolves():
    modules = [fockbench] + [importlib.import_module(f"fockbench.{m.name}") for m in pkgutil.iter_modules(fockbench.__path__)]
    exported = [(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    assert len({mod for mod, _ in exported}) >= 7
    assert [f"{mod.__name__}.{name}" for mod, name in exported if not hasattr(mod, name)] == []
