"""Every public export resolves.

A name left in a module's ``__all__`` after its definition is gone
makes ``from module import *`` raise ``AttributeError``; nothing else
would notice until a user tried it.
"""

import importlib
import pkgutil

import repro


def test_every_all_entry_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
    exported = [
        (module, name)
        for module in modules
        for name in getattr(module, "__all__", ())
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module, name in exported
        if not hasattr(module, name)
    ]
    assert exported and missing == []
