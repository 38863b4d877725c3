"""Exact arithmetic for Cantor series over arbitrary integer base sequences.

`import cantorseries` loads no submodule, so a cold CLI call compiles only
the modules its verb uses.  The first lookup of a name the package does not
hold yet, such as a public name, `__all__` or a submodule, imports the four
library modules and binds their public names here (PEP 562); any other name
that starts with an underscore is not found, and loads nothing.  From then on
the package is what `from .foundation import *` and so on would have made:
every name is a plain attribute, and the two hooks below are gone.
"""

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name.startswith("_") and name != "__all__":
        # private and dunder names are never public: the hasattr(package,
        # "_packing") that `from . import _packing` makes loads nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    modules = [import_module(f"{__name__}.{stem}") for stem in ("foundation", "expansion", "rationality", "structure")]
    namespace = globals()
    namespace["__all__"] = [public for module in modules for public in module.__all__]
    namespace.update((public, getattr(module, public)) for module in modules for public in module.__all__)
    namespace.pop("__getattr__", None)
    namespace.pop("__dir__", None)
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    __getattr__("__all__")
    return sorted(globals())
