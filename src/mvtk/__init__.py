"""Chain and Komori block algebras: structure, factorizations, checks.

The package models many-valued algebras in two regimes: finite carrier
tables checked exhaustively, and symbolic products of chain and Komori
blocks whose infinitesimal coordinates range over all integers.  On top
of the element-level operations it builds ideals and radicals, quotients
and ideal subalgebras, the perfect/semisimple factorization with its
universal properties, the classification of surjections as trivial or
central coverings, commutators of ideals with witnessing squares, term
identities, and the unit-interval construction from lattice-ordered
groups.

Each module's ``__all__`` declares its public names, and the package
republishes their union.  ``import mvtk`` loads no module: a public name
loads the modules it needs on first use (PEP 562), so a command that
imports what it runs compiles nothing else.
"""

import importlib

__version__ = "0.1.0"

# the modules whose names the package republishes, in the order of
# ``__all__``
_MODULES = ("core", "ideals", "morphisms", "catalog", "pretorsion",
            "galois", "galois2", "terms", "mundici")
_bound = set()


def _bind(module_name: str):
    """Import a module and, the first time, bind its whole ``__all__``
    here, so each name is read once and later lookups are plain globals."""
    module = importlib.import_module(f".{module_name}", __name__)
    if module_name not in _bound:
        for name in module.__all__:
            globals().setdefault(name, getattr(module, name))
        _bound.add(module_name)
    return module


def __getattr__(name: str):
    if name == "__all__":
        names = [n for m in _MODULES for n in _bind(m).__all__]
        globals()["__all__"] = names
        return names
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in _MODULES:
        return _bind(name)
    try:
        # a submodule outside the republished ones, such as cli or jsonio
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    for module_name in _MODULES:
        _bind(module_name)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
