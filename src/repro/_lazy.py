"""Lazy package exports (PEP 562).

Each package ``__init__`` declares its re-exports once, as a map from
the module that defines them (relative, as in a ``from`` import) to the
names it takes from there, and :func:`lazy_exports` turns that map into
the package's ``__getattr__``, ``__dir__`` and ``__all__``. Importing a
package then runs none of its modules: a name is imported from its
module on first access and cached in the package from then on, so an
entry point loads only the code it runs.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any, Callable, Mapping


def import_module(name: str, package: str) -> ModuleType:
    """``importlib.import_module(name, package)`` for a one-component
    relative ``name`` (``".codec"``, ``"..store"``), through the builtin
    ``__import__``, the C import path ``python -X importtime`` logs."""
    bare = name.lstrip(".")
    return __import__(bare, {"__package__": package},
                      level=len(name) - len(bare))


def lazy_exports(package: str, exports: Mapping[str, tuple[str, ...]], *,
                 submodules_in_all: bool = True,
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]],
                            list[str]]:
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps ``".codec"`` (or ``"..store"``) to the names the
    package re-exports from that module; ``"battery_life as
    run_battery_life"`` renames one. Each direct submodule named there
    resolves as a package attribute too, and is listed in ``__all__``
    unless ``submodules_in_all`` is false.

    A name spelled like the submodule that defines it (``repro.ble``'s
    ``crc24``) is bound at once: importing that submodule later would
    otherwise bind the module over the name, and ``__getattr__`` is
    never asked for an attribute the package already has. Such a
    submodule so loads with its package, on every import of anything
    in it, and must keep its top-level imports light: it imports what
    only some of its functions use (``repro.dot11.show``'s frame
    classes, ``repro.service.replay``'s beacon encoder) inside them.
    """
    module = sys.modules[package]
    origin: dict[str, tuple[str, str]] = {}
    for source, names in exports.items():
        for entry in names:
            attribute, _, alias = entry.partition(" as ")
            origin[alias or attribute] = (source, attribute)
    submodules = {source[1:] for source in exports
                  if source.count(".") == 1 and source.startswith(".")}

    def __getattr__(name: str) -> Any:
        if name in origin:
            source, attribute = origin[name]
            value = getattr(import_module(source, package), attribute)
        elif name in submodules:
            value = import_module("." + name, package)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(module)) | set(origin) | submodules)

    for source in exports:
        if origin.get(source[1:]) == (source, source[1:]):
            __getattr__(source[1:])
    public = set(origin)
    if submodules_in_all:
        public.update(submodules)
    return __getattr__, __dir__, sorted(public)
