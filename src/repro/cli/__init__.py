"""Command-line interface: the ``repro-sim`` tool.

``main`` and ``build_parser`` resolve on first use, not at import:
``python -m repro.cli.main`` imports this package before runpy executes
the submodule, and an eager ``from .main import ...`` here left
``repro.cli.main`` in ``sys.modules`` — a RuntimeWarning on every CLI
invocation, and the module body run twice.
"""

import importlib
import sys
import types
from typing import Any

from .worldcfg import config_from_dict, config_to_dict, load_config, save_config

__all__ = [
    "build_parser",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "main",
    "save_config",
]


def _entry_point(name: str) -> Any:
    return getattr(importlib.import_module(__name__ + ".main"), name)


class _Package(types.ModuleType):
    """Properties rather than a module ``__getattr__``: the import
    system assigns the ``main`` submodule to the attribute of the same
    name whenever anything imports it, which would shadow a lazily
    resolved function from then on.  The setter drops that assignment,
    so ``from repro.cli import main`` is the function in any import
    order."""

    @property
    def main(self) -> Any:
        return _entry_point("main")

    @main.setter
    def main(self, submodule: types.ModuleType) -> None:
        pass

    @property
    def build_parser(self) -> Any:
        return _entry_point("build_parser")


sys.modules[__name__].__class__ = _Package
