"""DumbNet reproduction (EuroSys 2018).

A stateless source-routed data-center fabric: dumb tag-forwarding
switches, a host-based control plane (discovery, failure handling,
path-graph caching), extensions (flowlet TE, L3 routing, network
virtualization), and the emulation + modeling substrates needed to
regenerate the paper's evaluation.

Quickstart::

    from repro import DumbNetFabric, topology

    fabric = DumbNetFabric(topology.figure1(), controller_host="C3")
    fabric.bootstrap()
    fabric.agents["H4"].send_app("H5", b"hello")
    fabric.run_until_idle()

Every package ``__init__`` names its public attributes in one table --
submodule -> the names it provides -- and binds what
:func:`_lazy_namespace` returns (PEP 562).  A name's submodule is
imported the first time the name is looked up, so importing a package,
or one module inside it, costs only the package shells on the way: the
control plane never compiles the emulator, and the fluid engine never
compiles the control plane.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__version__ = "1.0.0"


def _lazy_namespace(
    module_name: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the module ``module_name``.

    ``table`` maps a module path, relative to the module's package
    (``".graph"``, ``"..core.telemetry"``), to the names it provides; an
    empty tuple provides the submodule itself under its own name.
    ``__all__`` lists every name in table order.
    """
    module = sys.modules[module_name]
    owner: Dict[str, str] = {}
    for path, names in table.items():
        for name in names or (path.lstrip("."),):
            owner[name] = path

    def __getattr__(name: str) -> Any:
        path = owner.get(name)
        if path is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        target = importlib.import_module(path, module.__package__)
        value = getattr(target, name) if table[path] else target
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*module.__dict__, *owner})

    # A name shared with the submodule that provides it (``topology.cube``):
    # the import system binds a newly loaded submodule on its package,
    # which here must bind the provided name instead.
    shadowed = {name for name, path in owner.items() if table[path] and path == f".{name}"}
    if shadowed:

        class _Package(ModuleType):
            def __setattr__(self, name: str, value: Any) -> None:
                if name in shadowed and isinstance(value, ModuleType):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        module.__class__ = _Package
    return __getattr__, __dir__, list(owner)


__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".topology": (),
    ".core": (
        "DumbNetFabric",
        "DumbSwitch",
        "HostAgent",
        "Controller",
        "ControllerConfig",
        "PathGraph",
        "build_path_graph",
        "PathTable",
        "TopoCache",
        "PathVerifier",
        "discover",
        "OracleProbeTransport",
    ),
})
__all__.append("__version__")
