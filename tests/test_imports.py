"""Import boundaries: a run loads only the layers it uses.

Every package shell resolves its public names on first access, so each
check below runs in a fresh ``python -B`` interpreter and lists the
``repro`` modules one import statement leaves loaded.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(__file__).resolve().parents[1] / "src")

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-B", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout


def loaded_after(statement: str) -> set:
    """The ``repro`` modules loaded after ``statement`` in a fresh interpreter."""
    out = run_fresh(
        f"import sys\n{statement}\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'repro'))\n"
    )
    return set(out.split())


def test_package_shells_import_nothing():
    assert loaded_after("import repro") == {"repro"}
    assert loaded_after("\n".join(f"import {p}" for p in PACKAGES)) == set(PACKAGES)


def test_sharded_control_plane_loads_no_emulator():
    loaded = loaded_after("import repro.core.pathshard")
    for prefix in ("repro.netsim", "repro.flowsim", "repro.workloads", "repro.core.host_agent"):
        assert not any(m == prefix or m.startswith(prefix + ".") for m in loaded), prefix
    assert {"repro.core.pathservice", "repro.consensus.store"} <= loaded


def test_fabric_loads_consensus_only_with_standbys():
    build = (
        "from repro.core.fabric import DumbNetFabric\n"
        "from repro.topology import paper_testbed\n"
        "DumbNetFabric.from_topology(paper_testbed(), bootstrap='blueprint'{})\n"
    )
    native = loaded_after(build.format(""))
    assert not any(m.startswith("repro.consensus") for m in native)
    replicated = loaded_after(build.format(", standbys=('h1_0',)"))
    assert {"repro.core.replication", "repro.consensus.store"} <= replicated


def test_scenario_surface_loads_its_engines_not_the_emulator():
    loaded = loaded_after("import repro.workloads.scenario")
    assert not any(m.startswith("repro.netsim") for m in loaded)
    # run_scenario's engine loads with its module, not inside a run.
    assert "repro.hybrid.engine" in loaded


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        module.no_such_name


def test_reexport_sharing_its_submodule_name_stays_the_function():
    # ``cube`` is provided by ``repro.topology.cube``; loading the
    # submodule first must not leave the package attribute bound to it.
    out = run_fresh(
        "import inspect, sys\n"
        "import repro.topology.cube\n"
        "from repro.topology import cube\n"
        "print(inspect.isfunction(cube), cube is sys.modules['repro.topology.cube'].cube)\n"
    )
    assert out.split() == ["True", "True"]
    from repro.topology import cube

    assert callable(cube) and cube.__module__ == "repro.topology.cube"
