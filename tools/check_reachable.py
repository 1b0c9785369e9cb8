"""Reject ``src/`` code that only the test suite reaches.

A function, method or class under ``src/repro/`` is *reached* when its
name is referenced from a root, or from a def that is already reached;
the scan repeats until nothing changes.  The roots are the programs a
user or CI runs: ``src/repro/cli.py``, ``examples/``, ``benchmarks/``
(``e2e/`` included) and ``tools/``.  ``examples/`` counts because CI
runs every example in a fresh interpreter and fails on a non-zero exit.
The top-level statements of every ``src/`` module run on import, so
they count as a root too.

Matching is by name only (``self.run()`` reaches every reached class's
``run``), which errs towards calling code reached.  A method is reached
when its class is reached and its name is referenced; a dunder method
when its class is reached.  A reference is a ``Name``, an ``Attribute``,
an import alias, an expression inside an f-string, an identifier string
passed to ``getattr``, or a ``"module:Qual.name"`` entry string.  Any
other string -- ``__all__`` lists, docstrings, the lazy-namespace tables
in ``src/**/__init__.py`` -- is not a reference.  A reached def's body
counts; an allowlisted def's body does not.

Usage (CI runs this):

    python tools/check_reachable.py [repo_root]

Exit status 0 when every unreached def is allowlisted and every
allowlist entry is still needed.  Otherwise exit 1, with one
``path:line: name reached only from tests/`` line per unreached def and
one line per stale allowlist entry (its def is now reached, or gone).
"""

from __future__ import annotations

import ast
import os
import re
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

#: ``"path:Qual.name"`` (path relative to ``src/``) -> why it may stay.
#: Two kinds qualify.  A PAPER.md "System inventory" feature that no root
#: runs, with the row and the test that checks it.  A fault hook that a
#: pinned test drives -- the Raft safety tests' consensus hooks and the
#: fluid engine's mid-run event hook -- with that test.
_HOTPLUG = "inventory row 'Host hot-plug'; tests/test_hotplug.py"
_CODEC = ("inventory row 'Tag list / packet header format' (the 5.1 byte "
          "codec); tests/test_packet.py, tests/test_properties.py")
_RAFT = "consensus fault hook; tests/test_consensus.py"
_RAFT_MACHINES = ("consensus fault hook; the state machines in "
                  "tests/test_consensus_properties.py")
ALLOWLIST: Dict[str, str] = {
    "repro/core/fabric.py:DumbNetFabric.hotplug_host": _HOTPLUG,
    "repro/netsim/network.py:Network.hotplug_host": _HOTPLUG,
    "repro/core/packet.py:encode_tags": _CODEC,
    "repro/core/packet.py:decode_tags": _CODEC,
    "repro/core/packet.py:PathTags.from_wire": _CODEC,
    "repro/core/packet.py:PathTags.to_wire": _CODEC,
    "repro/core/packet.py:PathTags.wire_bytes": _CODEC,
    "repro/core/ecn.py:EcnRerouter.record_delivery": (
        "inventory row 'ECN marking switch + congestion-aware rerouting' "
        "(no root runs the packet-level rerouting loop); tests/test_ecn.py"
    ),
    "repro/consensus/log.py:ReplicaNode.recover": _RAFT_MACHINES,
    "repro/consensus/log.py:ReplicaNode.committed": _RAFT,
    "repro/consensus/log.py:Cluster.heal": _RAFT_MACHINES,
    "repro/consensus/log.py:Cluster.isolate": _RAFT,
    "repro/consensus/log.py:Cluster.step_down": _RAFT_MACHINES,
    "repro/consensus/log.py:Cluster.committed_everywhere": _RAFT,
    "repro/consensus/store.py:ReplicatedTopologyStore.step_down": _RAFT_MACHINES,
    "repro/consensus/store.py:ReplicatedTopologyStore.recover": _RAFT_MACHINES,
    "repro/core/pathgraph.py:detour_vertices": (
        "inventory row 'Path graph: ... local detours (Algorithm 1)': the "
        "detour set by name, which build_path_graph takes as switch bits; "
        "tests/test_pathgraph.py, tests/test_graph_differential.py"
    ),
    "repro/flowsim/simulator.py:FluidSimulator.at": (
        "fluid fault hook; the outage digests in tests/test_flow_golden.py "
        "and the fault properties in tests/test_flowsim.py, tests/test_hybrid.py"
    ),
}

#: Root files and directories, relative to the repo root.
ROOT_DIRS = ("examples", "benchmarks", "tools")
ROOT_SRC_FILES = ("repro/cli.py",)

ENTRY_STRING = re.compile(r"^[A-Za-z_][\w.]*:([A-Za-z_][\w.]*)$")
IDENTIFIER = re.compile(r"^[A-Za-z_]\w*$")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class Def:
    """A function, method or class under ``src/``."""

    path: str
    line: int
    qualname: str
    owner: Optional["Def"]
    #: Names its own code references (a class: its bases, decorators and
    #: body statements; its methods are defs of their own).
    refs: Set[str]
    reached: bool = False

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}"


def references(nodes: Iterable[ast.AST], skip: Tuple[type, ...] = ()) -> Set[str]:
    """Every name the nodes reference; subtrees of a ``skip`` type are
    not entered."""
    found: Set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and IDENTIFIER.match(node.args[1].value)
        ):
            found.add(node.args[1].value)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = ENTRY_STRING.match(node.value)
            if match:
                found.update(match.group(1).split("."))
        stack.extend(child for child in ast.iter_child_nodes(node) if not isinstance(child, skip))
    return found


def collect_defs(path: str, body: List[ast.stmt], prefix: str = "",
                 owner: Optional[Def] = None) -> List[Def]:
    defs: List[Def] = []
    for node in body:
        if not isinstance(node, DEFS):
            continue
        qualname = prefix + node.name
        if isinstance(node, ast.ClassDef):
            entry = Def(path, node.lineno, qualname, owner, references([node], skip=DEFS))
            defs.append(entry)
            defs.extend(collect_defs(path, node.body, qualname + ".", entry))
        else:
            defs.append(Def(path, node.lineno, qualname, owner, references([node])))
    return defs


def python_files(root: str) -> List[str]:
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        out.extend(os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".py"))
    return out


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def scan(repo: str, allowlist: Mapping[str, str]) -> Tuple[List[Def], List[str]]:
    """``(unreached defs not allowlisted, stale allowlist messages)``."""
    src = os.path.join(repo, "src")
    referenced: Set[str] = set()
    defs: List[Def] = []
    for filename in python_files(src):
        rel = os.path.relpath(filename, src).replace(os.sep, "/")
        tree = parse(filename)
        if rel in ROOT_SRC_FILES:
            referenced |= references([tree])
            continue
        # Top-level statements run on import.
        referenced |= references([node for node in tree.body if not isinstance(node, DEFS)])
        defs.extend(collect_defs(rel, tree.body))
    for directory in ROOT_DIRS:
        for filename in python_files(os.path.join(repo, directory)):
            referenced |= references([parse(filename)])

    changed = True
    while changed:
        changed = False
        for entry in defs:
            if entry.reached or (entry.owner is not None and not entry.owner.reached):
                continue
            dunder = entry.owner is not None and entry.name.startswith("__") and entry.name.endswith("__")
            if dunder or entry.name in referenced:
                entry.reached = changed = True
                if entry.key not in allowlist:
                    referenced |= entry.refs

    by_key = {entry.key: entry for entry in defs}
    stale = []
    for key in sorted(allowlist):
        if key not in by_key:
            stale.append(f"{key}: allowlisted but no longer exists")
        elif by_key[key].reached:
            stale.append(f"{key}: allowlisted but reached; drop the entry")
    unreached = [entry for entry in defs if not entry.reached and entry.key not in allowlist]
    return unreached, stale


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    repo = argv[0] if argv else "."
    unreached, stale = scan(repo, ALLOWLIST)
    for entry in unreached:
        print(f"src/{entry.path}:{entry.line}: {entry.qualname} reached only from tests/")
    for line in stale:
        print(f"check_reachable: stale allowlist entry {line}")
    if unreached or stale:
        print(f"check_reachable: {len(unreached)} unreached def(s), "
              f"{len(stale)} stale allowlist entr(ies); delete the code, "
              "or allowlist it with a reason")
        return 1
    print(f"check_reachable: clean ({len(ALLOWLIST)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
