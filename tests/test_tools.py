"""The repo's two source checks, on the repo and on synthetic trees.

``tools/check_no_print.py`` finds ``print(...)`` calls the parser sees;
``tools/check_reachable.py`` finds ``src/`` defs that no program root
reaches.  CI runs both on the repo; these tests pin what each one
counts.
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


check_no_print = _load("check_no_print")
check_reachable = _load("check_reachable")


def _write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


# ----------------------------------------------------------------------
# check_no_print


def test_no_print_finds_calls_after_strings_and_inside_fstrings(tmp_path, capsys):
    _write(tmp_path, "mod.py", '''\
        x = "a"; print(x)
        y = f"{print(x)}"
        print("real")


        def f():
            """A docstring that mentions print() is not a call."""
            # print(x) in a comment is not one either
            return "print(x)"
        ''')
    assert check_no_print.main([str(tmp_path)]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if "mod.py" in line]
    assert [line.split(":")[1] for line in lines] == ["1", "2", "3"]


@pytest.mark.parametrize("root", ["src/repro", "benchmarks"])
def test_no_print_repo_is_clean(root):
    assert check_no_print.main([str(REPO / root)]) == 0


# ----------------------------------------------------------------------
# check_reachable


def test_reachable_repo_is_clean():
    assert check_reachable.main([str(REPO)]) == 0


@pytest.fixture
def tree(tmp_path):
    """A package whose defs are reached, or not, in every way the
    check distinguishes."""
    _write(tmp_path, "src/repro/__init__.py", '''\
        """Docstring naming docstring_only."""
        from ._lazy import namespace

        __getattr__ = namespace({".mod": ("lazy_only",)})
        __all__ = ["all_only"]
        ''')
    _write(tmp_path, "src/repro/_lazy.py", '''\
        def namespace(table):
            return table.get
        ''')
    _write(tmp_path, "src/repro/mod.py", '''\
        def used_by_root():
            return 1


        def only_tests():
            return helper_of_flagged()


        def helper_of_flagged():
            return 2


        def via_fstring():
            return 3


        def via_getattr():
            return 4


        class Entry:
            def method(self):
                return 5

            def unnamed(self):
                return 6


        def docstring_only():
            return 7


        def all_only():
            return 8


        def lazy_only():
            return 9


        def allowlisted():
            return 10
        ''')
    _write(tmp_path, "examples/demo.py", '''\
        """Calls docstring_only() -- in prose only."""
        from repro import mod
        from repro.mod import used_by_root

        TARGET = "repro.mod:Entry.method"
        print(f"{mod.via_fstring()}", getattr(mod, "via_getattr")(), used_by_root())
        ''')
    _write(tmp_path, "tests/test_mod.py", '''\
        from repro.mod import only_tests


        def test_it():
            assert only_tests() == 2
        ''')
    return tmp_path


def _flagged(root, allowlist):
    unreached, stale = check_reachable.scan(str(root), allowlist)
    return sorted(entry.qualname for entry in unreached), stale


def test_reachable_flags_exactly_the_unreached_defs(tree):
    flagged, stale = _flagged(tree, {"repro/mod.py:allowlisted": "reason"})
    assert flagged == [
        "Entry.unnamed",  # its class is reached, its name is not
        "all_only",  # __all__ does not count
        "docstring_only",  # nor does a docstring
        "helper_of_flagged",  # reached only from a flagged def
        "lazy_only",  # nor a lazy-namespace table
        "only_tests",  # tests/ is not a root
    ]
    assert stale == []


def test_reachable_fails_on_stale_allowlist_entries(tree):
    flagged, stale = _flagged(tree, {
        "repro/mod.py:allowlisted": "reason",
        "repro/mod.py:used_by_root": "now reached",
        "repro/mod.py:gone": "deleted",
    })
    assert "used_by_root" not in flagged
    assert stale == [
        "repro/mod.py:gone: allowlisted but no longer exists",
        "repro/mod.py:used_by_root: allowlisted but reached; drop the entry",
    ]


def test_reachable_main_reports_path_and_line(tree, capsys, monkeypatch):
    monkeypatch.setattr(check_reachable, "ALLOWLIST", {"repro/mod.py:allowlisted": "reason"})
    assert check_reachable.main([str(tree)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/mod.py:5: only_tests reached only from tests/" in out
    assert "via_fstring" not in out and "via_getattr" not in out
