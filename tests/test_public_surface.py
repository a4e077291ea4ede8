"""Guard: no public def in ``src/repro`` that only tests reach.

The census counts a top-level public def (function or class, name not
starting with ``_``) as *used* when some module under ``src/``,
``benchmarks/`` or ``examples/`` names it: a ``Name``, an
``Attribute`` or a ``from ... import``.  A string constant equal to
the name counts too, so name-dispatch tables are callers — except in
the def's own file and in an ``__init__.py``, whose ``__all__`` lists
and lazy-import maps only re-export.  An ``__init__.py`` import is a
re-export as well, not a use.  Docs are not callers.

This is a tier-1 test rather than a ``repro check`` pass because the
static gate also runs on a copy of ``src/repro`` alone, where every
benchmark-only name would look unused.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples")

#: Test-only defs kept on purpose: resets of process-global state that
#: tests need, each with its reason.
ALLOWED = {
    "src/repro/perf/pool.py:clear_cache": (
        "empties the module-level buffer cache so pool tests start from "
        "a known cache"
    ),
    "src/repro/engine/elastic.py:reset_shared_executor": (
        "tears down the process-wide elastic fleet so a test can rebuild "
        "it under its own REPRO_ELASTIC_WORKERS and leave none behind"
    ),
}


def _py_files(top: Path) -> list[Path]:
    return sorted(p for p in top.rglob("*.py") if "__pycache__" not in p.parts)


def census(root: Path) -> dict[str, int]:
    """``{"<path>:<name>": line count}`` of public top-level defs under
    ``root/src`` that no module under ``root/{src,benchmarks,examples}``
    names."""
    root = Path(root)
    defs: dict[tuple[Path, str], int] = {}
    uses: list[tuple[Path, set[str], set[str]]] = []
    for top in CALLER_DIRS:
        if not (root / top).is_dir():
            continue
        for path in _py_files(root / top):
            tree = ast.parse(path.read_text(), filename=str(path))
            if top == "src":
                for node in tree.body:
                    if isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ) and not node.name.startswith("_"):
                        defs[path, node.name] = node.end_lineno - node.lineno + 1
            reexports = path.name == "__init__.py"
            names: set[str] = set()
            strings: set[str] = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    names.update(alias.name for alias in node.names)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and not reexports
                ):
                    strings.add(node.value)
            uses.append((path, names, strings))
    return {
        f"{path.relative_to(root).as_posix()}:{name}": lines
        for (path, name), lines in defs.items()
        if not any(
            name in names or (name in strings and user != path)
            for user, names, strings in uses
        )
    }


def _write(root: Path, rel: str, code: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))


class TestRepoSurface:
    def test_test_only_set_is_the_allow_list(self):
        found = census(ROOT)
        assert set(found) == set(ALLOWED), (
            "public defs only tests reach (delete them with the tests "
            "that only cover them, or give them a real caller): "
            f"{sorted(set(found) - set(ALLOWED))}; stale allow-list "
            f"entries: {sorted(set(ALLOWED) - set(found))}"
        )

    def test_allow_list_entries_have_reasons(self):
        assert all(reason.strip() for reason in ALLOWED.values())


class TestCensus:
    def test_def_named_only_by_a_test_is_reported(self, tmp_path):
        _write(
            tmp_path,
            "src/pkg/__init__.py",
            """\
            from pkg.mod import helper, used

            __all__ = ["helper", "used"]
            """,
        )
        _write(
            tmp_path,
            "src/pkg/mod.py",
            """\
            __all__ = ["helper", "used"]


            def helper():
                return 1


            def used():
                return 2
            """,
        )
        _write(tmp_path, "src/pkg/app.py", "from pkg.mod import used\n")
        _write(
            tmp_path,
            "tests/test_mod.py",
            "from pkg.mod import helper\n\n\ndef test_helper():\n"
            "    assert helper() == 1\n",
        )
        assert census(tmp_path) == {"src/pkg/mod.py:helper": 2}

    def test_string_dispatch_table_is_a_caller(self, tmp_path):
        _write(
            tmp_path,
            "src/pkg/kernels.py",
            """\
            def fast():
                return 1


            def slow():
                return 2
            """,
        )
        _write(
            tmp_path,
            "src/pkg/registry.py",
            """\
            import importlib

            TABLE = {"fast": "pkg.kernels"}


            def resolve(name):
                return getattr(importlib.import_module(TABLE[name]), name)
            """,
        )
        # ``fast`` is reached only through the table's string; ``slow``
        # and ``resolve`` have no caller at all.
        assert set(census(tmp_path)) == {
            "src/pkg/kernels.py:slow",
            "src/pkg/registry.py:resolve",
        }

    def test_example_import_is_a_caller(self, tmp_path):
        _write(
            tmp_path,
            "src/pkg/api.py",
            """\
            def demo_only():
                return 1
            """,
        )
        _write(
            tmp_path,
            "examples/demo.py",
            "from pkg.api import demo_only\n\nprint(demo_only())\n",
        )
        assert census(tmp_path) == {}

    def test_own_file_strings_do_not_count(self, tmp_path):
        _write(
            tmp_path,
            "src/pkg/mod.py",
            """\
            __all__ = ["lonely"]
            NAME = "lonely"


            def lonely():
                return 1
            """,
        )
        assert census(tmp_path) == {"src/pkg/mod.py:lonely": 2}

