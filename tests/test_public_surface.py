"""Guard: no public def in ``src/repro`` that only tests reach.

The census counts a top-level public def (function or class, name not
starting with ``_``), and a public method of a top-level public class,
as *used* when some module under ``src/``,
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

#: Test-only defs kept on purpose, each with its reason: resets of
#: process-global state that tests need, and methods that complete a
#: documented or protocol-shaped API whose library callers use its
#: other half.
ALLOWED = {
    "src/repro/perf/pool.py:clear_cache": (
        "empties the module-level buffer cache so pool tests start from "
        "a known cache"
    ),
    "src/repro/engine/elastic.py:reset_shared_executor": (
        "tears down the process-wide elastic fleet so a test can rebuild "
        "it under its own REPRO_ELASTIC_WORKERS and leave none behind"
    ),
    "src/repro/analysis/source.py:SourceIndex.from_source": (
        "the one-module index every static pass's unit tests feed their "
        "inline samples through; the CLI always indexes files"
    ),
    "src/repro/core/uoi_lasso.py:UoILasso.selected_mask_": (
        "fitted-estimator attribute of the sklearn-style API, beside coef_"
    ),
    "src/repro/core/uoi_var.py:UoIVar.predict_next": (
        "one-step forecast of a fitted VAR, the model's predict method"
    ),
    "src/repro/engine/elastic.py:ElasticExecutor.utilization": (
        "fleet statistics documented in docs/elastic.md"
    ),
    "src/repro/linalg/admm.py:ADMMResult.objective": (
        "the objective value a result reports; the check that a solve "
        "converged to the optimum"
    ),
    "src/repro/linalg/admm.py:LassoADMM.objective": (
        "the LASSO objective the solver minimizes, beside solve"
    ),
    "src/repro/linalg/admm.py:LassoADMM.solve_path": (
        "a warm-started λ path on one solver, the pooled-workspace "
        "benchmark's unit"
    ),
    "src/repro/perf/pool.py:Workspace.swap": (
        "the pool's double-buffer primitive, beside get"
    ),
    "src/repro/pfs/hdf5.py:Hyperslab.nelems": (
        "size of a selection, beside slices() of the HDF5-style API"
    ),
    "src/repro/resilience/faults.py:FaultPlan.transient_get_failure": (
        "a fault kind documented in docs/resilience.md, beside crash"
    ),
    "src/repro/service/scheduler.py:Scheduler.queue_depth": (
        "queue introspection for operators, beside the scheduler's stats"
    ),
    "src/repro/service/store.py:ReplicaNode.last_seen": (
        "anti-entropy watermarks documented in docs/service.md"
    ),
    "src/repro/service/store.py:ReplicatedResultsStore.delete": (
        "the tombstone write of the store's put/get/delete API"
    ),
    "src/repro/service/store.py:ReplicatedResultsStore.write_stream": (
        "the replay stream documented in docs/service.md"
    ),
    "src/repro/simmpi/comm.py:SimComm.irecv": (
        "nonblocking point-to-point of the simulated MPI API "
        "(docs/simulator.md)"
    ),
    "src/repro/simmpi/comm.py:SimComm.isend": (
        "nonblocking point-to-point of the simulated MPI API "
        "(docs/simulator.md)"
    ),
    "src/repro/simmpi/machine.py:MachineModel.nodes_for": (
        "rank-to-node count of the machine model, beside its cost terms"
    ),
    "src/repro/stream/window.py:SlidingLagWindow.check_against_rebuild": (
        "the window's self-check against a cold rebuild"
    ),
    "src/repro/telemetry/hook.py:TelemetryHook.to_breakdown_row": (
        "the per-run breakdown row documented in docs/telemetry.md"
    ),
}


def _py_files(top: Path) -> list[Path]:
    return sorted(p for p in top.rglob("*.py") if "__pycache__" not in p.parts)


def _public(node: ast.AST) -> bool:
    return isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ) and not node.name.startswith("_")


def census(root: Path) -> dict[str, int]:
    """``{"<path>:<name>": line count}`` of public top-level defs (and
    ``<path>:<Class>.<method>`` public methods) under ``root/src`` that
    no module under ``root/{src,benchmarks,examples}`` names."""
    root = Path(root)
    defs: dict[tuple[Path, str, str], int] = {}  # (path, key, name)
    uses: list[tuple[Path, set[str], set[str]]] = []
    for top in CALLER_DIRS:
        if not (root / top).is_dir():
            continue
        for path in _py_files(root / top):
            tree = ast.parse(path.read_text(), filename=str(path))
            if top == "src":
                for node in filter(_public, tree.body):
                    defs[path, node.name, node.name] = node.end_lineno - node.lineno + 1
                    if isinstance(node, ast.ClassDef):
                        for sub in filter(_public, node.body):
                            key = f"{node.name}.{sub.name}"
                            defs[path, key, sub.name] = sub.end_lineno - sub.lineno + 1
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
        f"{path.relative_to(root).as_posix()}:{key}": lines
        for (path, key, name), lines in defs.items()
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

    def test_method_named_only_by_a_test_is_reported(self, tmp_path):
        _write(
            tmp_path,
            "src/pkg/mod.py",
            """\
            class Store:
                def get(self):
                    return self.peek()

                def peek(self):
                    return 1

                def drop(self):
                    return 2

                def _private(self):
                    return 3
            """,
        )
        _write(tmp_path, "src/pkg/app.py", "from pkg.mod import Store\n\nStore().get()\n")
        _write(tmp_path, "tests/test_mod.py", "def test_drop(store):\n    store.drop()\n")
        assert census(tmp_path) == {"src/pkg/mod.py:Store.drop": 2}

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

