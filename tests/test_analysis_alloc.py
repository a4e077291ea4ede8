"""ALLOC6xx static pass: rules, fixtures, scoping, and the gate.

The seeded fixtures (``tests/fixtures/alloc_loop_allocation.py``,
``alloc_avoidable_copy.py``, ``alloc_missed_inplace.py``) are
asserted by exact rule ID and line number — the regression contract
for the pass's precision.  The shipped-tree tests pin that ``repro
check alloc`` runs clean on ``src/repro`` and that every deliberate
``# repro: ignore[ALLOC60x]`` suppression in the tree is accounted
for (the exactly-N contract: a new suppression must be added here,
with its reason, or the pass finds it stale).
"""

import ast
import os
import textwrap

import pytest

from repro.analysis.alloc import (
    alloc_check_paths,
    alloc_check_source,
    alloc_scan,
    default_alloc_paths,
    static_alloc_sites,
)
from repro.analysis.rules import ALLOC_RULES, RULES

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src",
    "repro",
)


def check(source: str) -> list:
    return alloc_check_source(textwrap.dedent(source), "<test>")


class TestRuleRegistry:
    def test_alloc_rules_registered(self):
        assert [r.id for r in ALLOC_RULES] == [
            "ALLOC601",
            "ALLOC602",
            "ALLOC603",
            "ALLOC604",
        ]
        for rule in ALLOC_RULES:
            assert RULES[rule.id] is rule
            assert rule.severity == "warning"

    def test_dyn207_registered(self):
        assert RULES["DYN207"].name == "allocation-hotspot"


class TestSeededFixtures:
    def test_loop_allocation_fixture_exact(self):
        path = os.path.join(FIXTURES, "alloc_loop_allocation.py")
        findings = alloc_check_paths([path])
        assert [(f.rule, f.line) for f in findings] == [
            ("ALLOC601", 16),
            ("ALLOC604", 25),
        ]
        assert findings[1].context["escapes_via"] == "buf"

    def test_avoidable_copy_fixture_exact(self):
        path = os.path.join(FIXTURES, "alloc_avoidable_copy.py")
        findings = alloc_check_paths([path])
        assert [(f.rule, f.line) for f in findings] == [
            ("ALLOC602", 16),
            ("ALLOC602", 17),
            ("ALLOC602", 24),
        ]

    def test_missed_inplace_fixture_exact(self):
        path = os.path.join(FIXTURES, "alloc_missed_inplace.py")
        findings = alloc_check_paths([path])
        assert [(f.rule, f.line) for f in findings] == [("ALLOC603", 17)]


class TestLoopAllocation:
    def test_constructor_in_loop_fires(self):
        findings = check(
            """
            import numpy as np

            def f(n):
                for i in range(n):
                    buf = np.zeros(8)
                    buf += i
            """
        )
        assert [f.rule for f in findings] == ["ALLOC601"]

    def test_constructor_outside_loop_clean(self):
        assert not check(
            """
            import numpy as np

            def f(n):
                buf = np.zeros(8)
                for i in range(n):
                    buf += i
            """
        )

    def test_nested_def_in_loop_not_per_iteration(self):
        # A closure body executes when called, not per enclosing-loop
        # iteration — the consensus make_solver pattern.
        assert not check(
            """
            import numpy as np

            def f(n):
                solvers = []
                for i in range(n):
                    def solver(p):
                        return np.zeros(p)
                    solvers.append(solver)
                return solvers
            """
        )

    def test_escaping_buffer_is_alloc604_not_601(self):
        findings = check(
            """
            import numpy as np

            def f(n):
                out = []
                for i in range(n):
                    buf = np.empty(4)
                    out.append(buf)
                return out
            """
        )
        assert [f.rule for f in findings] == ["ALLOC604"]

    def test_while_loop_also_scanned(self):
        findings = check(
            """
            import numpy as np

            def f(n):
                i = 0
                while i < n:
                    w = np.ones(3)
                    i += int(w.sum())
            """
        )
        assert [f.rule for f in findings] == ["ALLOC601"]

    def test_byte_estimate_at_paper_scale(self):
        (finding,) = check(
            """
            import numpy as np

            def f(p, iters):
                for _ in range(iters):
                    q = np.zeros(p)
                    q += 1.0
            """
        )
        # p = 1000 at DEFAULT_BINDINGS, float64.
        assert finding.context["bytes_per_iter"] == 8000
        assert "per iteration at paper scale" in finding.message


class TestAvoidableCopy:
    def test_double_copy_of_fresh_array(self):
        findings = check(
            """
            import numpy as np

            def f(p):
                return np.zeros(p).copy()
            """
        )
        assert [f.rule for f in findings] == ["ALLOC602"]

    def test_copy_of_asarray_is_load_bearing(self):
        # asarray may alias its input: the copy is the defensive one.
        assert not check(
            """
            import numpy as np

            def f(x):
                return np.asarray(x, dtype=float).copy()
            """
        )

    def test_recontiguation_after_binding(self):
        findings = check(
            """
            import numpy as np

            def f(raw):
                base = np.ascontiguousarray(raw)
                return np.ascontiguousarray(base)
            """
        )
        assert [f.rule for f in findings] == ["ALLOC602"]

    def test_self_rebinding_contiguation_clean(self):
        # X = ascontiguousarray(X) rebinds the very name it reads —
        # the admm/cd constructor pattern; flow order matters.
        assert not check(
            """
            import numpy as np

            def f(X):
                X = np.ascontiguousarray(X, dtype=float)
                return X @ X.T
            """
        )

    def test_loop_invariant_fancy_index(self):
        findings = check(
            """
            import numpy as np

            def f(data, eval_idx, n):
                total = 0.0
                for j in range(n):
                    total += float(data[eval_idx].sum())
                return total
            """
        )
        assert [f.rule for f in findings] == ["ALLOC602"]

    def test_loop_variant_index_clean(self):
        assert not check(
            """
            import numpy as np

            def f(data, splits):
                total = 0.0
                for idx in splits:
                    total += float(data[idx].sum())
                return total
            """
        )

    def test_integer_index_clean(self):
        # j is a plain loop index — data[j] is a cheap view, not a
        # fancy-index materialization.
        assert not check(
            """
            import numpy as np

            def f(data, n):
                total = 0.0
                for j in range(n):
                    total += float(data[j].sum())
                return total
            """
        )


class TestMissedInplace:
    def test_known_array_chain_fires(self):
        findings = check(
            """
            import numpy as np

            def f(p, delta, n):
                u = np.zeros(p)
                for _ in range(n):
                    u = u + delta
                return u
            """
        )
        assert [f.rule for f in findings] == ["ALLOC603"]

    def test_ifexp_branch_binding_recognized(self):
        # The admm warm-start pattern: both IfExp arms bind an array.
        findings = check(
            """
            import numpy as np

            def f(p, beta0, delta, n):
                z = np.zeros(p) if beta0 is None else np.asarray(beta0).copy()
                for _ in range(n):
                    z = z + delta
                return z
            """
        )
        assert [f.rule for f in findings] == ["ALLOC603"]

    def test_unknown_name_clean(self):
        # x might be a scalar — x = x + 1 on a float is not a missed
        # in-place array op.
        assert not check(
            """
            def f(x, n):
                for _ in range(n):
                    x = x + 1
                return x
            """
        )

    def test_augmented_form_clean(self):
        assert not check(
            """
            import numpy as np

            def f(p, delta, n):
                u = np.zeros(p)
                for _ in range(n):
                    u += delta
                return u
            """
        )

    def test_rhs_not_rooted_at_target_clean(self):
        # u = a + b - u reuses the name but the in-place rewrite is
        # not order-preserving there; stay silent.
        assert not check(
            """
            import numpy as np

            def f(p, a, b, n):
                u = np.zeros(p)
                for _ in range(n):
                    u = a + b - u
                return u
            """
        )


class TestHotRegionScoping:
    def test_unreachable_function_not_scanned(self, tmp_path):
        # Directory mode: only plan-reachable functions (and the named
        # hot modules) are hot; cold helpers may allocate freely.
        (tmp_path / "plan.py").write_text(
            textwrap.dedent(
                """
                import numpy as np

                class MyPlan(UoIPlan):
                    def run_chain(self, chain):
                        for t in chain:
                            tmp = np.zeros(4)
                            tmp += t
                """
            )
        )
        (tmp_path / "util.py").write_text(
            textwrap.dedent(
                """
                import numpy as np

                def cold(n):
                    for i in range(n):
                        w = np.zeros(8)
                        w += i
                """
            )
        )
        findings = alloc_check_paths([str(tmp_path)])
        assert [f.rule for f in findings] == ["ALLOC601"]
        assert findings[0].file.endswith("plan.py")

    def test_reachable_callee_is_hot(self, tmp_path):
        (tmp_path / "plan.py").write_text(
            textwrap.dedent(
                """
                import numpy as np
                from helper import inner_solve

                class MyPlan(UoIPlan):
                    def run_chain(self, chain):
                        return inner_solve(chain)
                """
            )
        )
        (tmp_path / "helper.py").write_text(
            textwrap.dedent(
                """
                import numpy as np

                def inner_solve(chain):
                    for t in chain:
                        tmp = np.zeros(4)
                        tmp += t
                """
            )
        )
        findings = alloc_check_paths([str(tmp_path)])
        assert [f.rule for f in findings] == ["ALLOC601"]
        assert findings[0].file.endswith("helper.py")

    def test_named_hot_module_scanned_without_reachability(self, tmp_path):
        sub = tmp_path / "linalg"
        sub.mkdir()
        (sub / "admm.py").write_text(
            textwrap.dedent(
                """
                import numpy as np

                def kernel(n):
                    for i in range(n):
                        v = np.zeros(3)
                        v += i
                """
            )
        )
        findings = alloc_check_paths([str(tmp_path)])
        assert [f.rule for f in findings] == ["ALLOC601"]

    def test_explicit_file_is_forced_hot(self, tmp_path):
        target = tmp_path / "whatever.py"
        target.write_text(
            textwrap.dedent(
                """
                import numpy as np

                def loop(n):
                    for i in range(n):
                        v = np.empty(2)
                        v[:] = i
                """
            )
        )
        findings = alloc_check_paths([str(target)])
        assert [f.rule for f in findings] == ["ALLOC601"]


class TestSuppressions:
    def test_targeted_suppression(self):
        assert not check(
            """
            import numpy as np

            def f(n):
                for i in range(n):
                    buf = np.zeros(8)  # repro: ignore[ALLOC601]
                    buf += i
            """
        )

    def test_stale_directive_reported(self):
        findings = check(
            """
            import numpy as np

            def f(p):
                return np.zeros(p)  # repro: ignore[ALLOC601]
            """
        )
        assert [f.rule for f in findings] == ["SUP001"]

    def test_other_family_rule_not_silenced(self):
        findings = check(
            """
            import numpy as np

            def f(n):
                for i in range(n):
                    buf = np.zeros(8)  # repro: ignore[SHAPE102]
                    buf += i
            """
        )
        assert [f.rule for f in findings] == ["ALLOC601"]


class TestShippedTree:
    def test_src_repro_is_clean(self):
        assert alloc_check_paths() == []

    def test_default_paths_cover_the_package(self):
        (root,) = default_alloc_paths()
        assert root.endswith(os.sep + "repro") or root.endswith("/repro")

    def test_deliberate_suppressions_exactly(self):
        """Every in-tree ALLOC suppression, pinned with its reason.

        Adding a suppression without updating this list is a test
        failure by design: each one is a worked ROADMAP backlog entry,
        not a way to mute the pass.  Pinned by enclosing function, not
        line number, so unrelated edits above a site do not move it.
        """
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        directives = []
        for dirpath, dirnames, filenames in os.walk(SRC):
            # Same scope as the pass itself: repro.analysis is never
            # scanned (its docstrings mention the directives).
            dirnames[:] = [
                d for d in dirnames if d not in ("__pycache__", "analysis")
            ]
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, "r", encoding="utf-8") as fh:
                    source = fh.read()
                if "repro: ignore[ALLOC" not in source:
                    continue
                tree = ast.parse(source)
                rel = os.path.relpath(path, SRC).replace(os.sep, "/")
                for lineno, line in enumerate(source.splitlines(), start=1):
                    if "repro: ignore[ALLOC" not in line:
                        continue
                    enclosing = sorted(
                        (
                            n
                            for n in ast.walk(tree)
                            if isinstance(n, defs)
                            and n.lineno <= lineno <= n.end_lineno
                        ),
                        key=lambda n: n.lineno,
                    )
                    directives.append(
                        (rel, ".".join(n.name for n in enclosing))
                    )
        assert sorted(directives) == [
            # Per-task beta buffers escape into task payloads; pooling
            # them needs a copy-on-emit protocol first (backlog).  One
            # site since the two distributed plans share run_chain.
            ("core/parallel.py", "_DistUoIPlan.run_chain"),
            # The unpooled ADMM reference path keeps the allocating
            # u-update verbatim as the bitwise baseline bench_alloc.py
            # measures against.
            ("linalg/admm.py", "LassoADMM._solve_unpooled"),
        ]

    def test_static_sites_include_suppressions(self):
        sites = static_alloc_sites()
        files = {os.path.basename(path) for path, _ in sites}
        assert {"parallel.py", "admm.py"} <= files

    def test_scan_exposes_coverage(self):
        scan = alloc_scan()
        assert scan.findings == []
        assert scan.sites  # the deliberate suppressions
        assert any(p.endswith("admm.py") for p in scan.files)
        # The pass never scans itself.
        assert not any("analysis" in p.split(os.sep) for p in scan.files)


@pytest.mark.parametrize(
    "path",
    [
        "alloc_loop_allocation.py",
        "alloc_avoidable_copy.py",
        "alloc_missed_inplace.py",
    ],
)
def test_fixtures_are_importable(path):
    """The seeded fixtures must stay valid Python (ast.parse targets)."""
    with open(os.path.join(FIXTURES, path), "r", encoding="utf-8") as fh:
        compile(fh.read(), path, "exec")
