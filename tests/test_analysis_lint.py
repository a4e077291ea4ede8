"""Tests for the static SPMD linter (``repro.analysis.linter``)."""

import json
import textwrap

from repro.analysis.findings import (
    ERROR,
    WARNING,
    findings_to_json,
    format_findings,
)
from repro.analysis.linter import default_lint_paths, lint_index
from repro.analysis.rules import RULES, get_rule
from repro.analysis.source import SourceIndex


def lint(code: str, filename: str = "prog.py"):
    return lint_index(SourceIndex.from_source(textwrap.dedent(code), filename))


class TestRankConditionalCollective:
    def test_collective_in_rank_branch_flagged(self):
        findings = lint(
            """\
            def prog(comm):
                if comm.rank == 0:
                    comm.allreduce(1.0)
            """
        )
        assert [f.rule for f in findings] == ["SPMD001"]
        assert findings[0].line == 3
        assert findings[0].severity == ERROR
        assert findings[0].location == "prog.py:3"

    def test_collective_in_else_branch_flagged(self):
        findings = lint(
            """\
            def prog(comm):
                if comm.rank == 0:
                    pass
                else:
                    comm.barrier()
            """
        )
        assert [f.rule for f in findings] == ["SPMD001"]
        assert findings[0].line == 5

    def test_unconditional_collective_clean(self):
        findings = lint(
            """\
            def prog(comm):
                comm.allreduce(1.0)
                comm.barrier()
            """
        )
        assert findings == []

    def test_root_guarded_payload_prep_clean(self):
        # The canonical safe pattern: the *argument* is rank-dependent,
        # the collective itself is not.
        findings = lint(
            """\
            def prog(comm):
                data = load() if comm.rank == 0 else None
                comm.bcast(data, root=0)
            """
        )
        assert findings == []

    def test_non_comm_receiver_not_flagged(self):
        findings = lint(
            """\
            def prog(comm, queue):
                if comm.rank == 0:
                    queue.gather(1)
            """
        )
        assert findings == []

    def test_window_fence_in_rank_branch_flagged(self):
        findings = lint(
            """\
            def prog(comm, win):
                if comm.rank == 0:
                    win.fence()
            """
        )
        assert [f.rule for f in findings] == ["SPMD001"]


class TestGlobalRng:
    def test_np_random_function_flagged(self):
        findings = lint(
            """\
            import numpy as np

            def draw():
                return np.random.rand(4)
            """
        )
        assert [f.rule for f in findings] == ["SPMD002"]
        assert findings[0].line == 4

    def test_np_random_seed_flagged(self):
        findings = lint(
            """\
            import numpy as np
            np.random.seed(0)
            """
        )
        assert [f.rule for f in findings] == ["SPMD002"]

    def test_default_rng_clean(self):
        findings = lint(
            """\
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                return rng.normal(size=4)
            """
        )
        assert findings == []

    def test_generator_classes_clean(self):
        findings = lint(
            """\
            import numpy as np

            gen = np.random.Generator(np.random.PCG64(3))
            ss = np.random.SeedSequence(7)
            """
        )
        assert findings == []


class TestSpanContextManager:
    def test_bare_span_statement_flagged(self):
        findings = lint(
            """\
            def work(rec):
                rec.span("solve")
            """
        )
        assert [f.rule for f in findings] == ["SPMD003"]
        assert findings[0].severity == WARNING

    def test_with_span_clean(self):
        findings = lint(
            """\
            def work(rec):
                with rec.span("solve"):
                    pass
            """
        )
        assert findings == []

    def test_assigned_span_clean(self):
        # Stored handles are assumed to be entered/exited elsewhere.
        findings = lint(
            """\
            def work(rec):
                s = rec.span("solve")
                return s
            """
        )
        assert findings == []


class TestRmaBufferMutation:
    def test_subscript_write_flagged(self):
        findings = lint(
            """\
            def prog(win):
                block = win.get(1, slice(0, 4))
                block[0] = 99.0
            """
        )
        assert [f.rule for f in findings] == ["SPMD004"]
        assert findings[0].line == 3

    def test_augassign_flagged(self):
        findings = lint(
            """\
            def prog(win):
                block = win.get(1, slice(0, 4))
                block += 1.0
            """
        )
        assert [f.rule for f in findings] == ["SPMD004"]

    def test_single_finding_per_mutation(self):
        # Regression: mutations must not be double-reported when the
        # function body is also reachable from the module scope walk.
        findings = lint(
            """\
            def prog(win):
                block = win.get(1, slice(0, 4))
                block[0] = 99.0
            """
        )
        assert len(findings) == 1

    def test_rebinding_clears_taint(self):
        findings = lint(
            """\
            def prog(win):
                block = win.get(1, slice(0, 4))
                block = block.copy()
                block[0] = 99.0
            """
        )
        assert findings == []

    def test_read_only_use_clean(self):
        findings = lint(
            """\
            def prog(win):
                block = win.get(1, slice(0, 4))
                return block.sum()
            """
        )
        assert findings == []


class TestSuppressions:
    def test_targeted_suppression(self):
        findings = lint(
            """\
            def prog(comm):
                if comm.rank == 0:
                    comm.barrier()  # repro: ignore[SPMD001]
            """
        )
        assert findings == []

    def test_bare_suppression_silences_all_rules(self):
        findings = lint(
            """\
            import numpy as np
            np.random.seed(0)  # repro: ignore
            """
        )
        assert findings == []

    def test_suppressing_other_rule_does_not_silence(self):
        findings = lint(
            """\
            def prog(comm):
                if comm.rank == 0:
                    comm.barrier()  # repro: ignore[SPMD002]
            """
        )
        # The real finding still fires, and the mismatched directive is
        # itself reported stale (it suppressed nothing).
        assert [f.rule for f in findings] == ["SPMD001", "SUP001"]


class TestSuppressionEdgeCases:
    def test_multi_rule_comma_list(self):
        findings = lint(
            """\
            import numpy as np

            def prog(comm):
                if comm.rank == 0:
                    comm.allreduce(np.random.rand(4))  # repro: ignore[SPMD001,SPMD002]
            """
        )
        assert findings == []

    def test_multi_rule_list_with_spaces(self):
        findings = lint(
            """\
            def prog(comm):
                if comm.rank == 0:
                    comm.barrier()  # repro: ignore[SPMD002, SPMD001]
            """
        )
        # SPMD001 matched; the unused SPMD002 half is reported stale.
        assert [f.rule for f in findings] == ["SUP001"]
        assert findings[0].context["suppressed_rule"] == "SPMD002"

    def test_decorated_def_suppression(self):
        findings = lint(
            """\
            import numpy as np

            def deco(f):
                return f

            @deco
            def draw():
                return np.random.rand(4)  # repro: ignore[SPMD002]
            """
        )
        assert findings == []

    def test_stale_directive_reported_with_location(self):
        findings = lint(
            """\
            def prog(comm):
                comm.barrier()  # repro: ignore[SPMD001]
            """
        )
        # An unconditional barrier is clean: the directive is dead.
        assert [f.rule for f in findings] == ["SUP001"]
        assert findings[0].line == 2
        assert findings[0].severity == WARNING
        assert "SPMD001" in findings[0].message

    def test_stale_multi_rule_reports_each_rule(self):
        findings = lint(
            """\
            def prog(comm):
                if comm.rank == 0:
                    comm.barrier()  # repro: ignore[SPMD002,SPMD003]
            """
        )
        assert [f.rule for f in findings] == ["SPMD001", "SUP001", "SUP001"]
        stale = sorted(f.context["suppressed_rule"] for f in findings[1:])
        assert stale == ["SPMD002", "SPMD003"]

    def test_bare_ignore_never_stale(self):
        findings = lint(
            """\
            def prog(comm):
                comm.barrier()  # repro: ignore
            """
        )
        assert findings == []

    def test_other_family_directive_not_this_pass_to_report(self):
        # A SHAPE-family directive is the SHAPE pass's to account for:
        # the SPMD linter must not call it stale.
        findings = lint(
            """\
            def prog(comm):
                comm.barrier()  # repro: ignore[SHAPE101]
            """
        )
        assert findings == []

    def test_directive_text_in_docstring_not_live(self):
        # Tokenize-based comment detection: directive *text* quoted in
        # a docstring is neither a live suppression nor a stale one.
        findings = lint(
            '''\
            def prog(comm):
                """Suppress with ``# repro: ignore[SPMD001]``."""
                if comm.rank == 0:
                    comm.allreduce(1.0)
            '''
        )
        assert [f.rule for f in findings] == ["SPMD001"]


class TestRulesAndSerialization:
    def test_every_rule_has_metadata(self):
        for rule_id, rule in RULES.items():
            assert rule.id == rule_id
            assert rule.summary
            assert rule.rationale
            assert rule.severity in ("error", "warning", "info")
        assert get_rule("SPMD001").name == "rank-conditional-collective"

    def test_findings_json_roundtrip(self):
        findings = lint(
            """\
            def prog(comm):
                if comm.rank == 0:
                    comm.allreduce(1.0)
            """
        )
        doc = findings_to_json(findings)
        assert findings
        assert json.loads(doc)["findings"] == [f.to_dict() for f in findings]

    def test_format_findings_human_table(self):
        findings = lint(
            """\
            def prog(comm):
                if comm.rank == 0:
                    comm.allreduce(1.0)
            """
        )
        text = format_findings(findings)
        assert "SPMD001" in text
        assert "prog.py:3" in text
        assert "none" in format_findings([])


class TestRepoGate:
    def test_installed_package_lints_clean(self):
        # The acceptance gate: the shipped library must have zero
        # static findings.
        assert lint_index(SourceIndex.from_paths(default_lint_paths())) == []
