"""Tests for SARIF 2.1.0 export (``repro.analysis.sarif``)."""

import json

from repro.analysis.findings import Finding
from repro.analysis.linter import lint_index
from repro.analysis.source import SourceIndex
from repro.analysis.sarif import SARIF_VERSION, findings_to_sarif


def _sarif(findings):
    return json.loads(findings_to_sarif(findings))


def _lint_findings():
    index = SourceIndex.from_source(
        "def prog(comm):\n"
        "    if comm.rank == 0:\n"
        "        comm.allreduce(1.0)\n",
        "prog.py",
    )
    return lint_index(index)


class TestDocumentShape:
    def test_version_and_schema(self):
        doc = _sarif([])
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        assert len(doc["runs"]) == 1

    def test_empty_findings_valid_clean_run(self):
        doc = _sarif([])
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"
        assert run["tool"]["driver"]["rules"] == []
        assert run["results"] == []

    def test_result_carries_rule_location_and_level(self):
        doc = _sarif(_lint_findings())
        run = doc["runs"][0]
        (result,) = run["results"]
        assert result["ruleId"] == "SPMD001"
        assert result["level"] == "error"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "prog.py"
        assert loc["region"]["startLine"] == 3

    def test_rules_array_lists_referenced_rules_only(self):
        doc = _sarif(_lint_findings())
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == ["SPMD001"]
        assert rules[0]["shortDescription"]["text"]
        assert rules[0]["fullDescription"]["text"]
        assert rules[0]["defaultConfiguration"]["level"] == "error"
        # ruleIndex points back into the (referenced-only) rules array.
        assert doc["runs"][0]["results"][0]["ruleIndex"] == 0


class TestLevelAndRegionMapping:
    def _finding(self, rule, severity, line):
        return Finding(
            rule=rule,
            severity=severity,
            message="m",
            file="f.py",
            line=line,
            source="lint",
            context={},
        )

    def test_severity_levels_map_to_sarif(self):
        doc = _sarif(
            [
                self._finding("SPMD001", "error", 1),
                self._finding("SPMD003", "warning", 2),
                self._finding("SPMD004", "info", 3),
            ]
        )
        levels = [r["level"] for r in doc["runs"][0]["results"]]
        assert levels == ["error", "warning", "note"]

    def test_line_zero_omits_region(self):
        # Plan findings have no source position; SARIF regions must
        # start at line >= 1, so the region is omitted entirely.
        doc = _sarif([self._finding("PLAN401", "error", 0)])
        loc = doc["runs"][0]["results"][0]["locations"][0]
        assert "region" not in loc["physicalLocation"]

    def test_context_exported_as_properties(self):
        f = Finding(
            rule="SPMD001",
            severity="error",
            message="m",
            file="f.py",
            line=3,
            source="lint",
            context={"receiver": "comm"},
        )
        doc = _sarif([f])
        props = doc["runs"][0]["results"][0]["properties"]
        assert props["context"] == {"receiver": "comm"}

    def test_results_sorted_by_location(self):
        doc = _sarif(
            [
                self._finding("SPMD002", "error", 9),
                self._finding("SPMD001", "error", 2),
            ]
        )
        lines = [
            r["locations"][0]["physicalLocation"]["region"]["startLine"]
            for r in doc["runs"][0]["results"]
        ]
        assert lines == [2, 9]
