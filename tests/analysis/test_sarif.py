"""SARIF 2.1.0 output validation for the analyzer.

The container has no network access, so the official OASIS schema is
embedded below as the subset covering every construct the reporters
emit — with the same required-property and type constraints the full
schema imposes on those constructs (``version`` pinned to "2.1.0",
``runs[].tool.driver.name`` required, one-based line/column minima,
``level`` drawn from the spec's enum, and no unknown properties in the
objects we produce).
"""

import json
from pathlib import Path

import jsonschema
import pytest

from repro.analysis.dataflow.engine import analyze_paths
from repro.analysis.rules import RULES
from repro.analysis.sarif import TOOL_NAME, sarif_report as report_sarif

FIXTURES = Path(__file__).parent / "fixtures"

#: Subset of the SARIF 2.1.0 schema covering everything we emit.
SARIF_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string", "format": "uri"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "version": {"type": "string"},
                                    "informationUri": {
                                        "type": "string",
                                        "format": "uri",
                                    },
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                    "properties": {
                                                        "text": {
                                                            "type": "string"
                                                        }
                                                    },
                                                },
                                            },
                                            "additionalProperties": False,
                                        },
                                    },
                                },
                                "additionalProperties": False,
                            }
                        },
                        "additionalProperties": False,
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer",
                                    "minimum": 0,
                                },
                                "level": {
                                    "enum": [
                                        "none",
                                        "note",
                                        "warning",
                                        "error",
                                    ]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"}
                                    },
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {
                                                                "type": "string"
                                                            }
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                            "additionalProperties": False,
                        },
                    },
                    "columnKind": {
                        "enum": ["utf16CodeUnits", "unicodeCodePoints"]
                    },
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


def _validate(document: str) -> dict:
    log = json.loads(document)
    jsonschema.validate(log, SARIF_SCHEMA)
    return log


class TestDataflowSarif:
    @pytest.fixture(scope="class")
    def log(self):
        result = analyze_paths([FIXTURES])
        assert result.findings, "fixture corpus must produce findings"
        return _validate(report_sarif(result.findings))

    def test_validates_against_schema(self, log):
        assert log["version"] == "2.1.0"

    def test_every_rule_declared_in_driver(self, log):
        driver = log["runs"][0]["tool"]["driver"]
        declared = {rule["id"] for rule in driver["rules"]}
        assert declared == set(RULES)

    def test_rule_indices_resolve(self, log):
        run = log["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_locations_are_one_based(self, log):
        for result in log["runs"][0]["results"]:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_empty_findings_still_validate(self):
        _validate(report_sarif([]))


class TestLintSarif:
    """Per-file findings share the log, and the tool name, of the rest."""

    def test_lint_findings_validate(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("import numpy as np\nx = np.random.default_rng()\n")
        findings = analyze_paths([target]).findings
        assert [f.code for f in findings] == ["RPR002"]
        log = _validate(report_sarif(findings))
        assert log["runs"][0]["tool"]["driver"]["name"] == TOOL_NAME

    def test_syntax_error_is_error_level(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("def broken(:\n")
        log = _validate(report_sarif(analyze_paths([target]).findings))
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "RPR900"
        assert result["level"] == "error"
