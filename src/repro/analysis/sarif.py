"""SARIF 2.1.0 output of the analyzer.

``repro check-determinism --format sarif`` prints a single-run SARIF
log that GitHub code scanning and editor SARIF viewers ingest directly.
Every row of the rule table (:data:`repro.analysis.rules.RULES`) is
declared in the log's driver.
"""

from __future__ import annotations

import json
from typing import Dict, Sequence

from .rules import RULES, Finding

TOOL_NAME = "repro-check-determinism"
TOOL_VERSION = "1.0.0"

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Severity per rule family: contract violations that break determinism
#: outright are errors; hygiene findings are warnings.
_LEVELS: Dict[str, str] = {
    "RPR900": "error",  # syntax error
}


def _uri(path: str) -> str:
    return path.replace("\\", "/")


def _sarif_log(findings: Sequence[Finding]) -> Dict:
    """Build a SARIF 2.1.0 log dict from findings.

    Every rule is declared in the driver so ``ruleIndex``
    back-references resolve.
    """
    codes = sorted(RULES)
    rule_index = {code: i for i, code in enumerate(codes)}
    results = [
        {
            "ruleId": finding.code,
            "ruleIndex": rule_index[finding.code],
            "level": _LEVELS.get(finding.code, "warning"),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": _uri(finding.path)},
                        "region": {
                            "startLine": max(int(finding.line), 1),
                            "startColumn": max(int(finding.col), 1),
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]

    driver = {
        "name": TOOL_NAME,
        "version": TOOL_VERSION,
        "rules": [
            {
                "id": code,
                "shortDescription": {"text": RULES[code].description},
            }
            for code in codes
        ],
    }
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": results,
                "columnKind": "unicodeCodePoints",
            }
        ],
    }


def sarif_report(findings: Sequence[Finding]) -> str:
    """The SARIF log as a JSON string."""
    return json.dumps(_sarif_log(findings), indent=2)
