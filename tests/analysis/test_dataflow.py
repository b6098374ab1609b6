"""Tests for the whole-repo dataflow analyzer (tier two).

The fixture corpus under ``tests/analysis/fixtures/`` plants at least
one true positive per rule; these tests assert the analyzer finds
exactly the planted violations — and nothing in the sanctioned
patterns that sit next to them.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.dataflow import analyze_paths, summarize_tree
from repro.analysis.dataflow.callgraph import CallGraph
from repro.analysis.dataflow.engine import _analyze_file
from repro.analysis.dataflow.hazards import analyze_hazards
from repro.analysis.dataflow.purity import (
    check_stage_purity,
    resolve_stage_bindings,
)
from repro.analysis.dataflow.summaries import extract_noqa_directives
from repro.analysis.rules import RULES
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"


def _codes(findings):
    return [f.code for f in findings]


def _analyze(*names):
    return analyze_paths([FIXTURES / name for name in names])


def summarize(source, path, module):
    return summarize_tree(ast.parse(source), path, module=module)


def main(argv):
    return cli_main(["check-determinism", *argv])


# -- summaries ------------------------------------------------------------

class TestSummaries:
    def test_taint_and_stochastic_extraction(self):
        source = (
            "import numpy as np\n"
            "def f(n):\n"
            "    rng = np.random.default_rng()\n"
            "    alias = rng\n"
            "    return alias.normal(size=n)\n"
        )
        summary = summarize(source, "mod.py", module="mod")
        fn = summary.functions["mod.f"]
        assert "rng" in fn.tainted_vars
        assert "alias" in fn.tainted_vars
        assert [(u.receiver, u.method) for u in fn.stochastic_uses] == [
            ("alias", "normal")
        ]

    def test_seeded_rng_is_not_tainted(self):
        source = (
            "import numpy as np\n"
            "def f(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.normal()\n"
        )
        summary = summarize(source, "mod.py", module="mod")
        fn = summary.functions["mod.f"]
        assert fn.tainted_vars == ()
        assert fn.rng_creations[0].kind == "seeded"

    def test_spawn_from_clean_sequence_is_clean(self):
        source = (
            "import numpy as np\n"
            "def f(seed):\n"
            "    ss = np.random.SeedSequence(seed)\n"
            "    child = ss.spawn(1)\n"
            "    return child\n"
        )
        fn = summarize(source, "m.py", module="m").functions["m.f"]
        assert fn.tainted_vars == ()
        kinds = {c.kind for c in fn.rng_creations}
        assert kinds == {"seeded", "spawn"}

    def test_module_level_function_qualname(self):
        summary = summarize("def top():\n    pass\n", "m.py", module="m")
        assert "m.top" in summary.functions
        assert summary.functions["m.top"].is_nested is False

    def test_nested_function_marked_nested(self):
        source = "def outer():\n    def inner():\n        pass\n    return inner\n"
        summary = summarize(source, "m.py", module="m")
        assert summary.functions["m.outer.inner"].is_nested is True

    def test_methods_are_not_nested(self):
        source = "class C:\n    def m(self):\n        pass\n"
        summary = summarize(source, "m.py", module="m")
        assert summary.functions["m.C.m"].is_nested is False

    def test_noqa_in_docstring_is_not_a_directive(self):
        source = '"""Docs mention # repro: noqa here."""\nx = 1  # repro: noqa\n'
        directives = extract_noqa_directives(source)
        assert [d.line for d in directives] == [2]

    def test_summaries_are_picklable(self):
        import pickle

        analysis = _analyze_file(str(FIXTURES / "impure_stage.py"))
        clone = pickle.loads(pickle.dumps(analysis))
        assert clone.summary.module == analysis.summary.module
        assert clone.findings == analysis.findings
        assert clone.noqa_directives == analysis.noqa_directives


# -- seed-flow (RPR015) ---------------------------------------------------

class TestSeedFlow:
    @pytest.fixture(scope="class")
    def findings(self):
        result = _analyze("seedflow_leak.py")
        return [f for f in result.findings if f.code == "RPR015"]

    def test_inline_unseeded_chain(self, findings):
        assert any("draw_inline" in f.message for f in findings)

    def test_unseeded_factory_return_reaches_draw(self, findings):
        assert any("consume_here" in f.message for f in findings)

    def test_tainted_value_passed_into_consuming_callee(self, findings):
        assert any(
            "leak_into_callee" in f.message and "_draw" in f.message
            for f in findings
        )

    def test_sanctioned_patterns_stay_clean(self, findings):
        assert not any("seeded_ok" in f.message for f in findings)
        assert not any("threaded_ok" in f.message for f in findings)

    def test_exactly_the_planted_leaks(self, findings):
        assert len(findings) == 3


# -- stage purity (RPR010-RPR013) -----------------------------------------

class TestStagePurity:
    @pytest.fixture(scope="class")
    def result(self):
        return _analyze("impure_stage.py")

    def test_flags_input_mutation(self, result):
        rpr010 = [f for f in result.findings if f.code == "RPR010"]
        assert len(rpr010) == 2  # .sort() and subscript store
        assert all("features" in f.message for f in rpr010)

    def test_flags_global_write(self, result):
        rpr011 = [f for f in result.findings if f.code == "RPR011"]
        assert len(rpr011) == 1
        assert "_CALL_COUNT" in rpr011[0].message

    def test_flags_io_through_helper(self, result):
        rpr012 = [f for f in result.findings if f.code == "RPR012"]
        assert len(rpr012) == 2  # open() and json.dump() in _dump_debug
        assert all("_dump_debug" in f.message for f in rpr012)

    def test_flags_clock_and_entropy(self, result):
        rpr013 = [f for f in result.findings if f.code == "RPR013"]
        assert len(rpr013) == 2  # time.time() + unseeded default_rng()

    def test_pure_stage_stays_clean(self, result):
        assert not any("'pure'" in f.message for f in result.findings)

    def test_every_real_stage_in_runner_is_pure(self):
        analysis = _analyze_file(str(SRC / "experiments" / "runner.py"))
        graph = CallGraph([analysis.summary])
        bindings = resolve_stage_bindings(graph)
        # Six experiment graphs register their stages here — including
        # two lambdas; all must resolve, all must verify pure.
        assert len(bindings) >= 9
        findings = check_stage_purity(graph, bindings)
        formatted = "\n".join(f.format_text() for f in findings)
        assert not findings, f"runner stages flagged:\n{formatted}"

    def test_core_pipeline_stages_resolve_and_pass(self):
        analysis = _analyze_file(str(SRC / "core" / "pipeline.py"))
        graph = CallGraph([analysis.summary])
        bindings = resolve_stage_bindings(graph)
        assert {b.stage_name for b in bindings} >= {
            "global_clustering",
            "subclusters",
            "cluster_models",
        }
        assert check_stage_purity(graph, bindings) == []


# -- cross-process hazards (RPR016-RPR017) --------------------------------

class TestHazards:
    @pytest.fixture(scope="class")
    def findings(self):
        return _analyze("process_hazards.py").findings

    def test_lambda_flagged(self, findings):
        assert any(
            f.code == "RPR016" and "lambda" in f.message for f in findings
        )

    def test_closure_flagged(self, findings):
        assert any(
            f.code == "RPR016" and "_scaled" in f.message for f in findings
        )

    def test_bound_method_flagged(self, findings):
        assert any(
            f.code == "RPR016" and "self._work" in f.message
            for f in findings
        )

    def test_shared_mutable_units_flagged(self, findings):
        rpr017 = [f for f in findings if f.code == "RPR017"]
        assert len(rpr017) == 1
        assert "scratch" in rpr017[0].message

    def test_module_level_fn_and_rebinding_are_clean(self, findings):
        assert not any("dispatch_ok" in f.message for f in findings)
        # x is rebound via asarray, never mutated: no RPR017 for it.
        assert not any(
            f.code == "RPR017" and "'x'" in f.message for f in findings
        )

    def test_fold_fn_parameter_is_trusted(self):
        # run_fold_plan fans out a *parameter*; the obligation belongs
        # to its callers, so the dispatch site itself must stay clean.
        analysis = _analyze_file(str(SRC / "orchestration" / "folds.py"))
        graph = CallGraph([analysis.summary])
        assert analyze_hazards(graph) == []


# -- suppression hygiene (RPR014) -----------------------------------------

class TestUnusedNoqa:
    @pytest.fixture(scope="class")
    def result(self):
        return _analyze("unused_noqa.py")

    def test_unused_directives_flagged(self, result):
        rpr014 = [f for f in result.findings if f.code == "RPR014"]
        assert len(rpr014) == 2
        assert any("all rules" in f.message for f in rpr014)
        assert any("RPR005" in f.message for f in rpr014)

    def test_used_directives_not_flagged(self, result):
        flagged_lines = {
            f.line for f in result.findings if f.code == "RPR014"
        }
        used_lines = {13, 17}  # the two real RPR002 suppressions
        assert not flagged_lines & used_lines

    def test_noqa_suppresses_dataflow_findings(self, tmp_path):
        target = tmp_path / "suppressed.py"
        target.write_text(
            "import numpy as np\n"
            "def f(n):\n"
            "    rng = np.random.default_rng()  # repro: noqa\n"
            "    return rng.normal(size=n)  # repro: noqa[RPR015]\n",
            encoding="utf-8",
        )
        result = analyze_paths([target])
        assert result.findings == []
        assert result.suppressed >= 1


# -- engine ---------------------------------------------------------------

class TestEngine:
    def test_parallel_parse_matches_serial(self):
        serial = analyze_paths([FIXTURES])
        parallel = analyze_paths([FIXTURES], workers=2)
        assert _codes(serial.findings) == _codes(parallel.findings)
        assert [f.line for f in serial.findings] == [
            f.line for f in parallel.findings
        ]

    def test_src_tree_is_clean(self):
        result = analyze_paths([SRC])
        formatted = "\n".join(f.format_text() for f in result.findings)
        assert not result.findings, formatted
        assert not result.errors

    def test_syntax_error_becomes_rpr900(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        result = analyze_paths([bad])
        assert _codes(result.findings) == ["RPR900"]
        assert result.errors and result.errors[0][0] == str(bad)

    def test_every_fixture_rule_has_a_true_positive(self):
        result = analyze_paths([FIXTURES])
        fired = set(_codes(result.findings))
        assert {
            "RPR010",
            "RPR011",
            "RPR012",
            "RPR013",
            "RPR014",
            "RPR015",
            "RPR016",
            "RPR017",
        } <= fired

    def test_finding_codes_are_all_catalogued(self):
        result = analyze_paths([FIXTURES])
        assert set(_codes(result.findings)) <= set(RULES)

    def test_each_file_parsed_once(self, tmp_path, monkeypatch):
        for name in ("a", "b", "c"):
            (tmp_path / f"{name}.py").write_text(
                "import numpy as np\nx = np.random.rand(3)\n", encoding="utf-8"
            )
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(kwargs.get("filename", args[0] if args else None))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        result = analyze_paths([tmp_path])
        assert sorted(parsed) == sorted(str(tmp_path / f"{n}.py") for n in "abc")
        # One parse feeds both the per-file rules and the dataflow summary.
        assert _codes(result.findings) == ["RPR001"] * 3



# -- CLI ------------------------------------------------------------------

class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        assert main([str(SRC / "errors.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main([str(FIXTURES / "seedflow_leak.py")]) == 1
        assert "RPR015" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert main(["definitely/not/a/path.py"]) == 2

    def test_json_format(self, capsys):
        main(["--format", "json", str(FIXTURES / "unused_noqa.py")])
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["findings"])
        assert {f["code"] for f in payload["findings"]} == {"RPR014"}

    def test_select_filters_codes(self, capsys):
        main(["--select", "RPR016", str(FIXTURES / "process_hazards.py")])
        out = capsys.readouterr().out
        assert "RPR016" in out and "RPR017" not in out

    def test_select_unknown_code_exits_two(self, capsys):
        assert main(["--select", "RPR999", str(FIXTURES)]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code, rule in RULES.items():
            assert f"{code}  {rule.description}" in out
