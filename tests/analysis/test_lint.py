"""Per-file rule fixtures: each rule fires on the bad snippet, not the good one.

Every snippet goes through the one analyzer (``analyze_paths``, the
engine behind ``repro check-determinism``), so these tests see what the
CLI reports: per-file and whole-repo findings after noqa suppression.
"""

import ast
import json
import re
import tempfile
import textwrap
from pathlib import Path

import pytest

from repro.analysis.dataflow.engine import analyze_paths, report_text
from repro.analysis.rules import RULES, Finding, check_tree
from repro.cli import main as cli_main

SNIPPET_PATH = "src/repro/nn/snippet.py"


def analyze(source, path=SNIPPET_PATH):
    """The analyzer's findings for one snippet written at ``path``."""
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / path
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        return analyze_paths([target]).findings


def codes_of(source, path=SNIPPET_PATH):
    # The default path sits inside repro/nn so that path-scoped rules
    # (RPR019) see the snippet; path-exempt rules (RPR008/RPR009) are
    # not exempted there, so every rule can fire on its fixture.
    return [f.code for f in analyze(source, path)]


def main(argv):
    return cli_main(["check-determinism", *argv])


class TestRuleFixtures:
    """(rule, bad snippet, good snippet) triples."""

    FIXTURES = {
        "RPR001": (
            "import numpy as np\nx = np.random.rand(3)\n",
            "import numpy as np\nx = np.random.default_rng(0).random(3)\n",
        ),
        "RPR002": (
            "import numpy as np\nrng = np.random.default_rng()\n",
            "import numpy as np\nrng = np.random.default_rng(42)\n",
        ),
        "RPR003": (
            "def f(items=[]):\n    return items\n",
            "def f(items=None):\n    return items or []\n",
        ),
        "RPR004": (
            "try:\n    pass\nexcept:\n    pass\n",
            "try:\n    pass\nexcept Exception:\n    pass\n",
        ),
        "RPR005": (
            "ok = x == 0.5\n",
            "ok = x == 0.0\n",  # exact zero is the sanctioned sentinel
        ),
        "RPR006": (
            "import numpy as np\n"
            "def run(scale):\n"
            "    rng = np.random.default_rng(0)\n"
            "    return rng\n",
            "import numpy as np\n"
            "def run(scale, seed=0):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng\n",
        ),
        "RPR007": (
            "import time\ndef wait():\n    time.sleep(0.1)\n",
            "def wait(clock):\n    clock.sleep(0.1)\n",
        ),
        "RPR008": (
            "from concurrent.futures import ProcessPoolExecutor\n",
            "from repro.runtime import make_executor\n",
        ),
        "RPR009": (
            "from repro.runtime import SerialExecutor\n"
            "executor = SerialExecutor()\n",
            "from repro.orchestration.context import resolve_executor\n"
            "executor = resolve_executor(None)\n",
        ),
        "RPR018": (
            "try:\n    work()\nexcept Exception:\n    pass\n",
            "import logging\n"
            "try:\n    work()\nexcept Exception:\n"
            "    logging.getLogger(__name__).warning('failed')\n",
        ),
        "RPR019": (
            "def bptt(xs, w):\n"
            "    for x in xs:\n"
            "        h = x @ w\n"
            "    return h\n",
            "def bptt(x2d, w):\n"
            "    return x2d @ w\n",  # batched GEMM, no loop
        ),
        "RPR020": (
            "def answer(model, x):\n"
            "    return model.predict(x)\n",
            "def answer(batcher, request):\n"
            "    return batcher.submit(request)\n",
        ),
        "RPR021": (
            "def score(scenario):\n"
            "    return list(scenario.iter_subjects())\n",
            "def score(scenario):\n"
            "    for subject in scenario.iter_subjects():\n"
            "        use(subject)\n",
        ),
    }

    # Rules whose scope excludes the default repro/nn path lint their
    # fixtures at a path inside their own scope.
    FIXTURE_PATHS = {"RPR020": "src/repro/serving/service.py"}

    @pytest.mark.parametrize("code", sorted(FIXTURES))
    def test_bad_snippet_fires(self, code):
        bad, _ = self.FIXTURES[code]
        path = self.FIXTURE_PATHS.get(code, SNIPPET_PATH)
        assert code in codes_of(bad, path=path)

    @pytest.mark.parametrize("code", sorted(FIXTURES))
    def test_good_snippet_clean(self, code):
        _, good = self.FIXTURES[code]
        path = self.FIXTURE_PATHS.get(code, SNIPPET_PATH)
        assert code not in codes_of(good, path=path)

    def test_every_registered_rule_has_a_fixture(self):
        per_file = {code for code, rule in RULES.items() if rule.check}
        assert set(self.FIXTURES) == per_file


class TestRuleEdges:
    def test_legacy_seed_call_flagged(self):
        assert "RPR001" in codes_of("import numpy as np\nnp.random.seed(1)\n")

    def test_numpy_alias_spelled_out(self):
        assert "RPR001" in codes_of("import numpy\nnumpy.random.shuffle(x)\n")

    def test_mutable_default_dict_call(self):
        assert "RPR003" in codes_of("def f(cache=dict()):\n    return cache\n")

    def test_keyword_only_mutable_default(self):
        assert "RPR003" in codes_of("def f(*, cache={}):\n    return cache\n")

    def test_float_ne_flagged(self):
        assert "RPR005" in codes_of("bad = y != 1.5\n")

    def test_int_equality_allowed(self):
        assert codes_of("ok = x == 3\n") == []

    def test_private_function_literal_seed_allowed(self):
        src = (
            "import numpy as np\n"
            "def _names():\n"
            "    return np.random.default_rng(0).random(3)\n"
        )
        assert "RPR006" not in codes_of(src)

    def test_zero_arg_function_literal_seed_allowed(self):
        src = (
            "import numpy as np\n"
            "def demo():\n"
            "    return np.random.default_rng(0).random(3)\n"
        )
        assert "RPR006" not in codes_of(src)

    def test_syntax_error_reported_not_raised(self):
        assert codes_of("def broken(:\n") == ["RPR900"]

    def test_time_time_flagged(self):
        assert "RPR007" in codes_of("import time\nt0 = time.time()\n")

    def test_perf_counter_allowed(self):
        assert codes_of("import time\nt0 = time.perf_counter()\n") == []

    def test_other_objects_sleep_allowed(self):
        assert "RPR007" not in codes_of("worker.sleep(1)\nclock.time()\n")

    def test_plain_multiprocessing_import_flagged(self):
        assert "RPR008" in codes_of("import multiprocessing\n")

    def test_from_concurrent_import_futures_flagged(self):
        assert "RPR008" in codes_of("from concurrent import futures\n")

    def test_dotted_multiprocessing_import_flagged(self):
        assert "RPR008" in codes_of("import multiprocessing.pool as mp\n")

    def test_runtime_package_exempt_from_rpr008(self):
        src = "from concurrent.futures import ProcessPoolExecutor\n"
        assert "RPR008" not in codes_of(src, path="src/repro/runtime/executor.py")

    def test_relative_runtime_import_not_flagged(self):
        # ``from ..runtime import ...`` is the sanctioned way in.
        assert "RPR008" not in codes_of("from ..runtime import make_executor\n")

    def test_every_runtime_constructor_flagged(self):
        for ctor in (
            "SerialExecutor",
            "ParallelExecutor",
            "make_executor",
            "ContentCache",
            "feature_map_cache",
            "checkpoint_cache",
        ):
            assert "RPR009" in codes_of(f"x = {ctor}()\n"), ctor

    def test_attribute_construction_flagged(self):
        assert "RPR009" in codes_of(
            "import repro.runtime as rt\nex = rt.ParallelExecutor(2)\n"
        )

    def test_runtime_and_orchestration_exempt_from_rpr009(self):
        src = "executor = SerialExecutor()\n"
        for pkg in ("runtime", "orchestration"):
            codes = codes_of(src, path=f"src/repro/{pkg}/context.py")
            assert "RPR009" not in codes, pkg

    def test_name_reference_without_call_allowed(self):
        # Passing the class around (type hints, isinstance) is fine;
        # only construction is the injection point.
        assert "RPR009" not in codes_of(
            "from repro.runtime import SerialExecutor\n"
            "ok = isinstance(x, SerialExecutor)\n"
        )


class TestSilentSwallow:
    """RPR018: broad excepts must do something with the exception."""

    def test_ellipsis_body_flagged(self):
        assert "RPR018" in codes_of(
            "try:\n    work()\nexcept Exception:\n    ...\n"
        )

    def test_base_exception_flagged(self):
        assert "RPR018" in codes_of(
            "try:\n    work()\nexcept BaseException:\n    pass\n"
        )

    def test_broad_member_of_tuple_flagged(self):
        assert "RPR018" in codes_of(
            "try:\n    work()\nexcept (ValueError, Exception):\n    pass\n"
        )

    def test_attribute_form_flagged(self):
        assert "RPR018" in codes_of(
            "import builtins\n"
            "try:\n    work()\nexcept builtins.Exception:\n    pass\n"
        )

    def test_bound_name_does_not_narrow(self):
        assert "RPR018" in codes_of(
            "try:\n    work()\nexcept Exception as exc:\n    pass\n"
        )

    def test_narrow_exception_allowed(self):
        assert codes_of("try:\n    work()\nexcept ValueError:\n    pass\n") == []

    def test_reraise_allowed(self):
        assert "RPR018" not in codes_of(
            "try:\n    work()\nexcept Exception:\n    raise\n"
        )

    def test_logging_allowed(self):
        assert "RPR018" not in codes_of(
            "import logging\n"
            "try:\n    work()\nexcept Exception:\n"
            "    logging.getLogger(__name__).warning('x')\n"
        )

    def test_assignment_body_allowed(self):
        assert "RPR018" not in codes_of(
            "try:\n    work()\nexcept Exception:\n    failed = True\n"
        )

    def test_bare_except_is_rpr004_not_rpr018(self):
        # The untyped handler is RPR004's domain; flagging it twice
        # would punish the same line under two codes.
        codes = codes_of("try:\n    work()\nexcept:\n    pass\n")
        assert "RPR004" in codes
        assert "RPR018" not in codes

    def test_docstring_comment_body_still_silent(self):
        # A lone string constant is not Ellipsis, so the handler *does*
        # contain a statement — but pass+... mixtures stay flagged.
        assert "RPR018" in codes_of(
            "try:\n    work()\nexcept Exception:\n    pass\n    ...\n"
        )


class TestServingBatchBypass:
    """RPR020: the micro-batcher owns inference inside repro/serving."""

    SERVING_PATH = "src/repro/serving/registry.py"

    def test_predict_many_allowed_in_batching_module(self):
        src = "def flush(model, xs):\n    return model.predict_many(xs)\n"
        assert "RPR020" not in codes_of(src, path="src/repro/serving/batching.py")

    def test_forward_many_flagged_outside_batching(self):
        assert "RPR020" in codes_of(
            "out = backend.forward_many(model, xs)\n", path=self.SERVING_PATH
        )

    def test_predict_classes_flagged(self):
        assert "RPR020" in codes_of(
            "y = model.predict_classes(x)\n", path=self.SERVING_PATH
        )

    def test_out_of_scope_path_not_flagged(self):
        assert "RPR020" not in codes_of(
            "y = model.predict(x)\n", path="src/repro/edge/streaming.py"
        )

    def test_predict_many_allowed_everywhere_in_serving(self):
        # predict_many IS the batched entry point — only the raw
        # per-request spellings are banned.
        assert "RPR020" not in codes_of(
            "out = model.predict_many(xs, pad_rows=32)\n",
            path=self.SERVING_PATH,
        )


class TestPopulationMaterialization:
    """RPR021: streamed populations stay streamed outside repro/scenarios."""

    def test_sorted_wrapping_flagged(self):
        assert "RPR021" in codes_of(
            "subjects = sorted(scenario.iter_subjects(), key=key)\n"
        )

    def test_comprehension_over_stream_flagged(self):
        assert "RPR021" in codes_of(
            "sigs = [s.signature() for s in scenario.iter_subjects()]\n"
        )

    def test_iter_chunks_list_flagged(self):
        assert "RPR021" in codes_of(
            "chunks = list(scenario.iter_chunks(64))\n"
        )

    def test_exempt_inside_scenarios_package(self):
        assert "RPR021" not in codes_of(
            "subjects = list(self.iter_subjects())\n",
            path="src/repro/scenarios/base.py",
        )

    def test_generator_expression_stays_lazy(self):
        # A genexp doesn't materialize anything by itself.
        assert "RPR021" not in codes_of(
            "sigs = (s.signature() for s in scenario.iter_subjects())\n"
        )

    def test_unrelated_list_call_clean(self):
        assert "RPR021" not in codes_of("rows = list(range(10))\n")


class TestSuppression:
    def test_blanket_noqa(self):
        src = "import numpy as np\nx = np.random.rand(3)  # repro: noqa\n"
        assert analyze(src) == []

    def test_targeted_noqa(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # repro: noqa[RPR001]\n"
        )
        assert analyze(src) == []

    def test_wrong_code_does_not_suppress(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # repro: noqa[RPR005]\n"
        )
        # The directive matches nothing on its line, so it is RPR014 too.
        assert [f.code for f in analyze(src)] == ["RPR014", "RPR001"]

    def test_multi_code_noqa(self):
        src = "bad = x == 0.5  # repro: noqa[RPR001, RPR005]\n"
        assert analyze(src) == []

    def test_noqa_in_string_literal_does_not_suppress(self):
        # Only a comment is a directive: the string on line 2 must not
        # hide the float comparison that shares its line.
        findings = analyze(NOQA_IN_STRING)
        assert [(f.line, f.code) for f in findings] == [(2, "RPR005")]


#: A noqa pattern inside a string literal, on the line of a real finding.
NOQA_IN_STRING = 'def g(a):\n    s = "# repro: noqa"; return a == 1.5\n'

_LINE_NOQA = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Z0-9,\s]+)\])?")
PER_FILE_CODES = {code for code, rule in RULES.items() if rule.check} | {"RPR900"}
PARITY_PATHS = (
    SNIPPET_PATH,
    "src/repro/serving/service.py",
    "src/repro/scenarios/base.py",
    "src/repro/runtime/executor.py",
)


def line_suppressed_findings(source, path):
    """The per-file findings under line-regex suppression.

    This is how the per-file linter that ``check-determinism`` replaced
    suppressed: it dropped a finding when the noqa pattern matched
    anywhere on its physical line, string literals included.
    """
    try:
        findings = check_tree(ast.parse(source), path)
    except SyntaxError as exc:
        findings = [
            Finding(path, exc.lineno or 1, (exc.offset or 0) + 1, "RPR900", "")
        ]
    lines = source.splitlines()
    kept = []
    for finding in findings:
        match = (
            _LINE_NOQA.search(lines[finding.line - 1])
            if 1 <= finding.line <= len(lines)
            else None
        )
        codes = match and match.group(1)
        if match is None or (
            codes is not None
            and finding.code not in {c.strip() for c in codes.split(",")}
        ):
            kept.append(finding)
    return kept


def located(findings):
    return sorted((f.line, f.col, f.code) for f in findings)


def _inline_sources():
    """Every string literal in this file: the snippets and their kin."""
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    return sorted(
        {
            textwrap.dedent(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
    )


class TestParityWithLineSuppression:
    """The analyzer reports every per-file finding the retired linter did.

    Both run the same per-file rules; only the suppression path
    differs.  On every inline source in this file, at paths inside and
    outside the confinement scopes, the analyzer's per-file findings
    equal the line-suppressed ones, apart from :data:`NOQA_IN_STRING`,
    where the line regex was wrong.  ``test_lint_clean_over_src`` in
    ``tests/test_repo_invariants.py`` checks the same on ``src/repro``.
    """

    def test_inline_sources(self, tmp_path):
        sources = _inline_sources()
        cases = {}
        for index, source in enumerate(sources):
            for rel in PARITY_PATHS:
                target = tmp_path / f"case{index}" / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(source, encoding="utf-8")
                cases[str(target)] = (source, rel)
        reported = {path: [] for path in cases}
        for finding in analyze_paths([tmp_path]).findings:
            if finding.code in PER_FILE_CODES:
                reported[finding.path].append(finding)
        differing = {
            source
            for path, (source, rel) in cases.items()
            if located(reported[path])
            != located(line_suppressed_findings(source, rel))
        }
        assert differing == {NOQA_IN_STRING}


class TestEngine:
    def test_select_subset_of_rules(self, tmp_path, capsys):
        target = tmp_path / "two.py"
        target.write_text("def f(a=[]):\n    return a == 0.5\n")
        assert main(["--select", "RPR003", "--format", "json", str(target)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in payload["findings"]] == ["RPR003"]

    def test_findings_sorted_by_location(self):
        src = "bad = x == 0.5\ndef f(a=[]):\n    pass\n"
        findings = analyze(src)
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("bad = x == 0.5\n")
        (tmp_path / "pkg" / "clean.py").write_text("ok = x == 0.0\n")
        findings = analyze_paths([tmp_path]).findings
        assert len(findings) == 1
        assert findings[0].path.endswith("mod.py")

    def test_reporters(self, tmp_path, capsys):
        findings = [Finding("a.py", 3, 1, "RPR004", "msg")]
        assert "a.py:3:1: RPR004 msg" in report_text(findings)
        assert "clean" in report_text([])
        target = tmp_path / "bad.py"
        target.write_text("try:\n    pass\nexcept:\n    pass\n")
        main(["--format", "json", str(target)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "RPR004"


class TestCli:
    """Per-file findings through ``repro check-determinism``."""

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_dirty_file_exits_nonzero(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main([str(target)]) == 1
        assert "RPR004" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("bad = x == 2.5\n")
        assert main(["--format", "json", str(target)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_unknown_select_code(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main(["--select", "RPR004,RPR999", str(target)]) == 2
        assert "RPR999" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == sorted(RULES)
        assert len(set(listed)) == len(listed)
