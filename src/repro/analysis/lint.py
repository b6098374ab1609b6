"""Repo-invariant lint engine: AST rules targeting reproduction-killers.

A tiny, dependency-free flake8-alike scoped to the defects that actually
destroy a reproduction of the CLEAR results: untracked randomness,
mutable defaults that leak state across LOSO folds, bare excepts that
swallow training failures, and exact float comparisons that flip with
precision changes (fp64 → fp16/int8 on the edge).

Usage::

    python -m repro.analysis.lint src/repro            # text report
    python -m repro.analysis.lint --format json src/   # machine-readable

Suppression: append ``# repro: noqa`` (all rules) or
``# repro: noqa[RPR002]`` / ``# repro: noqa[RPR002,RPR005]`` (specific
codes) to the offending line.

Rules
-----
RPR001
    Legacy ``np.random.*`` call (global-state RNG; unseeded and
    unthreadable).  Use ``np.random.default_rng(seed)``.
RPR002
    ``np.random.default_rng()`` with no seed in library code — every
    run draws differently, so no result is reproducible.
RPR003
    Mutable default argument (list/dict/set); shared across calls.
RPR004
    Bare ``except:`` — swallows ``KeyboardInterrupt`` and hides the
    real failure mid-training.
RPR005
    ``==`` / ``!=`` against a non-zero float literal; exact comparison
    breaks under dtype changes (0.0 is exempt: exactly representable
    and the idiomatic "feature disabled" sentinel).
RPR006
    Public module-level function draws from a generator seeded with a
    hard-coded literal but exposes no ``rng``/``seed`` parameter — the
    randomness cannot be threaded from the experiment config.
RPR007
    Direct ``time.time()`` / ``time.sleep()`` in library code — wall
    clocks make retries/backoff untestable and nondeterministic.  Use
    the injectable clock from ``repro.resilience.retry`` instead.
RPR008
    ``multiprocessing`` / ``concurrent.futures`` import outside
    ``repro/runtime`` — ad-hoc process pools bypass the seed-spawning
    executor layer, so parallel results silently stop being
    bit-identical to serial ones.  Accept an ``Executor`` instead.
RPR009
    Direct construction of runtime machinery — executors
    (``SerialExecutor`` / ``ParallelExecutor`` / ``make_executor``) or
    content caches (``ContentCache`` / ``feature_map_cache`` /
    ``checkpoint_cache`` / ``serving_model_cache``) — outside ``repro/runtime`` and
    ``repro/orchestration``.  Runtime is injected once at the stage
    boundary by the orchestration layer; scattered construction sites
    fragment cache statistics and executor provenance.  Accept an
    ``Executor`` / ``cache_dir`` or go through
    ``repro.orchestration.context``.
RPR019
    Raw-loop tensor math (``@`` / ``dot`` / ``matmul`` / ``einsum`` /
    ``tensordot`` / ``as_strided`` inside a ``for``/``while`` loop) in
    ``repro/nn`` outside the ``backends`` package.  The hot path is
    owned by :mod:`repro.nn.backends` — kernels that loop over GEMMs
    belong to a ``ComputeBackend`` implementation, where the optimized
    backend can batch or preallocate them; anywhere else they silently
    rot the layer/backend split this repo's speedups depend on.
RPR020
    Direct per-request inference (``.predict()`` / ``.predict_classes()``
    / ``.forward()`` / ``.forward_many()``) inside ``repro/serving``
    outside the ``batching`` module.  The micro-batcher is the single
    inference entry point of the serving layer: it buckets requests by
    shape and executes them on the canonical fixed-row slabs that make
    batched results bit-identical to sequential ones.  A stray
    ``model.predict()`` elsewhere in the serving layer bypasses both the
    coalescing (the perf contract) and the canonical execution shape
    (the determinism contract).
RPR021
    Whole-population materialization of a streamed scenario
    (``list(...iter_subjects())`` / ``tuple`` / ``sorted`` / ``set``
    wrapping, or a comprehension draining ``iter_subjects()`` /
    ``iter_chunks()``) outside ``repro/scenarios``.  The streaming
    population contract is what bounds peak memory by chunk size at
    100k subjects; consumers iterate the stream or go through the
    sanctioned adapters (``population_records`` / ``base_corpus`` /
    ``Scenario.materialize``), which live inside the scenarios package
    — the one place whole-population views are allowed.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Z0-9,\s]+)\])?")

#: Legacy numpy global-state RNG entry points (module functions on
#: ``np.random`` / ``numpy.random``).  ``default_rng`` & friends are the
#: sanctioned API and deliberately absent.
LEGACY_NP_RANDOM = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "binomial",
        "poisson",
        "beta",
        "gamma",
        "exponential",
        "multivariate_normal",
        "get_state",
        "set_state",
    }
)

#: Parameter names that count as "randomness is threaded by the caller".
RNG_PARAM_NAMES = frozenset({"rng", "seed", "random_state", "generator"})


@dataclass(frozen=True)
class Finding:
    """One lint violation at a specific source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


RULES: Dict[str, Type["LintRule"]] = {}


def register(cls: Type["LintRule"]) -> Type["LintRule"]:
    """Add a rule class to the global registry, keyed by its code."""
    if cls.code in RULES:
        raise ValueError(f"duplicate lint rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


class LintRule:
    """Base class: walk a module AST, yield findings."""

    code = "RPR000"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


def _np_random_attr(node: ast.AST) -> Optional[str]:
    """If ``node`` is ``np.random.X`` / ``numpy.random.X``, return ``X``."""
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if (
        isinstance(value, ast.Attribute)
        and value.attr == "random"
        and isinstance(value.value, ast.Name)
        and value.value.id in ("np", "numpy")
    ):
        return node.attr
    return None


@register
class LegacyNumpyRandomRule(LintRule):
    """RPR001: legacy global-state ``np.random.*`` calls."""

    code = "RPR001"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                attr = _np_random_attr(node.func)
                if attr in LEGACY_NP_RANDOM:
                    yield self.finding(
                        path,
                        node,
                        f"legacy global-state RNG np.random.{attr}(); "
                        f"use np.random.default_rng(seed) and thread the "
                        f"generator explicitly",
                    )


@register
class UnseededDefaultRngRule(LintRule):
    """RPR002: ``np.random.default_rng()`` with no seed argument."""

    code = "RPR002"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and _np_random_attr(node.func) == "default_rng"
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    path,
                    node,
                    "np.random.default_rng() without a seed draws "
                    "differently on every run; pass an explicit seed or a "
                    "threaded generator",
                )


@register
class MutableDefaultRule(LintRule):
    """RPR003: mutable default arguments."""

    code = "RPR003"

    _MUTABLE_CTORS = frozenset({"list", "dict", "set"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CTORS
            and not node.args
            and not node.keywords
        )

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if self._is_mutable(default):
                        yield self.finding(
                            path,
                            default,
                            f"mutable default argument in {node.name}(); "
                            f"use None and create the object in the body",
                        )


@register
class BareExceptRule(LintRule):
    """RPR004: bare ``except:`` clauses."""

    code = "RPR004"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    path,
                    node,
                    "bare except catches SystemExit/KeyboardInterrupt and "
                    "hides the real failure; catch Exception or narrower",
                )


@register
class FloatEqualityRule(LintRule):
    """RPR005: ``==``/``!=`` against a non-zero float literal."""

    code = "RPR005"

    @staticmethod
    def _nonzero_float(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value != 0.0
        )

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and (
                    self._nonzero_float(left) or self._nonzero_float(right)
                ):
                    yield self.finding(
                        path,
                        node,
                        "exact ==/!= against a non-zero float literal flips "
                        "under precision changes; compare with a tolerance "
                        "(np.isclose / math.isclose)",
                    )


@register
class UnthreadedRngRule(LintRule):
    """RPR006: literal-seeded RNG in a public function with no rng/seed param.

    Flags randomness that callers cannot thread: a module-level public
    function that seeds ``default_rng`` with a literal but accepts no
    ``rng``/``seed``/``random_state``/``generator`` parameter."""

    code = "RPR006"

    @staticmethod
    def _param_names(node) -> List[str]:
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        names = [a.arg for a in params]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue  # private helpers may be deterministic by design
            params = self._param_names(node)
            if not params or RNG_PARAM_NAMES.intersection(params):
                continue
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and _np_random_attr(inner.func) == "default_rng"
                    and inner.args
                    and isinstance(inner.args[0], ast.Constant)
                    and isinstance(inner.args[0].value, (int, float))
                ):
                    yield self.finding(
                        path,
                        inner,
                        f"{node.name}() hard-codes the RNG seed "
                        f"{inner.args[0].value!r}; accept an rng/seed "
                        f"parameter so experiments can thread randomness",
                    )


@register
class WallClockRule(LintRule):
    """RPR007: direct ``time.time()`` / ``time.sleep()`` calls.

    Library code that reads or blocks on the wall clock cannot be
    exercised deterministically; retries and backoff must run on the
    injectable ``Clock`` from ``repro.resilience.retry`` (whose
    ``MonotonicClock`` is the one sanctioned wrapper)."""

    code = "RPR007"

    _WALL_CLOCK_ATTRS = frozenset({"time", "sleep"})

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._WALL_CLOCK_ATTRS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "time"
            ):
                yield self.finding(
                    path,
                    node,
                    f"direct wall-clock call time.{node.func.attr}(); "
                    f"inject a Clock from repro.resilience.retry so tests "
                    f"can run on a FakeClock",
                )


@register
class SilentExceptionSwallowRule(LintRule):
    """RPR018: broad except clauses that silently swallow the error.

    ``except Exception: pass`` (and its ``...`` twin) makes a fault
    invisible: no typed error, no log line, no degraded-health record —
    the exact opposite of this codebase's resilience contract, where
    every failure either propagates as a typed error or is recorded
    (quarantined unit, degraded stage, journal warning).  A broad
    handler must *do* something with the exception."""

    code = "RPR018"

    _BROAD = frozenset({"Exception", "BaseException"})

    @classmethod
    def _broad_names(cls, node: ast.AST) -> List[str]:
        """Broad exception names caught by this handler's type expr."""
        if isinstance(node, ast.Name) and node.id in cls._BROAD:
            return [node.id]
        if isinstance(node, ast.Attribute) and node.attr in cls._BROAD:
            return [node.attr]
        if isinstance(node, ast.Tuple):
            return [
                name for elt in node.elts for name in cls._broad_names(elt)
            ]
        return []

    @staticmethod
    def _is_silent(body: Sequence[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in body
        )

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue  # bare except is RPR004's finding
            caught = self._broad_names(node.type)
            if caught and self._is_silent(node.body):
                yield self.finding(
                    path,
                    node,
                    f"except {caught[0]}: pass silently swallows the "
                    f"failure; re-raise a typed error, log it, or record "
                    f"degraded health instead",
                )


# -- confinement rules ---------------------------------------------------
#
# Five rules share one shape: a pattern that is legal only inside certain
# sub-paths of the ``repro`` package.  Each is one row of CONFINEMENTS;
# the rationale for each lives in the module docstring above.


def _call_name(node: ast.AST) -> Optional[str]:
    """The called name of ``f(...)`` / ``obj.f(...)``; None otherwise."""
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


Matches = Iterator[Tuple[ast.AST, str]]

_PARALLEL_ROOTS = frozenset({"multiprocessing", "concurrent"})
_RUNTIME_CONSTRUCTORS = frozenset(
    {
        "SerialExecutor",
        "ParallelExecutor",
        "make_executor",
        "ContentCache",
        "feature_map_cache",
        "checkpoint_cache",
        "serving_model_cache",
    }
)
_TENSOR_CALLS = frozenset({"dot", "matmul", "einsum", "tensordot", "as_strided"})
_INFERENCE_ATTRS = frozenset({"predict", "predict_classes", "forward", "forward_many"})
_STREAM_METHODS = frozenset({"iter_subjects", "iter_chunks"})
_MATERIALIZERS = frozenset({"list", "tuple", "sorted", "set"})


def _parallel_imports(tree: ast.Module) -> Matches:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _PARALLEL_ROOTS:
                    yield node, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] in _PARALLEL_ROOTS:
                yield node, node.module


def _runtime_constructions(tree: ast.Module) -> Matches:
    for node in ast.walk(tree):
        name = _call_name(node)
        if name in _RUNTIME_CONSTRUCTORS:
            yield node, name


def _looped_tensor_math(tree: ast.Module) -> Matches:
    seen: set = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            name = _call_name(node)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                op = "@"
            elif name in _TENSOR_CALLS:
                op = f"{name}()"
            else:
                continue
            if id(node) not in seen:
                seen.add(id(node))
                yield node, op


def _direct_inference(tree: ast.Module) -> Matches:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _INFERENCE_ATTRS
        ):
            yield node, node.func.attr


def _population_drains(tree: ast.Module) -> Matches:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MATERIALIZERS
            and node.args
        ):
            name = _call_name(node.args[0])
            if name in _STREAM_METHODS:
                yield node, (
                    f"{node.func.id}({name}()) materializes the whole "
                    f"streamed population"
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            for gen in node.generators:
                name = _call_name(gen.iter)
                if name in _STREAM_METHODS:
                    yield node, f"comprehension drains {name}() into memory"


@dataclass(frozen=True)
class Confinement:
    """One confinement rule: a pattern allowed only in some sub-paths.

    The rule watches every file (``package`` None) or only files under
    ``repro/<package>``; ``allowed`` names the entries directly below
    that root (``repro/`` or ``repro/<package>/``) where the pattern is
    sanctioned.  ``match`` yields ``(node, detail)`` pairs and each
    finding's message is ``message.format(detail)``.
    """

    code: str
    description: str
    package: Optional[str]
    allowed: Tuple[str, ...]
    match: Callable[[ast.Module], Matches]
    message: str

    def watches(self, path: str) -> bool:
        """True if the rule applies to ``path`` (watched, not allowed)."""
        parts = Path(path).parts
        root = ("repro",) if self.package is None else ("repro", self.package)
        heads = [
            parts[i + len(root)]
            for i in range(len(parts) - len(root))
            if parts[i : i + len(root)] == root
        ]
        if self.package is not None and not heads:
            return False
        return not any(head in self.allowed for head in heads)


CONFINEMENTS: Tuple[Confinement, ...] = (
    Confinement(
        code="RPR008",
        description="multiprocessing/concurrent.futures outside repro/runtime.",
        package=None,
        allowed=("runtime",),
        match=_parallel_imports,
        message=(
            "import of {} outside repro/runtime; dispatch work through a "
            "repro.runtime.Executor so parallel runs stay bit-identical to "
            "serial ones"
        ),
    ),
    Confinement(
        code="RPR009",
        description="executor/cache construction outside runtime+orchestration.",
        package=None,
        allowed=("runtime", "orchestration"),
        match=_runtime_constructions,
        message=(
            "direct {}() outside repro/runtime and repro/orchestration; "
            "accept an Executor/cache_dir or inject via "
            "repro.orchestration.context"
        ),
    ),
    Confinement(
        code="RPR019",
        description="raw-loop tensor math in repro/nn outside the backends package.",
        package="nn",
        allowed=("backends",),
        match=_looped_tensor_math,
        message=(
            "tensor math ({}) inside a loop outside repro/nn/backends; move "
            "the kernel into a ComputeBackend so the hot path stays pluggable"
        ),
    ),
    Confinement(
        code="RPR020",
        description="per-request inference in repro/serving outside batching.",
        package="serving",
        allowed=("batching.py",),
        match=_direct_inference,
        message=(
            "direct .{}() in repro/serving outside the batching module "
            "bypasses the micro-batcher's canonical slab execution; submit "
            "the request to the MicroBatcher instead"
        ),
    ),
    Confinement(
        code="RPR021",
        description="whole-population materialization outside repro/scenarios.",
        package=None,
        allowed=("scenarios",),
        match=_population_drains,
        message=(
            "{} outside repro/scenarios; iterate the stream in bounded "
            "chunks or use repro.scenarios.population_records/base_corpus"
        ),
    ),
)


class ConfinementRule(LintRule):
    """Base of the rules built from :data:`CONFINEMENTS`."""

    row: Confinement

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        if self.row.watches(path):
            for node, detail in self.row.match(tree):
                yield self.finding(path, node, self.row.message.format(detail))


for _row in CONFINEMENTS:
    register(
        type(
            f"Confinement{_row.code}",
            (ConfinementRule,),
            {
                "code": _row.code,
                "row": _row,
                "__doc__": f"{_row.code}: {_row.description}",
            },
        )
    )


# -- engine --------------------------------------------------------------

def _suppressed(finding: Finding, source_lines: Sequence[str]) -> bool:
    """True if the finding's physical line carries a matching noqa."""
    if not 1 <= finding.line <= len(source_lines):
        return False
    match = _NOQA_RE.search(source_lines[finding.line - 1])
    if match is None:
        return False
    codes = match.group(1)
    if codes is None:
        return True  # blanket noqa
    return finding.code in {c.strip() for c in codes.split(",")}


def lint_source_all(
    source: str, path: str = "<string>", codes: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Lint one module, returning every finding *before* noqa suppression.

    The dataflow engine (:mod:`repro.analysis.dataflow.engine`) applies
    suppression itself so it can tell which ``# repro: noqa`` directives
    actually fired — the input to the RPR014 unused-suppression check.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                code="RPR900",
                message=f"syntax error: {exc.msg}",
            )
        ]
    selected = set(codes) if codes is not None else set(RULES)
    findings: List[Finding] = []
    for code in sorted(selected):
        findings.extend(RULES[code]().check(tree, path))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_source(
    source: str, path: str = "<string>", codes: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Lint one module's source text; returns unsuppressed findings."""
    lines = source.splitlines()
    return [
        f
        for f in lint_source_all(source, path, codes)
        if not _suppressed(f, lines)
    ]


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into the .py files they contain."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Iterable[Path], codes: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Lint every python file reachable from ``paths``."""
    findings: List[Finding] = []
    for file_path in iter_python_files(Path(p) for p in paths):
        findings.extend(
            lint_source(
                file_path.read_text(encoding="utf-8"), str(file_path), codes
            )
        )
    return findings


def report_text(findings: Sequence[Finding]) -> str:
    lines = [f.format_text() for f in findings]
    lines.append(
        f"{len(findings)} finding(s)" if findings else "clean: 0 findings"
    )
    return "\n".join(lines)


def report_json(findings: Sequence[Finding]) -> str:
    return json.dumps(
        {"findings": [f.to_dict() for f in findings], "count": len(findings)},
        indent=2,
    )


def report_sarif(findings: Sequence[Finding]) -> str:
    from .sarif import rule_descriptions_from_registry, sarif_report

    rules = rule_descriptions_from_registry(RULES)
    rules["RPR900"] = "Syntax error: the file could not be parsed."
    return sarif_report(findings, tool_name="repro-lint", rules=rules)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Lint python sources for reproduction-killing patterns.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        dest="fmt",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for code in sorted(RULES):
            doc = (RULES[code].__doc__ or "").split("\n")[0].strip()
            print(f"{code}  {doc}")
        return 0
    if not args.paths:
        parser.error("the following arguments are required: paths")
    codes = None
    if args.select:
        codes = [c.strip() for c in args.select.split(",") if c.strip()]
        unknown = [c for c in codes if c not in RULES]
        if unknown:
            print(f"unknown rule code(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    findings = lint_paths([Path(p) for p in args.paths], codes)
    if args.fmt == "json":
        print(report_json(findings))
    elif args.fmt == "sarif":
        print(report_sarif(findings))
    else:
        print(report_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
