"""The analyzer's one rule table, and the per-file rules it runs.

``repro check-determinism`` (:mod:`repro.analysis.dataflow.engine`)
parses each file once and runs two kinds of rule over it.  The
per-file rules below are syntactic: each is a ``check`` over one
module's AST, aimed at the defects that destroy a reproduction of the
CLEAR results — untracked randomness, mutable defaults that leak state
across LOSO folds, bare excepts that swallow training failures, and
exact float comparisons that flip with precision changes (fp64 →
fp16/int8 on the edge).  The whole-repo rules (RPR010–RPR017) need the
linked call graph; the dataflow passes report them, and their rows here
carry only the description.

Suppression: append ``# repro: noqa`` (all rules) or
``# repro: noqa[RPR002]`` / ``# repro: noqa[RPR002,RPR005]`` (specific
codes) to the offending line, as a comment.  A directive that
suppresses nothing is itself a finding (RPR014).

Per-file rules
--------------
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
RPR018
    Broad ``except Exception: pass`` (or ``...``) — a fault vanishes
    with no typed error, log line or degraded-health record.
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

RPR008, RPR009, RPR019, RPR020 and RPR021 are confinement rules: the
pattern is legal only inside the sub-paths their row names.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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
    """One rule violation at a specific source location."""

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


#: A per-file check yields ``(node, message)`` for each violation.
Matches = Iterator[Tuple[ast.AST, str]]


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


def _call_name(node: ast.AST) -> Optional[str]:
    """The called name of ``f(...)`` / ``obj.f(...)``; None otherwise."""
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _legacy_np_random(tree: ast.Module) -> Matches:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            attr = _np_random_attr(node.func)
            if attr in LEGACY_NP_RANDOM:
                yield node, (
                    f"legacy global-state RNG np.random.{attr}(); "
                    f"use np.random.default_rng(seed) and thread the "
                    f"generator explicitly"
                )


def _unseeded_default_rng(tree: ast.Module) -> Matches:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and _np_random_attr(node.func) == "default_rng"
            and not node.args
            and not node.keywords
        ):
            yield node, (
                "np.random.default_rng() without a seed draws "
                "differently on every run; pass an explicit seed or a "
                "threaded generator"
            )


_MUTABLE_CTORS = frozenset({"list", "dict", "set"})


def _is_mutable(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CTORS
        and not node.args
        and not node.keywords
    )


def _mutable_defaults(tree: ast.Module) -> Matches:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable(default):
                    yield default, (
                        f"mutable default argument in {node.name}(); "
                        f"use None and create the object in the body"
                    )


def _bare_excepts(tree: ast.Module) -> Matches:
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield node, (
                "bare except catches SystemExit/KeyboardInterrupt and "
                "hides the real failure; catch Exception or narrower"
            )


def _nonzero_float(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and node.value != 0.0
    )


def _float_equality(tree: ast.Module) -> Matches:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                _nonzero_float(left) or _nonzero_float(right)
            ):
                yield node, (
                    "exact ==/!= against a non-zero float literal flips "
                    "under precision changes; compare with a tolerance "
                    "(np.isclose / math.isclose)"
                )


def _param_names(node) -> List[str]:
    args = node.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    names = [a.arg for a in params]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _unthreaded_rng(tree: ast.Module) -> Matches:
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_"):
            continue  # private helpers may be deterministic by design
        params = _param_names(node)
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
                yield inner, (
                    f"{node.name}() hard-codes the RNG seed "
                    f"{inner.args[0].value!r}; accept an rng/seed "
                    f"parameter so experiments can thread randomness"
                )


_WALL_CLOCK_ATTRS = frozenset({"time", "sleep"})


def _wall_clock(tree: ast.Module) -> Matches:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _WALL_CLOCK_ATTRS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
        ):
            yield node, (
                f"direct wall-clock call time.{node.func.attr}(); "
                f"inject a Clock from repro.resilience.retry so tests "
                f"can run on a FakeClock"
            )


_BROAD = frozenset({"Exception", "BaseException"})


def _broad_names(node: ast.AST) -> List[str]:
    """Broad exception names caught by a handler's type expression."""
    if isinstance(node, ast.Name) and node.id in _BROAD:
        return [node.id]
    if isinstance(node, ast.Attribute) and node.attr in _BROAD:
        return [node.attr]
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _broad_names(elt)]
    return []


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


def _silent_swallows(tree: ast.Module) -> Matches:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue  # bare except is RPR004's finding
        caught = _broad_names(node.type)
        if caught and _is_silent(node.body):
            yield node, (
                f"except {caught[0]}: pass silently swallows the "
                f"failure; re-raise a typed error, log it, or record "
                f"degraded health instead"
            )


# -- confinement checks --------------------------------------------------

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
            names = [
                alias.name
                for alias in node.names
                if alias.name.split(".")[0] in _PARALLEL_ROOTS
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            names = [module] if module.split(".")[0] in _PARALLEL_ROOTS else []
        else:
            continue
        for name in names:
            yield node, (
                f"import of {name} outside repro/runtime; dispatch work "
                f"through a repro.runtime.Executor so parallel runs stay "
                f"bit-identical to serial ones"
            )


def _runtime_constructions(tree: ast.Module) -> Matches:
    for node in ast.walk(tree):
        name = _call_name(node)
        if name in _RUNTIME_CONSTRUCTORS:
            yield node, (
                f"direct {name}() outside repro/runtime and "
                f"repro/orchestration; accept an Executor/cache_dir or "
                f"inject via repro.orchestration.context"
            )


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
                yield node, (
                    f"tensor math ({op}) inside a loop outside "
                    f"repro/nn/backends; move the kernel into a "
                    f"ComputeBackend so the hot path stays pluggable"
                )


def _direct_inference(tree: ast.Module) -> Matches:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _INFERENCE_ATTRS
        ):
            yield node, (
                f"direct .{node.func.attr}() in repro/serving outside the "
                f"batching module bypasses the micro-batcher's canonical "
                f"slab execution; submit the request to the MicroBatcher "
                f"instead"
            )


def _population_drains(tree: ast.Module) -> Matches:
    def drain(node: ast.AST, what: str) -> Tuple[ast.AST, str]:
        return node, (
            f"{what} outside repro/scenarios; iterate the stream in "
            f"bounded chunks or use "
            f"repro.scenarios.population_records/base_corpus"
        )

    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MATERIALIZERS
            and node.args
        ):
            name = _call_name(node.args[0])
            if name in _STREAM_METHODS:
                yield drain(
                    node,
                    f"{node.func.id}({name}()) materializes the whole "
                    f"streamed population",
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            for gen in node.generators:
                name = _call_name(gen.iter)
                if name in _STREAM_METHODS:
                    yield drain(node, f"comprehension drains {name}() into memory")


# -- the rule table ------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One row of the rule table.

    ``check`` is the per-file rule; it is None for the whole-repo rules,
    which the dataflow passes report.  A per-file rule watches every
    file (``package`` None) or only files under ``repro/<package>``;
    ``allowed`` names the entries directly below that root (``repro/``
    or ``repro/<package>/``) where its pattern is sanctioned.
    """

    code: str
    description: str
    check: Optional[Callable[[ast.Module], Matches]] = None
    package: Optional[str] = None
    allowed: Tuple[str, ...] = ()

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


RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule("RPR001", "Legacy global-state np.random.* call.", _legacy_np_random),
        Rule(
            "RPR002",
            "np.random.default_rng() without a seed.",
            _unseeded_default_rng,
        ),
        Rule("RPR003", "Mutable default argument.", _mutable_defaults),
        Rule("RPR004", "Bare except clause.", _bare_excepts),
        Rule("RPR005", "==/!= against a non-zero float literal.", _float_equality),
        Rule(
            "RPR006",
            "Literal-seeded RNG in a public function with no rng/seed "
            "parameter.",
            _unthreaded_rng,
        ),
        Rule("RPR007", "Direct time.time()/time.sleep() call.", _wall_clock),
        Rule(
            "RPR008",
            "multiprocessing/concurrent.futures import outside repro/runtime.",
            _parallel_imports,
            allowed=("runtime",),
        ),
        Rule(
            "RPR009",
            "Executor/cache construction outside runtime and orchestration.",
            _runtime_constructions,
            allowed=("runtime", "orchestration"),
        ),
        Rule(
            "RPR010",
            "Stage function mutates one of its input artifacts in place; "
            "upstream digests stop describing what downstream stages saw.",
        ),
        Rule(
            "RPR011",
            "Stage function writes global/nonlocal/module state; stages "
            "must communicate only through declared artifacts.",
        ),
        Rule(
            "RPR012",
            "Stage function performs direct file/OS I/O; persistence must "
            "go through the injected StageContext cache helpers.",
        ),
        Rule(
            "RPR013",
            "Stage function reads wall-clock/OS entropy or creates an "
            "unseeded generator; same inputs must produce the same artifact.",
        ),
        Rule(
            "RPR014",
            "Unused '# repro: noqa' directive: it suppresses no finding "
            "and should be removed.",
        ),
        Rule(
            "RPR015",
            "Unseeded RNG reaches a stochastic operation (interprocedural "
            "seed-flow); derive generators from an explicit seed parameter "
            "or a spawned SeedSequence.",
        ),
        Rule(
            "RPR016",
            "Lambda/nested function/bound method submitted to executor.map; "
            "work functions must be module-level so they pickle into pool "
            "workers identically to the serial run.",
        ),
        Rule(
            "RPR017",
            "Work units embed a local that the same function mutates in "
            "place; parallel workers see a snapshot while the serial path "
            "sees the mutation.",
        ),
        Rule(
            "RPR018",
            "Broad except clause that silently swallows the error.",
            _silent_swallows,
        ),
        Rule(
            "RPR019",
            "Raw-loop tensor math in repro/nn outside the backends package.",
            _looped_tensor_math,
            package="nn",
            allowed=("backends",),
        ),
        Rule(
            "RPR020",
            "Per-request inference in repro/serving outside batching.",
            _direct_inference,
            package="serving",
            allowed=("batching.py",),
        ),
        Rule(
            "RPR021",
            "Whole-population materialization outside repro/scenarios.",
            _population_drains,
            allowed=("scenarios",),
        ),
        Rule("RPR900", "Syntax error: the file could not be parsed."),
    )
}


def check_tree(tree: ast.Module, path: str) -> List[Finding]:
    """Every per-file finding in one parsed module, before suppression."""
    return [
        Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=rule.code,
            message=message,
        )
        for rule in RULES.values()
        if rule.check is not None and rule.watches(path)
        for node, message in rule.check(tree)
    ]
