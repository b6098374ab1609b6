"""Per-file extraction of picklable dataflow summaries.

The interprocedural passes never touch an AST: each source file is
parsed exactly once (possibly in a worker process — summaries must
pickle) and compressed into a :class:`ModuleSummary` holding one
:class:`FunctionSummary` per function-like scope: module-level
functions, methods, nested functions, lambdas, and the module body
itself (qualname suffix ``<module>``).

A summary records only the facts the downstream analyses consume:

* call sites with lightweight argument classification,
* RNG creations (seeded / unseeded / spawned) and the variables they
  taint,
* stochastic-method uses and which receiver they draw from,
* in-place mutations, global writes, I/O calls, clock/entropy reads,
* ``Executor.map`` dispatches and ``Stage(...)`` registrations,
* container builds that embed local names into work units,
* free (captured) names, for closure/pickling hazards.

Everything is best-effort and conservative-by-construction: when an
expression cannot be resolved statically the extractor records nothing
rather than guessing, so whole-repo passes err toward silence instead
of noise.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..rules import RNG_PARAM_NAMES, Finding

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Z0-9,\s]+)\])?")

#: ``np.random.Generator`` drawing methods — the stochastic operations
#: that a tainted generator must never reach.
STOCHASTIC_METHODS = frozenset(
    {
        "random",
        "normal",
        "uniform",
        "integers",
        "choice",
        "shuffle",
        "permutation",
        "permuted",
        "standard_normal",
        "poisson",
        "binomial",
        "exponential",
        "gamma",
        "beta",
        "multivariate_normal",
        "lognormal",
        "laplace",
        "triangular",
        "rayleigh",
        "bytes",
    }
)

#: Method names that mutate their receiver in place (list/dict/set and
#: ndarray vocabularies).
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "sort",
        "reverse",
        "fill",
        "resize",
        "put",
        "partition",
        "itemset",
    }
)

#: Callables that are file/OS I/O when invoked by these dotted names.
IO_DOTTED = frozenset(
    {
        "open",
        "np.save",
        "np.savez",
        "np.savez_compressed",
        "np.load",
        "np.savetxt",
        "np.loadtxt",
        "numpy.save",
        "numpy.savez",
        "numpy.load",
        "pickle.dump",
        "pickle.load",
        "json.dump",
        "json.load",
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.replace",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "shutil.copy",
        "shutil.copytree",
        "shutil.move",
        "shutil.rmtree",
        "tempfile.mkstemp",
        "tempfile.mkdtemp",
        "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryDirectory",
    }
)

#: Attribute methods that are I/O on path-like receivers.
IO_METHODS = frozenset(
    {
        "write_text",
        "write_bytes",
        "read_text",
        "read_bytes",
        "mkdir",
        "unlink",
        "touch",
        "rmdir",
    }
)

#: Wall-clock / OS-entropy reads.  ``time.perf_counter`` and
#: ``time.monotonic`` are deliberately absent: duration measurement is
#: sanctioned inside stages as long as timings stay out of content
#: digests (the ``__repro_content__`` convention).
CLOCK_ENTROPY_DOTTED = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
        "secrets.choice",
        "random.random",
        "random.randint",
        "random.choice",
        "random.shuffle",
        "random.seed",
        "random.uniform",
    }
)

#: Receiver spellings that identify an executor ``.map`` fan-out.
EXECUTOR_RECEIVERS = frozenset(
    {"executor", "ctx.executor", "self.executor", "pool", "self._executor"}
)


# -- record types (all picklable) ----------------------------------------

@dataclass(frozen=True)
class CallRecord:
    """One call site, with just enough argument structure to link."""

    callee: str  # dotted source text ("np.random.default_rng", "fn", ...)
    line: int
    col: int
    #: per positional argument: the Name id, a lambda qualname, or None
    arg_refs: Tuple[Optional[str], ...] = ()
    #: (keyword, Name id / lambda qualname / None) pairs
    kw_refs: Tuple[Tuple[str, Optional[str]], ...] = ()
    #: local variable the call result was assigned to, if a simple
    #: ``var = call(...)`` binding
    assigned_to: Optional[str] = None


@dataclass(frozen=True)
class RngCreation:
    """An expression that produces RNG material."""

    line: int
    col: int
    kind: str  # "seeded" | "unseeded" | "spawn"
    target: Optional[str] = None  # variable bound to the value, if simple
    receiver: Optional[str] = None  # for spawn: the sequence spawned from


@dataclass(frozen=True)
class StochasticUse:
    """A drawing method invoked on some receiver."""

    receiver: str  # dotted receiver text; "<unseeded>" for inline chains
    method: str
    line: int
    col: int


@dataclass(frozen=True)
class Mutation:
    """An in-place mutation, keyed by the mutated root name."""

    name: str  # root of the mutated expression ("x" for x[0], x.y, ...)
    kind: str  # "method:append" | "subscript" | "attribute" | "augassign" | "del" | "out="
    line: int
    col: int


@dataclass(frozen=True)
class GlobalWrite:
    name: str
    kind: str  # "global" | "nonlocal" | "module-attr"
    line: int
    col: int


@dataclass(frozen=True)
class EffectCall:
    """An I/O or clock/entropy call (shared record shape)."""

    callee: str
    line: int
    col: int


@dataclass(frozen=True)
class ExecutorMap:
    """One ``executor.map(fn, items)`` dispatch."""

    line: int
    col: int
    receiver: str
    fn_ref: Optional[str]  # Name id, lambda qualname, or dotted text
    fn_kind: str  # "name" | "lambda" | "attribute" | "other"
    items_ref: Optional[str]  # Name id of the work-unit container


@dataclass(frozen=True)
class StageRef:
    """One ``Stage(...)`` registration and the fn it wraps."""

    line: int
    col: int
    stage_name: Optional[str]  # literal stage name if given
    fn_ref: Optional[str]  # Name id, lambda qualname, or dotted text
    fn_kind: str  # "name" | "lambda" | "attribute" | "other" | "missing"


@dataclass(frozen=True)
class ContainerElem:
    """Names embedded into elements of a container variable."""

    var: str
    line: int
    names: Tuple[str, ...]


@dataclass(frozen=True)
class NoqaDirective:
    """A ``# repro: noqa[...]`` comment found in the file."""

    line: int
    codes: Optional[Tuple[str, ...]]  # None = blanket


@dataclass
class FunctionSummary:
    """Dataflow-relevant facts about one function-like scope."""

    qualname: str
    name: str
    module: str
    path: str
    line: int
    params: Tuple[str, ...] = ()
    parent: Optional[str] = None
    is_nested: bool = False
    is_lambda: bool = False
    calls: Tuple[CallRecord, ...] = ()
    rng_creations: Tuple[RngCreation, ...] = ()
    rng_vars: Tuple[str, ...] = ()
    tainted_vars: Tuple[str, ...] = ()
    stochastic_uses: Tuple[StochasticUse, ...] = ()
    mutations: Tuple[Mutation, ...] = ()
    global_writes: Tuple[GlobalWrite, ...] = ()
    io_calls: Tuple[EffectCall, ...] = ()
    clock_calls: Tuple[EffectCall, ...] = ()
    returns_names: Tuple[str, ...] = ()
    returns_unseeded_expr: bool = False
    free_names: Tuple[str, ...] = ()
    local_defs: Tuple[str, ...] = ()
    executor_maps: Tuple[ExecutorMap, ...] = ()
    stage_refs: Tuple[StageRef, ...] = ()
    container_elems: Tuple[ContainerElem, ...] = ()
    aliases: Tuple[Tuple[str, str], ...] = ()

@dataclass
class ModuleSummary:
    """Every function summary of one module, plus linking metadata."""

    module: str
    path: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    module_level_names: Tuple[str, ...] = ()

@dataclass
class FileAnalysis:
    """Everything one worker extracts from a single file."""

    path: str
    summary: Optional[ModuleSummary]
    findings: List[Finding] = field(default_factory=list)  # per-file, pre-suppression
    noqa_directives: Tuple[NoqaDirective, ...] = ()
    error: Optional[str] = None


# -- helpers --------------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None when not a pure chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _root_name(node: ast.AST) -> Optional[str]:
    """The leftmost Name of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


_BIT_GENERATORS = frozenset({"MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64"})


def _is_none(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _classify_rng_call(node: ast.Call) -> Optional[str]:
    """Is this call an RNG creation?  Returns "seeded"/"unseeded"/None.

    ``default_rng()`` / ``default_rng(None)`` / ``SeedSequence()`` draw
    their entropy from the OS — unseeded.  Any explicit argument
    (literal, parameter, spawned child) counts as seeded here; whether
    that argument was itself tainted is the seed-flow pass's job.
    """
    name = dotted_name(node.func) or ""
    tail = name.rsplit(".", 1)[-1]
    if tail in ("default_rng", "SeedSequence"):
        first = node.args[0] if node.args else None
        for kw in node.keywords:
            if kw.arg in ("seed", "entropy"):
                first = kw.value
        if first is None or _is_none(first):
            return "unseeded"
        return "seeded"
    if tail == "Generator":
        # np.random.Generator(MT19937()) pulls OS entropy; with an
        # argument to the bit generator it is explicitly seeded.
        if node.args and isinstance(node.args[0], ast.Call):
            bit = dotted_name(node.args[0].func) or ""
            if bit.rsplit(".", 1)[-1] in _BIT_GENERATORS:
                return (
                    "unseeded"
                    if not node.args[0].args and not node.args[0].keywords
                    else "seeded"
                )
        return None
    return None


def module_name_for(path: str) -> str:
    """Dotted module name for a file path, anchored at a package root.

    Walks up from the file collecting directories that carry an
    ``__init__.py`` — the standard package layout — so
    ``src/repro/core/pipeline.py`` becomes ``repro.core.pipeline``.
    Falls back to the bare stem for loose scripts and fixtures.
    """
    from pathlib import Path

    p = Path(path)
    parts = [p.stem] if p.stem != "__init__" else []
    parent = p.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else p.stem


def _resolve_relative(module: str, node: ast.ImportFrom) -> str:
    """Absolute dotted module for a (possibly relative) import-from."""
    if node.level == 0:
        return node.module or ""
    # Package of the importing module: repro.core.pipeline -> repro.core
    package_parts = module.split(".")[:-1]
    # level=1 imports from the package itself, each extra level pops one.
    keep = len(package_parts) - (node.level - 1)
    base = package_parts[: max(keep, 0)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def module_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """Module-level import table: bound name -> absolute dotted target."""
    imports: Dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(stmt, ast.ImportFrom):
            target = _resolve_relative(module, stmt)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = (
                    f"{target}.{alias.name}" if target else alias.name
                )
    return imports


# -- the extractor --------------------------------------------------------

class _ScopeExtractor:
    """Walks one function-like scope without descending into nested ones."""

    def __init__(
        self,
        builder: "_ModuleBuilder",
        qualname: str,
        name: str,
        params: Sequence[str],
        parent: Optional[str],
        is_lambda: bool,
        line: int,
    ):
        self.builder = builder
        self.out = FunctionSummary(
            qualname=qualname,
            name=name,
            module=builder.module,
            path=builder.path,
            line=line,
            params=tuple(params),
            parent=parent,
            is_nested=parent is not None and not parent.endswith("<module>"),
            is_lambda=is_lambda,
        )
        self._calls: List[CallRecord] = []
        self._rng_creations: List[RngCreation] = []
        self._rng_vars: set = set(p for p in params if p in RNG_PARAM_NAMES)
        self._tainted: set = set()
        self._stochastic: List[StochasticUse] = []
        self._mutations: List[Mutation] = []
        self._global_writes: List[GlobalWrite] = []
        self._io: List[EffectCall] = []
        self._clock: List[EffectCall] = []
        self._returns_names: List[str] = []
        self._returns_unseeded = False
        self._local_defs: List[str] = []
        self._executor_maps: List[ExecutorMap] = []
        self._stage_refs: List[StageRef] = []
        self._container_elems: List[ContainerElem] = []
        self._aliases: List[Tuple[str, str]] = []
        self._assigned: set = set(params)
        self._loaded: set = set()
        self._declared_global: set = set()
        self._declared_nonlocal: set = set()

    # -- entry -----------------------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> FunctionSummary:
        for stmt in body:
            self._stmt(stmt)
        out = self.out
        out.calls = tuple(self._calls)
        out.rng_creations = tuple(self._rng_creations)
        out.rng_vars = tuple(sorted(self._rng_vars))
        out.tainted_vars = tuple(sorted(self._tainted))
        out.stochastic_uses = tuple(self._stochastic)
        out.mutations = tuple(self._mutations)
        out.global_writes = tuple(self._global_writes)
        out.io_calls = tuple(self._io)
        out.clock_calls = tuple(self._clock)
        out.returns_names = tuple(self._returns_names)
        out.returns_unseeded_expr = self._returns_unseeded
        out.local_defs = tuple(self._local_defs)
        out.executor_maps = tuple(self._executor_maps)
        out.stage_refs = tuple(self._stage_refs)
        out.container_elems = tuple(self._container_elems)
        out.aliases = tuple(self._aliases)
        out.free_names = tuple(
            sorted(
                self._loaded
                - self._assigned
                - set(self._local_defs)
                - self.builder.module_level
                - _BUILTINS
            )
        )
        return out

    # -- statements ------------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._local_defs.append(stmt.name)
            self._assigned.add(stmt.name)
            for deco in stmt.decorator_list:
                self._expr(deco)
            self.builder.add_scope(
                stmt,
                parent=self.out.qualname,
                nested=self.out.name != "<module>",
            )
            return
        if isinstance(stmt, ast.ClassDef):
            self._assigned.add(stmt.name)
            for deco in stmt.decorator_list:
                self._expr(deco)
            self.builder.add_class(stmt, parent=self.out.qualname)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(stmt.target):
                if isinstance(sub, ast.Name):
                    self._assigned.add(sub.id)
            self._expr(stmt.iter)
            for child in stmt.body + stmt.orelse:
                self._stmt(child)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr)
                if item.optional_vars is not None:
                    for sub in ast.walk(item.optional_vars):
                        if isinstance(sub, ast.Name):
                            self._assigned.add(sub.id)
            for child in stmt.body:
                self._stmt(child)
            return
        if isinstance(stmt, ast.Try):
            for child in stmt.body + stmt.orelse + stmt.finalbody:
                self._stmt(child)
            for handler in stmt.handlers:
                if handler.type is not None:
                    self._expr(handler.type)
                if handler.name:
                    self._assigned.add(handler.name)
                for child in handler.body:
                    self._stmt(child)
            return
        if isinstance(stmt, ast.Global):
            self._declared_global.update(stmt.names)
            return
        if isinstance(stmt, ast.Nonlocal):
            self._declared_nonlocal.update(stmt.names)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._return(stmt.value)
            return
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value, stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign([stmt.target], stmt.value, stmt)
            elif isinstance(stmt.target, ast.Name):
                self._assigned.add(stmt.target.id)
            return
        if isinstance(stmt, ast.AugAssign):
            root = _root_name(stmt.target)
            if root is not None and not isinstance(stmt.target, ast.Name):
                self._mutations.append(
                    Mutation(root, "augassign", stmt.lineno, stmt.col_offset)
                )
            elif isinstance(stmt.target, ast.Name):
                # ``x += ...`` rebinding also mutates ndarrays in place.
                self._mutations.append(
                    Mutation(
                        stmt.target.id, "augassign", stmt.lineno, stmt.col_offset
                    )
                )
                self._assigned.add(stmt.target.id)
                self._loaded.add(stmt.target.id)
            self._maybe_global_write(stmt.target, stmt)
            self._expr(stmt.value)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                root = _root_name(target)
                if root is not None and not isinstance(target, ast.Name):
                    self._mutations.append(
                        Mutation(root, "del", stmt.lineno, stmt.col_offset)
                    )
            return
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            return  # module-level imports handled by the builder
        # Generic statements: walk children, handling nested scopes.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.expr):
                self._expr(child)
            else:
                self._generic(child)

    def _generic(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.expr):
                self._expr(child)
            else:
                self._generic(child)

    # -- assignment / taint ----------------------------------------------

    def _assign(
        self,
        targets: Sequence[ast.expr],
        value: ast.expr,
        stmt: ast.stmt,
    ) -> None:
        simple_target: Optional[str] = None
        for target in targets:
            if isinstance(target, ast.Name):
                self._assigned.add(target.id)
                if len(targets) == 1:
                    simple_target = target.id
            else:
                root = _root_name(target)
                if root is not None:
                    kind = (
                        "subscript"
                        if isinstance(target, ast.Subscript)
                        else "attribute"
                    )
                    self._mutations.append(
                        Mutation(root, kind, stmt.lineno, stmt.col_offset)
                    )
                self._maybe_global_write(target, stmt)
                if isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            self._assigned.add(elt.id)

        # Record container builds: units = [ ...names... ] / listcomp.
        if simple_target is not None and isinstance(
            value, (ast.List, ast.Tuple, ast.ListComp, ast.GeneratorExp)
        ):
            names = self._embedded_names(value)
            if names:
                self._container_elems.append(
                    ContainerElem(simple_target, stmt.lineno, tuple(names))
                )

        # Taint propagation onto a simple name target.
        if simple_target is not None:
            if isinstance(value, ast.Call):
                kind = _classify_rng_call(value)
                if kind is not None:
                    self._rng_creations.append(
                        RngCreation(
                            value.lineno, value.col_offset, kind, simple_target
                        )
                    )
                    self._rng_vars.add(simple_target)
                    if kind == "unseeded":
                        self._tainted.add(simple_target)
                    else:
                        self._tainted.discard(simple_target)
                elif self._is_spawn(value):
                    receiver = _root_name(value.func)
                    self._rng_creations.append(
                        RngCreation(
                            value.lineno,
                            value.col_offset,
                            "spawn",
                            simple_target,
                            receiver=receiver,
                        )
                    )
                    self._rng_vars.add(simple_target)
                    if receiver in self._tainted:
                        self._tainted.add(simple_target)
                    else:
                        self._tainted.discard(simple_target)
            elif isinstance(value, ast.Name):
                self._aliases.append((simple_target, value.id))
                if value.id in self._rng_vars:
                    self._rng_vars.add(simple_target)
                if value.id in self._tainted:
                    self._tainted.add(simple_target)
                else:
                    self._tainted.discard(simple_target)

        self._expr(value, assigned_to=simple_target)

    @staticmethod
    def _is_spawn(node: ast.Call) -> bool:
        return (
            isinstance(node.func, ast.Attribute) and node.func.attr == "spawn"
        )

    def _embedded_names(self, node: ast.expr) -> List[str]:
        """Names referenced inside container elements (minus loop vars)."""
        loop_vars: set = set()
        elements: List[ast.expr] = []
        if isinstance(node, (ast.List, ast.Tuple)):
            elements = list(node.elts)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            elements = [node.elt]
            for gen in node.generators:
                for sub in ast.walk(gen.target):
                    if isinstance(sub, ast.Name):
                        loop_vars.add(sub.id)
        names: List[str] = []
        for element in elements:
            for sub in ast.walk(element):
                if (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and sub.id not in loop_vars
                    and sub.id not in names
                ):
                    names.append(sub.id)
        return names

    def _maybe_global_write(self, target: ast.expr, stmt: ast.stmt) -> None:
        root = _root_name(target)
        if root is None:
            return
        if isinstance(target, ast.Name) and root in self._declared_global:
            self._global_writes.append(
                GlobalWrite(root, "global", stmt.lineno, stmt.col_offset)
            )
        elif isinstance(target, ast.Name) and root in self._declared_nonlocal:
            self._global_writes.append(
                GlobalWrite(root, "nonlocal", stmt.lineno, stmt.col_offset)
            )
        elif not isinstance(target, ast.Name):
            # Attribute/subscript store whose root is a module-level
            # name (class or module object) rather than any local.
            if (
                root not in self._assigned
                and root in self.builder.module_level
            ):
                self._global_writes.append(
                    GlobalWrite(
                        root, "module-attr", stmt.lineno, stmt.col_offset
                    )
                )

    # -- expressions -----------------------------------------------------

    def _return(self, value: ast.expr) -> None:
        if isinstance(value, ast.Name):
            self._returns_names.append(value.id)
        elif isinstance(value, ast.Call):
            if _classify_rng_call(value) == "unseeded":
                self._returns_unseeded = True
        self._expr(value)

    def _expr(self, node: ast.expr, assigned_to: Optional[str] = None) -> None:
        if isinstance(node, ast.Lambda):
            self.builder.add_lambda(node, parent=self.out.qualname)
            return
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self._loaded.add(node.id)
            return
        if isinstance(node, ast.Call):
            self._call(node, assigned_to=assigned_to)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            # Comprehension scopes share our mutation/taint space well
            # enough for the analyses here; walk them inline.
            for gen in node.generators:
                self._expr(gen.iter)
                for sub in ast.walk(gen.target):
                    if isinstance(sub, ast.Name):
                        self._assigned.add(sub.id)
                for cond in gen.ifs:
                    self._expr(cond)
            if isinstance(node, ast.DictComp):
                self._expr(node.key)
                self._expr(node.value)
            else:
                self._expr(node.elt)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, (ast.keyword, ast.FormattedValue)):
                self._generic(child)

    # -- calls -----------------------------------------------------------

    def _arg_ref(self, node: ast.expr) -> Tuple[Optional[str], str]:
        """(reference, kind) for a call argument."""
        if isinstance(node, ast.Name):
            return node.id, "name"
        if isinstance(node, ast.Lambda):
            qual = self.builder.lambda_qualname(node, self.out.qualname)
            return qual, "lambda"
        dotted = dotted_name(node)
        if dotted is not None:
            return dotted, "attribute"
        return None, "other"

    def _call(self, node: ast.Call, assigned_to: Optional[str] = None) -> None:
        callee = dotted_name(node.func)
        if callee is None and isinstance(node.func, ast.Attribute):
            callee = f"<expr>.{node.func.attr}"
        callee = callee or "<expr>"

        arg_refs = []
        for arg in node.args:
            ref, _kind = self._arg_ref(arg)
            arg_refs.append(ref)
        kw_refs = []
        for kw in node.keywords:
            if kw.arg is None:
                continue
            ref, _kind = self._arg_ref(kw.value)
            kw_refs.append((kw.arg, ref))

        record = CallRecord(
            callee=callee,
            line=node.lineno,
            col=node.col_offset,
            arg_refs=tuple(arg_refs),
            kw_refs=tuple(kw_refs),
            assigned_to=assigned_to,
        )
        self._calls.append(record)

        self._classify_call(node, callee, record)

        # Walk arguments (registers lambdas as scopes, visits nested calls).
        self._expr(node.func) if not isinstance(
            node.func, (ast.Name, ast.Attribute)
        ) else self._visit_func_receiver(node.func)
        for arg in node.args:
            self._expr(arg)
        for kw in node.keywords:
            self._expr(kw.value)

    def _visit_func_receiver(self, func: ast.expr) -> None:
        # Mark loads inside the receiver chain (for free-name analysis).
        for sub in ast.walk(func):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                self._loaded.add(sub.id)
            elif isinstance(sub, ast.Call):
                self._call(sub)
                return

    def _classify_call(
        self, node: ast.Call, callee: str, record: CallRecord
    ) -> None:
        tail = callee.rsplit(".", 1)[-1]

        # RNG creation not bound to a name (e.g. used inline).
        kind = _classify_rng_call(node)
        if kind is not None and record.assigned_to is None:
            self._rng_creations.append(
                RngCreation(node.lineno, node.col_offset, kind)
            )

        # Stochastic method use.
        if isinstance(node.func, ast.Attribute) and tail in STOCHASTIC_METHODS:
            receiver_node = node.func.value
            receiver = dotted_name(receiver_node)
            if receiver is None and isinstance(receiver_node, ast.Call):
                if _classify_rng_call(receiver_node) == "unseeded":
                    receiver = "<unseeded>"
            if receiver is not None:
                self._stochastic.append(
                    StochasticUse(
                        receiver, tail, node.lineno, node.col_offset
                    )
                )

        # Mutating method on a receiver we can root.
        if isinstance(node.func, ast.Attribute) and tail in MUTATING_METHODS:
            root = _root_name(node.func.value)
            if root is not None:
                self._mutations.append(
                    Mutation(
                        root, f"method:{tail}", node.lineno, node.col_offset
                    )
                )

        # numpy out= aliasing: np.add(a, b, out=x) mutates x in place.
        for kw in node.keywords:
            if kw.arg == "out" and isinstance(kw.value, ast.Name):
                self._mutations.append(
                    Mutation(
                        kw.value.id, "out=", node.lineno, node.col_offset
                    )
                )

        # I/O calls.
        if callee in IO_DOTTED or (
            isinstance(node.func, ast.Attribute) and tail in IO_METHODS
        ):
            self._io.append(EffectCall(callee, node.lineno, node.col_offset))

        # Clock / entropy reads.
        if callee in CLOCK_ENTROPY_DOTTED:
            self._clock.append(
                EffectCall(callee, node.lineno, node.col_offset)
            )

        # Executor fan-out.
        if tail == "map" and isinstance(node.func, ast.Attribute):
            receiver = dotted_name(node.func.value) or ""
            if (
                receiver in EXECUTOR_RECEIVERS
                or receiver.split(".")[-1] == "executor"
            ):
                fn_ref, fn_kind = (
                    self._arg_ref(node.args[0]) if node.args else (None, "other")
                )
                items_ref = None
                if len(node.args) > 1 and isinstance(node.args[1], ast.Name):
                    items_ref = node.args[1].id
                self._executor_maps.append(
                    ExecutorMap(
                        node.lineno,
                        node.col_offset,
                        receiver,
                        fn_ref,
                        fn_kind,
                        items_ref,
                    )
                )

        # Stage registration.
        if tail == "Stage":
            fn_node: Optional[ast.expr] = None
            if len(node.args) >= 2:
                fn_node = node.args[1]
            for kw in node.keywords:
                if kw.arg == "fn":
                    fn_node = kw.value
            stage_name = None
            name_node: Optional[ast.expr] = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg == "name":
                    name_node = kw.value
            if isinstance(name_node, ast.Constant) and isinstance(
                name_node.value, str
            ):
                stage_name = name_node.value
            if fn_node is None:
                self._stage_refs.append(
                    StageRef(
                        node.lineno, node.col_offset, stage_name, None, "missing"
                    )
                )
            else:
                fn_ref, fn_kind = self._arg_ref(fn_node)
                self._stage_refs.append(
                    StageRef(
                        node.lineno, node.col_offset, stage_name, fn_ref, fn_kind
                    )
                )


import builtins as _builtins_module

_BUILTINS = frozenset(dir(_builtins_module))


class _ModuleBuilder:
    """Drives scope extraction over one module AST."""

    def __init__(self, module: str, path: str):
        self.module = module
        self.path = path
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, FunctionSummary] = {}
        self.module_level: set = set()
        self._pending: List[Tuple[ast.AST, Optional[str], Optional[str]]] = []

    def lambda_qualname(self, node: ast.Lambda, parent: str) -> str:
        return f"{parent}.<lambda:{node.lineno}:{node.col_offset}>"

    def add_lambda(self, node: ast.Lambda, parent: str) -> None:
        qual = self.lambda_qualname(node, parent)
        if qual in self.functions:
            return
        params = [a.arg for a in node.args.args + node.args.kwonlyargs]
        if node.args.vararg:
            params.append(node.args.vararg.arg)
        if node.args.kwarg:
            params.append(node.args.kwarg.arg)
        extractor = _ScopeExtractor(
            self,
            qualname=qual,
            name="<lambda>",
            params=params,
            parent=parent,
            is_lambda=True,
            line=node.lineno,
        )
        # Lambda bodies are a single expression; wrap as a return.
        ret = ast.Return(value=node.body)
        ast.copy_location(ret, node.body)
        self.functions[qual] = extractor.run([ret])

    def _normalize_parent(self, parent: Optional[str]) -> Optional[str]:
        """The module pseudo-scope is not a real parent for qualnames."""
        if parent == f"{self.module}.<module>":
            return None
        return parent

    def add_scope(
        self, node, parent: Optional[str], nested: bool = False
    ) -> None:
        parent = self._normalize_parent(parent)
        base = parent if parent is not None else self.module
        qual = f"{base}.{node.name}"
        params = self._params(node)
        extractor = _ScopeExtractor(
            self,
            qualname=qual,
            name=node.name,
            params=params,
            parent=parent,
            is_lambda=False,
            line=node.lineno,
        )
        summary = extractor.run(node.body)
        summary.is_nested = nested
        self.functions[qual] = summary

    def add_class(self, node: ast.ClassDef, parent: Optional[str]) -> None:
        parent = self._normalize_parent(parent)
        base = parent if parent is not None else self.module
        qual = f"{base}.{node.name}"
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.add_scope(stmt, parent=qual, nested=False)
            elif isinstance(stmt, ast.ClassDef):
                self.add_class(stmt, parent=qual)

    @staticmethod
    def _params(node) -> List[str]:
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        return params

    def build(self, tree: ast.Module) -> ModuleSummary:
        # First pass: module-level bindings (imports, defs, assignments),
        # so scope extraction can distinguish globals from free names.
        self.imports = module_imports(tree, self.module)
        self.module_level.update(self.imports)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_level.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                self.module_level.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            self.module_level.add(sub.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self.module_level.add(stmt.target.id)

        # Second pass: extract every scope.  The module body itself is a
        # pseudo-function so module-level Stage()/map() calls are seen.
        module_scope = _ScopeExtractor(
            self,
            qualname=f"{self.module}.<module>",
            name="<module>",
            params=(),
            parent=None,
            is_lambda=False,
            line=1,
        )
        body = [
            stmt
            for stmt in tree.body
        ]
        self.functions[f"{self.module}.<module>"] = module_scope.run(body)

        return ModuleSummary(
            module=self.module,
            path=self.path,
            imports=dict(self.imports),
            functions=dict(self.functions),
            module_level_names=tuple(sorted(self.module_level)),
        )


def summarize_tree(tree: ast.Module, path: str) -> ModuleSummary:
    """Compress one parsed module into a :class:`ModuleSummary`."""
    return _ModuleBuilder(module_name_for(path), path).build(tree)


def extract_noqa_directives(source: str) -> Tuple[NoqaDirective, ...]:
    """Every ``# repro: noqa`` comment in the file, with parsed codes.

    Tokenizes rather than regex-scanning raw lines so the directive
    text appearing inside a docstring or string literal (as it does in the
    rule table's own documentation) is not mistaken for a directive —
    that distinction is what keeps RPR014 free of false positives.
    """
    directives: List[NoqaDirective] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return ()
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(token.string)
        if match is None:
            continue
        codes = match.group(1)
        parsed = (
            None
            if codes is None
            else tuple(c.strip() for c in codes.split(",") if c.strip())
        )
        directives.append(NoqaDirective(token.start[0], parsed))
    return tuple(directives)
