"""Stage purity verification (rules RPR010–RPR013).

Every function registered as an ``orchestration.Stage`` is a link in a
provenance chain: the pipeline graph digests its inputs and output and
assumes the function computed the latter *only* from the former.  That
assumption breaks silently if a stage mutates an input artifact
(upstream digests no longer describe what downstream stages saw),
writes global state (hidden channel between stages), performs its own
I/O (bypasses the content-addressed cache and its hit/miss
provenance), or reads wall-clock/OS entropy (same inputs, different
output).  This pass statically proves the absence of those four effect
classes for every stage function it can resolve:

RPR010
    In-place mutation of a stage input parameter — ``list.append`` /
    ``dict.__setitem__`` / attribute stores / augmented assignment /
    numpy ``out=`` aliasing on any declared input.
RPR011
    Assignment through ``global`` / ``nonlocal``, or attribute stores
    on module-level objects.
RPR012
    Direct file/OS I/O (``open``, ``np.save``, ``pickle.dump``,
    ``Path.write_text``, …).  Cache traffic must go through the
    injected ``StageContext`` helpers, which record hit/miss counts
    into provenance.
RPR013
    Wall-clock or OS-entropy reads (``time.time``, ``datetime.now``,
    ``os.urandom``, ``uuid.uuid4``, stdlib ``random``) and unseeded
    generator creation.  ``time.perf_counter`` is exempt: duration
    measurement is sanctioned as long as timings stay out of content
    digests (the ``__repro_content__`` convention).

The check covers the stage function body plus same-module helpers it
calls (to a small depth); imported library calls are the trusted API
boundary.  The ``ctx`` (first) parameter is exempt from RPR010 — the
``StageContext`` is *designed* to be written through
(``record_cache`` / ``set_units``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..lint import Finding
from .callgraph import CallGraph
from .summaries import FunctionSummary

#: How many call-levels of same-module helpers the checker follows.
HELPER_DEPTH = 3


@dataclass(frozen=True)
class StageBinding:
    """One resolved Stage registration: the fn and where it was bound."""

    stage_name: str
    fn: FunctionSummary
    registered_at: Tuple[str, int]  # (path, line)


def resolve_stage_bindings(graph: CallGraph) -> List[StageBinding]:
    """Every ``Stage(...)`` call whose fn resolves to a summary."""
    bindings: List[StageBinding] = []
    for scope in graph.iter_functions():
        for ref in scope.stage_refs:
            fn = graph.resolve_ref(scope, ref.fn_ref)
            if fn is None:
                continue
            bindings.append(
                StageBinding(
                    stage_name=ref.stage_name or fn.name,
                    fn=fn,
                    registered_at=(scope.path, ref.line),
                )
            )
    return bindings


def _same_module_callees(
    graph: CallGraph, fn: FunctionSummary
) -> Iterator[FunctionSummary]:
    for call in fn.calls:
        target = graph.resolve_call(fn, call)
        if target is not None and target.module == fn.module:
            yield target


def _reachable_helpers(
    graph: CallGraph, fn: FunctionSummary, depth: int = HELPER_DEPTH
) -> List[FunctionSummary]:
    """The stage fn plus same-module helpers reachable within ``depth``."""
    seen: Dict[str, FunctionSummary] = {fn.qualname: fn}
    frontier = [fn]
    for _ in range(depth):
        next_frontier: List[FunctionSummary] = []
        for current in frontier:
            for callee in _same_module_callees(graph, current):
                if callee.qualname not in seen:
                    seen[callee.qualname] = callee
                    next_frontier.append(callee)
        frontier = next_frontier
        if not frontier:
            break
    return list(seen.values())


def _param_aliases(fn: FunctionSummary, params: Set[str]) -> Set[str]:
    """Params plus local names that alias them via simple assignment."""
    names = set(params)
    for target, source in fn.aliases:
        if source in names:
            names.add(target)
    return names


def check_stage_purity(
    graph: CallGraph, bindings: Optional[List[StageBinding]] = None
) -> List[Finding]:
    """Purity findings for every resolved stage function."""
    if bindings is None:
        bindings = resolve_stage_bindings(graph)
    findings: List[Finding] = []
    checked: Set[Tuple[str, str]] = set()

    for binding in bindings:
        key = (binding.stage_name, binding.fn.qualname)
        if key in checked:
            continue
        checked.add(key)
        findings.extend(_check_one(graph, binding))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def _check_one(graph: CallGraph, binding: StageBinding) -> Iterator[Finding]:
    fn = binding.fn
    stage = binding.stage_name
    # The leading ctx parameter is the injected runtime handle; writes
    # through it (record_cache / set_units) are the sanctioned protocol.
    input_params = set(fn.params[1:]) if fn.params else set()

    # RPR010 — input mutation: only meaningful on the stage fn itself
    # (helpers receive whatever the stage passed; mutations of *their*
    # params are reported when the helper is itself a stage elsewhere).
    watched = _param_aliases(fn, input_params)
    for mutation in fn.mutations:
        if mutation.name in watched:
            yield Finding(
                path=fn.path,
                line=mutation.line,
                col=mutation.col + 1,
                code="RPR010",
                message=(
                    f"stage {stage!r} mutates its input "
                    f"{mutation.name!r} in place ({mutation.kind}); stage "
                    f"inputs are digested before execution — copy before "
                    f"modifying so upstream provenance stays truthful"
                ),
            )

    for member in _reachable_helpers(graph, fn):
        suffix = (
            ""
            if member.qualname == fn.qualname
            else f" (via helper {member.name}())"
        )
        for write in member.global_writes:
            yield Finding(
                path=member.path,
                line=write.line,
                col=write.col + 1,
                code="RPR011",
                message=(
                    f"stage {stage!r} writes {write.kind} state "
                    f"{write.name!r}{suffix}; stages must communicate only "
                    f"through declared artifacts"
                ),
            )
        for io in member.io_calls:
            yield Finding(
                path=member.path,
                line=io.line,
                col=io.col + 1,
                code="RPR012",
                message=(
                    f"stage {stage!r} performs direct I/O via "
                    f"{io.callee}(){suffix}; persistence must go through "
                    f"the injected StageContext cache helpers so traffic "
                    f"lands in provenance"
                ),
            )
        for clock in member.clock_calls:
            yield Finding(
                path=member.path,
                line=clock.line,
                col=clock.col + 1,
                code="RPR013",
                message=(
                    f"stage {stage!r} reads wall-clock/OS entropy via "
                    f"{clock.callee}(){suffix}; same inputs must produce "
                    f"the same artifact — inject time through config and "
                    f"randomness through the stage seed"
                ),
            )
        for creation in member.rng_creations:
            if creation.kind == "unseeded":
                yield Finding(
                    path=member.path,
                    line=creation.line,
                    col=creation.col + 1,
                    code="RPR013",
                    message=(
                        f"stage {stage!r} creates an OS-entropy RNG"
                        f"{suffix}; derive generators from the stage seed "
                        f"(ctx.seed) so reruns reproduce bit-identically"
                    ),
                )
