"""Typed pipeline stages and the context they execute in.

A :class:`Stage` wraps a pure function: declared input artifact names
in, one output artifact out.  The function never constructs executors,
caches, or timing machinery itself — it receives a
:class:`StageContext` carrying the runtime injected once by the
:class:`~repro.orchestration.graph.PipelineGraph` at the stage
boundary, and reports its cache traffic / unit count back through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import OrchestrationError
from ..runtime.executor import Executor


@dataclass
class StageContext:
    """Runtime handed to a stage function by the executing graph.

    Attributes
    ----------
    executor:
        The run's executor; stage functions fan work units through it.
    cache_dir:
        Root of the content-addressed runtime cache (``None`` disables
        caching), as a plain string so it pickles into work units.
    seed:
        The run's base seed, if the caller provided one.
    seed_path:
        Seed-sequence path of the executing stage (its topological
        index), recorded into the output artifact's provenance.
    """

    executor: Executor
    cache_dir: Optional[str] = None
    seed: Optional[int] = None
    seed_path: Tuple[int, ...] = ()
    _cache_hits: int = field(default=0, repr=False)
    _cache_misses: int = field(default=0, repr=False)
    _units: int = field(default=0, repr=False)

    def record_cache(self, hits: int, misses: int) -> None:
        """Attribute runtime-cache traffic to the executing stage."""
        self._cache_hits += int(hits)
        self._cache_misses += int(misses)

    def set_units(self, units: int) -> None:
        """Declare how many work units the stage dispatched."""
        self._units = int(units)


@dataclass
class Stage:
    """One named, pure pipeline step.

    Attributes
    ----------
    name:
        Unique stage name within its graph.
    fn:
        ``fn(ctx, **inputs) -> value``; ``ctx`` is the
        :class:`StageContext`, ``inputs`` are the values of the
        artifacts named in ``requires``.
    requires:
        Input artifact names, in the order their digests appear in the
        output artifact's provenance.
    provides:
        Name of the artifact the stage produces.
    config:
        The stage's configuration object; digested into provenance so
        a config change is visible in the lineage.
    seed:
        Stage-specific seed recorded in provenance (defaults to the
        graph run's seed).
    input_specs:
        Optional mapping of required artifact name to an
        :class:`~repro.analysis.dataflow.shapeflow.ArtifactSpec`
        contract; checked against the producer's ``output_spec`` when
        the stage is added to a graph.
    output_spec:
        Optional :class:`ArtifactSpec` contract for the produced
        artifact.

    If ``fn`` raises, the exception propagates and aborts the run.
    """

    name: str
    fn: Callable[..., Any]
    requires: Tuple[str, ...] = ()
    provides: str = ""
    config: Any = None
    seed: Optional[int] = None
    input_specs: Optional[Dict[str, Any]] = None
    output_spec: Optional[Any] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise OrchestrationError("stage needs a non-empty name")
        if not self.provides:
            self.provides = self.name
        self.requires = tuple(self.requires)

    def run(self, ctx: StageContext, inputs: Dict[str, Any]) -> Any:
        missing = [name for name in self.requires if name not in inputs]
        if missing:
            raise OrchestrationError(
                f"stage {self.name!r} is missing inputs {missing}"
            )
        return self.fn(ctx, **{name: inputs[name] for name in self.requires})
