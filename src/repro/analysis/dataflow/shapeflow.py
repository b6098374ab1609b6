"""Artifact shape/dtype flow checking for pipeline graphs.

:mod:`repro.analysis.shapes` proves a *layer stack* consistent before
any forward pass; this module lifts the same idea one level up, to the
:class:`~repro.orchestration.graph.PipelineGraph`: stages may declare
what they produce (``output_spec``) and what they require
(``input_specs``), and :func:`check_stage_flow` proves every declared
edge compatible at graph *build* time — before a single stage runs.

Declarations are optional and independently useful: an undeclared side
of an edge is simply not checked (vacuously compatible), so existing
graphs keep working unchanged and specs can be added incrementally
where mismatches hurt most (feature-map shape into clustering, window
shape into the CNN-LSTM).

Wildcards: a dimension of ``None`` matches anything (batch/fold counts
that depend on the dataset), and a dtype of ``None`` matches any dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...errors import OrchestrationError

DimSpec = Optional[int]


class ArtifactFlowError(OrchestrationError):
    """A declared artifact edge is statically incompatible.

    Carries the producing and consuming stage names plus both specs, so
    callers (and tests) can assert on the exact edge rather than parse
    the message.  Subclasses :class:`~repro.errors.OrchestrationError`:
    a mismatched edge is a malformed graph.
    """

    def __init__(
        self,
        message: str,
        *,
        artifact: str,
        producer: str,
        consumer: str,
        produced: "ArtifactSpec",
        required: "ArtifactSpec",
    ):
        self.artifact = artifact
        self.producer = producer
        self.consumer = consumer
        self.produced = produced
        self.required = required
        super().__init__(
            f"artifact {artifact!r}: stage {producer!r} produces "
            f"{produced}, but stage {consumer!r} requires {required} "
            f"— {message}"
        )


@dataclass(frozen=True)
class ArtifactSpec:
    """A symbolic artifact contract: shape with wildcards, plus dtype.

    ``shape=None`` means "any shape" (only the dtype is constrained);
    a dimension of ``None`` is a wildcard; ``dtype=None`` means "any
    dtype".  ``ArtifactSpec()`` therefore matches everything.
    """

    shape: Optional[Tuple[DimSpec, ...]] = None
    dtype: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shape is not None:
            object.__setattr__(
                self,
                "shape",
                tuple(None if s is None else int(s) for s in self.shape),
            )

    def __str__(self) -> str:
        shape = (
            "(*)"
            if self.shape is None
            else "("
            + ", ".join("?" if s is None else str(s) for s in self.shape)
            + ("," if len(self.shape) == 1 else "")
            + ")"
        )
        return f"{shape}:{self.dtype or '*'}"


def _specs_compatible(
    produced: ArtifactSpec, required: ArtifactSpec
) -> Optional[str]:
    """Why ``produced`` cannot satisfy ``required``, or None if it can."""
    if produced.shape is not None and required.shape is not None:
        if len(produced.shape) != len(required.shape):
            return (
                f"rank mismatch ({len(produced.shape)} vs "
                f"{len(required.shape)})"
            )
        for axis, (have, want) in enumerate(
            zip(produced.shape, required.shape)
        ):
            if have is not None and want is not None and have != want:
                return f"axis {axis} mismatch ({have} vs {want})"
    if (
        produced.dtype is not None
        and required.dtype is not None
        and produced.dtype != required.dtype
    ):
        return f"dtype mismatch ({produced.dtype} vs {required.dtype})"
    return None


def _spec_of_output(stage) -> Optional[ArtifactSpec]:
    return getattr(stage, "output_spec", None)


def _specs_of_inputs(stage) -> dict:
    return getattr(stage, "input_specs", None) or {}


def check_stage_flow(stages: Sequence) -> List[Tuple[str, str, str]]:
    """Verify every declared artifact edge among ``stages``.

    ``stages`` duck-types :class:`~repro.orchestration.stage.Stage`
    (``name`` / ``requires`` / ``provides`` plus the optional spec
    fields).  Artifacts the caller supplies to :meth:`PipelineGraph.run`
    directly carry no spec, so their edges pass vacuously.

    Returns the list of checked edges ``(producer, consumer, artifact)``
    — useful for asserting coverage — and raises
    :class:`ArtifactFlowError` on the first incompatible edge, naming
    both stages.
    """
    producers = {}
    produced_specs = {}
    for stage in stages:
        producers[stage.provides] = stage.name
        spec = _spec_of_output(stage)
        if spec is not None:
            produced_specs[stage.provides] = spec

    checked: List[Tuple[str, str, str]] = []
    for stage in stages:
        for artifact, required in _specs_of_inputs(stage).items():
            if artifact not in stage.requires:
                raise OrchestrationError(
                    f"stage {stage.name!r} declares an input spec for "
                    f"{artifact!r}, which is not in its requires tuple"
                )
            produced = produced_specs.get(artifact)
            if produced is None:
                continue  # producer undeclared: vacuously compatible
            producer = producers[artifact]
            checked.append((producer, stage.name, artifact))
            reason = _specs_compatible(produced, required)
            if reason is not None:
                raise ArtifactFlowError(
                    reason,
                    artifact=artifact,
                    producer=producer,
                    consumer=stage.name,
                    produced=produced,
                    required=required,
                )
    return checked
