"""repro.runtime: deterministic parallel execution + content-addressed caching.

The repo's horizontal-scaling layer.  Two primitives:

* :class:`Executor` (:class:`SerialExecutor` /
  :class:`ParallelExecutor`) — fans independent work units (LOSO
  folds, per-cluster pre-training, k-means restarts, per-subject
  feature extraction) across processes with results **bit-identical**
  to serial execution, because every unit carries its own
  ``SeedSequence``-spawned RNG seed.
* :class:`ContentCache` — SHA-256 content-addressed on-disk cache for
  extracted feature maps and trained fold checkpoints, with typed
  :class:`~repro.errors.CacheError` failures and hit/miss counters
  attributed to each pipeline stage's
  :class:`~repro.orchestration.provenance.Provenance`.

Lint rule RPR008 keeps all ``multiprocessing`` / ``concurrent.futures``
imports inside this package, so every fan-out in the codebase is
forced through the executor abstraction.
"""

from .cache import (
    CacheStats,
    ContentCache,
    checkpoint_cache,
    content_key,
    feature_map_cache,
)
from .executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    resolve_mp_context,
    spawn_seeds,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "resolve_mp_context",
    "spawn_seeds",
    "ContentCache",
    "CacheStats",
    "content_key",
    "feature_map_cache",
    "checkpoint_cache",
]
