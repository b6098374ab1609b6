"""Model checkpointing: architecture as JSON, weights as .npz.

A checkpoint is a single ``.npz`` file containing every parameter
array, the architecture config serialized to JSON, and a SHA-256
content checksum.  This mirrors the paper's workflow of saving the
best-performing cluster checkpoints on the cloud and shipping them to
edge devices — a shipment that can be truncated or bit-flipped in
transit, which is why :func:`load_model` verifies the checksum and
raises a typed :class:`~repro.errors.CheckpointError` (never a bare
``KeyError`` or ``zipfile.BadZipFile``) on any malformed file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from ..errors import CheckpointError
from .layers import LAYER_REGISTRY
from .model import Sequential

#: Reserved array names inside a checkpoint .npz (not layer tensors).
CONFIG_KEY = "__config__"
CHECKSUM_KEY = "__checksum__"


def model_to_config(model: Sequential) -> dict:
    """Serializable architecture description.

    Returns ``{"layers": [{"class", "config"}, ...]}``; parameters are
    backend-independent ``float64``.
    """
    layers = []
    for layer in model.layers:
        entry = {"class": type(layer).__name__, "config": layer.get_config()}
        layers.append(entry)
    return {"layers": layers}


def model_from_config(config, seed: int = 0) -> Sequential:
    """Rebuild an (unbuilt) model from :func:`model_to_config` output.

    Also accepts the legacy bare list of layer entries, and ignores the
    ``"backend"`` entry older checkpoints recorded: every model runs on
    the one runtime backend.
    """
    entries = config["layers"] if isinstance(config, dict) else config
    layers = []
    for entry in entries:
        cls_name = entry["class"]
        if cls_name not in LAYER_REGISTRY:
            raise ValueError(f"unknown layer class in checkpoint: {cls_name!r}")
        cls = LAYER_REGISTRY[cls_name]
        kwargs = dict(entry["config"])
        # JSON turns tuples into lists; constructors accept both.
        layers.append(cls(**kwargs))
    return Sequential(layers, seed=seed)


def compute_checksum(arrays: Dict[str, np.ndarray]) -> str:
    """SHA-256 over every array's name, dtype, shape, and raw bytes.

    The :data:`CHECKSUM_KEY` entry itself is excluded so the digest can
    be recomputed from a loaded checkpoint and compared to the stored
    value.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        if name == CHECKSUM_KEY:
            continue
        value = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(value.dtype).encode("ascii"))
        digest.update(str(value.shape).encode("ascii"))
        digest.update(value.tobytes())
    return digest.hexdigest()


def model_arrays(model: Sequential) -> Dict[str, np.ndarray]:
    """The arrays a checkpoint holds for ``model``, checksum aside:
    the architecture config and every parameter."""
    arrays = {CONFIG_KEY: np.frombuffer(
        json.dumps(model_to_config(model)).encode("utf-8"), dtype=np.uint8
    )}
    for i, layer in enumerate(model.layers):
        for key, value in layer.params.items():
            arrays[f"param/{i}/{key}"] = value
    return arrays


def save_model(model: Sequential, path: Union[str, Path]) -> Path:
    """Write the model architecture + weights to ``path`` (.npz)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    arrays = model_arrays(model)
    arrays[CHECKSUM_KEY] = np.frombuffer(
        compute_checksum(arrays).encode("ascii"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)
    return path


def _load_verified_arrays(path: Path) -> Dict[str, np.ndarray]:
    """Read every array out of the .npz and verify its stored checksum."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except Exception as exc:  # BadZipFile, OSError, ValueError, ...
        raise CheckpointError(
            f"checkpoint {path} is unreadable or corrupt: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if CONFIG_KEY not in arrays:
        raise CheckpointError(
            f"checkpoint {path} has no architecture config entry "
            f"({CONFIG_KEY!r}); not a repro checkpoint or badly truncated"
        )
    if CHECKSUM_KEY in arrays:
        stored = bytes(arrays[CHECKSUM_KEY].tobytes()).decode(
            "ascii", errors="replace"
        )
        actual = compute_checksum(arrays)
        if stored != actual:
            raise CheckpointError(
                f"checkpoint {path} failed checksum verification "
                f"(stored {stored[:12]}…, recomputed {actual[:12]}…); "
                f"the file was corrupted after saving"
            )
    return arrays


def load_model(path: Union[str, Path], seed: int = 0) -> Sequential:
    """Load a model saved by :func:`save_model`; ready for inference.

    The returned model still needs :meth:`Sequential.compile` before
    further training (the optimizer is not checkpointed).

    Raises
    ------
    CheckpointError
        If the file is missing, not a valid ``.npz``, missing its
        architecture entry, fails checksum verification, or its config
        / tensors cannot be decoded.  Checkpoints written before
        checksums existed (no :data:`CHECKSUM_KEY` entry) still load.
    """
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint {path} does not exist")
    arrays = _load_verified_arrays(path)
    try:
        config = json.loads(
            bytes(arrays[CONFIG_KEY].tobytes()).decode("utf-8")
        )
        model = model_from_config(config, seed=seed)
        # Group arrays per layer index.
        params: dict = {}
        for name, value in arrays.items():
            if name in (CONFIG_KEY, CHECKSUM_KEY):
                continue
            kind, idx, key = name.split("/", 2)
            if kind == "param":
                params.setdefault(int(idx), {})[key] = value
        for idx, layer in enumerate(model.layers):
            if idx in params:
                for key, value in params[idx].items():
                    layer.params[key] = np.asarray(value, dtype=np.float64)
                layer.zero_grads()
                layer.built = True
    except CheckpointError:
        raise
    except Exception as exc:  # JSONDecodeError, KeyError, ValueError, ...
        raise CheckpointError(
            f"checkpoint {path} could not be decoded: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return model
