"""Tests for model checkpointing (save/load roundtrips + corruption)."""

import json

import numpy as np
import pytest

from repro import nn
from repro.errors import CheckpointError, ResilienceError
from repro.nn.checkpoint import (
    CHECKSUM_KEY,
    CONFIG_KEY,
    compute_checksum,
    model_from_config,
    model_to_config,
)


def make_cnn_lstm(seed=0):
    return nn.Sequential(
        [
            nn.Conv2D(4, 3, padding="same", name="c1"),
            nn.ReLU(name="r1"),
            nn.MaxPool2D(2, name="p1"),
            nn.Conv2D(8, 3, padding="same", name="c2"),
            nn.ReLU(name="r2"),
            nn.MaxPool2D(2, name="p2"),
            nn.ToSequence(name="seq"),
            nn.LSTM(16, name="lstm"),
            nn.Dense(2, name="head"),
        ],
        seed=seed,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(13)


class TestConfigRoundtrip:
    def test_architecture_preserved(self):
        model = make_cnn_lstm()
        rebuilt = model_from_config(model_to_config(model))
        assert [type(l).__name__ for l in rebuilt.layers] == [
            type(l).__name__ for l in model.layers
        ]
        assert rebuilt.layers[0].filters == 4
        assert rebuilt.layers[7].units == 16

    def test_unknown_layer_raises(self):
        with pytest.raises(ValueError, match="unknown layer class"):
            model_from_config([{"class": "MadeUp", "config": {}}])


class TestSaveLoad:
    def test_predictions_identical_after_roundtrip(self, rng, tmp_path):
        model = make_cnn_lstm().compile(nn.SoftmaxCrossEntropy(), nn.Adam(0.01))
        x = rng.normal(size=(6, 1, 12, 8))
        y = rng.integers(0, 2, 6)
        model.fit(x, y, epochs=3, batch_size=4)
        before = model.predict(x)

        path = nn.save_model(model, tmp_path / "ckpt")
        assert path.suffix == ".npz"
        loaded = nn.load_model(path)
        np.testing.assert_allclose(loaded.predict(x), before, atol=1e-12)

    def test_loaded_model_can_finetune(self, rng, tmp_path):
        model = make_cnn_lstm().compile(nn.SoftmaxCrossEntropy(), nn.Adam(0.01))
        x = rng.normal(size=(8, 1, 12, 8))
        y = (x.mean(axis=(1, 2, 3)) > 0).astype(int)
        model.fit(x, y, epochs=2, batch_size=4)
        nn.save_model(model, tmp_path / "ckpt.npz")

        loaded = nn.load_model(tmp_path / "ckpt.npz")
        loaded.compile(nn.SoftmaxCrossEntropy(), nn.Adam(0.01))
        history = loaded.fit(x, y, epochs=3, batch_size=4)
        assert len(history.epochs) == 3

    def test_batchnorm_checkpoint_rejected(self, tmp_path):
        """A checksum-valid checkpoint naming a layer class this package
        does not have (BatchNorm, with its running-stat state entries)
        fails with a typed error, not a half-loaded model."""
        config = {"layers": [{"class": "BatchNorm", "config": {"name": "bn"}}]}
        arrays = {
            CONFIG_KEY: np.frombuffer(json.dumps(config).encode(), dtype=np.uint8),
            "param/0/gamma": np.ones(4),
            "param/0/beta": np.zeros(4),
            "state/0/running_mean": np.zeros(4),
            "state/0/running_var": np.ones(4),
        }
        arrays[CHECKSUM_KEY] = np.frombuffer(
            compute_checksum(arrays).encode("ascii"), dtype=np.uint8
        )
        path = tmp_path / "bn.npz"
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="unknown layer class"):
            nn.load_model(path)

    def test_suffix_appended(self, tmp_path):
        model = nn.Sequential([nn.Dense(2)])
        model.build((3,))
        path = nn.save_model(model, tmp_path / "noext")
        assert path.name == "noext.npz"

    def test_nested_directory_created(self, tmp_path):
        model = nn.Sequential([nn.Dense(2)])
        model.build((3,))
        path = nn.save_model(model, tmp_path / "a" / "b" / "ckpt.npz")
        assert path.exists()


class TestCorruptCheckpoints:
    """load_model on a bad file raises typed CheckpointError, never a
    bare KeyError / zipfile.BadZipFile / json.JSONDecodeError."""

    @pytest.fixture
    def saved(self, tmp_path):
        model = nn.Sequential([nn.Dense(4, name="d"), nn.Dense(2)], seed=0)
        model.build((3,))
        return nn.save_model(model, tmp_path / "ckpt.npz")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="nowhere.npz"):
            nn.load_model(tmp_path / "nowhere.npz")

    def test_truncated_file(self, saved):
        raw = saved.read_bytes()
        saved.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match=str(saved)):
            nn.load_model(saved)

    def test_bitflipped_file_fails_checksum(self, saved):
        raw = bytearray(saved.read_bytes())
        # savez stores uncompressed: flip bytes mid-file to hit tensor
        # data without destroying the zip directory.
        for offset in range(len(raw) // 2, len(raw) // 2 + 8):
            raw[offset] ^= 0xFF
        saved.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=str(saved)):
            nn.load_model(saved)

    def test_garbage_file(self, saved):
        saved.write_bytes(b"this was never an npz checkpoint")
        with pytest.raises(CheckpointError, match="unreadable or corrupt"):
            nn.load_model(saved)

    def test_npz_without_config_entry(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, weights=np.ones(3))
        with pytest.raises(CheckpointError, match="no architecture config"):
            nn.load_model(path)

    def test_error_is_typed_resilience_error(self, tmp_path):
        with pytest.raises(ResilienceError):
            nn.load_model(tmp_path / "missing.npz")

    def test_checksum_mismatch_reported(self, saved):
        with np.load(saved, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        target = next(n for n in arrays if n.startswith("param/"))
        arrays[target] = arrays[target] + 1.0
        np.savez(saved, **arrays)
        with pytest.raises(CheckpointError, match="checksum"):
            nn.load_model(saved)

    def test_checksum_skippable_for_legacy_checkpoints(self, saved):
        # Pre-checksum checkpoints (no CHECKSUM_KEY) must still load.
        with np.load(saved, allow_pickle=False) as data:
            arrays = {
                name: data[name]
                for name in data.files
                if name != CHECKSUM_KEY
            }
        np.savez(saved, **arrays)
        model = nn.load_model(saved)
        assert len(model.layers) == 2

    def test_compute_checksum_ignores_checksum_entry(self):
        arrays = {"param/0/w": np.arange(4.0)}
        digest = compute_checksum(arrays)
        arrays[CHECKSUM_KEY] = np.frombuffer(
            digest.encode("ascii"), dtype=np.uint8
        )
        assert compute_checksum(arrays) == digest
