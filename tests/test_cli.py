"""Tests for the workflow CLI (python -m repro.cli)."""

import pytest

from repro.cli import build_parser, main
from repro.datasets.io import save_dataset


@pytest.fixture(scope="module")
def corpus_path(tiny_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.npz"
    save_dataset(tiny_dataset, path)
    return path


@pytest.fixture(scope="module")
def system_dir(corpus_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "deploy"
    code = main(
        [
            "fit",
            "--corpus",
            str(corpus_path),
            "--out",
            str(out),
            "--exclude",
            "7",
            "--seed",
            "0",
        ]
    )
    assert code == 0
    return out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--preset", "tiny", "--out", "x.npz"]
        )
        assert args.preset == "tiny"
        assert args.func.__name__ == "cmd_generate"

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--preset", "huge", "--out", "x"])


class TestWorkflow:
    def test_generate(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "--preset",
                "tiny",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "c.npz"),
            ]
        )
        assert code == 0
        assert (tmp_path / "c.npz").exists()
        assert "subjects" in capsys.readouterr().out

    def test_fit_creates_bundle(self, system_dir):
        assert (system_dir / "manifest.json").exists()

    def test_assign(self, system_dir, corpus_path, capsys):
        code = main(
            [
                "assign",
                "--system",
                str(system_dir),
                "--corpus",
                str(corpus_path),
                "--subject",
                "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "subject 7 -> cluster" in out

    def test_evaluate(self, system_dir, corpus_path, capsys):
        code = main(
            [
                "evaluate",
                "--system",
                str(system_dir),
                "--corpus",
                str(corpus_path),
                "--subject",
                "7",
            ]
        )
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_evaluate_explicit_cluster(self, system_dir, corpus_path, capsys):
        code = main(
            [
                "evaluate",
                "--system",
                str(system_dir),
                "--corpus",
                str(corpus_path),
                "--subject",
                "7",
                "--cluster",
                "0",
            ]
        )
        assert code == 0
        assert "cluster 0" in capsys.readouterr().out

    def test_personalize(self, system_dir, corpus_path, tmp_path, capsys):
        code = main(
            [
                "personalize",
                "--system",
                str(system_dir),
                "--corpus",
                str(corpus_path),
                "--subject",
                "7",
                "--out",
                str(tmp_path / "tuned.npz"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "before fine-tuning" in out
        assert (tmp_path / "tuned.npz").exists()


class TestCheckModel:
    """`repro check-model`: static validation, no forward pass."""

    def test_valid_config_exits_zero(self, capsys):
        code = main(["check-model", "--input-shape", "1,8,20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out and "total params" in out

    def test_misshaped_config_rejected_naming_layer(self, capsys):
        code = main(
            [
                "check-model",
                "--input-shape",
                "1,6,20",
                "--pool-size",
                "4,1",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "pool2" in out

    def test_json_report(self, capsys):
        import json

        code = main(["check-model", "--input-shape", "1,8,20", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["output_shape"] == [2]
        assert payload["total_params"] > 0
        assert set(payload["footprint_bytes"]) == {"fp64", "fp32", "fp16", "int8"}

    def test_reduced_precision_input_warns(self, capsys):
        code = main(
            ["check-model", "--input-shape", "1,8,20", "--dtype", "float16"]
        )
        assert code == 0
        assert "casts float16" in capsys.readouterr().out

    def test_checkpoint_validation(self, tmp_path, capsys):
        from repro.core.architecture import build_cnn_lstm
        from repro.nn.checkpoint import save_model

        model = build_cnn_lstm((1, 8, 12))
        path = save_model(model, tmp_path / "model.npz")
        code = main(
            ["check-model", "--input-shape", "1,8,12", "--checkpoint", str(path)]
        )
        assert code == 0
        # The same checkpoint cannot run on a shrunken feature axis.
        code = main(
            ["check-model", "--input-shape", "1,2,12", "--checkpoint", str(path)]
        )
        assert code == 1
        assert "pool2" in capsys.readouterr().out

    def test_arch_json_validation(self, tmp_path, capsys):
        import json

        arch = [
            {"class": "Flatten", "config": {"name": "flat"}},
            {"class": "LSTM", "config": {"name": "rec", "units": 4}},
        ]
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(arch))
        code = main(
            ["check-model", "--input-shape", "2,3,4", "--arch-json", str(path)]
        )
        assert code == 1
        assert "rec" in capsys.readouterr().out

        # A layer class the package does not have fails cleanly.
        path.write_text(json.dumps([{"class": "BatchNorm", "config": {"name": "bn"}}]))
        code = main(
            ["check-model", "--input-shape", "2,3,4", "--arch-json", str(path)]
        )
        assert code == 1
        assert "unknown layer class" in capsys.readouterr().out

    def test_bad_shape_argument_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check-model", "--input-shape", "1,x,20"])
