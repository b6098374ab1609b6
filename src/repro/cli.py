"""Command-line interface for the CLEAR reproduction.

Workflow-shaped subcommands::

    python -m repro.cli generate --preset small --out corpus.npz
    python -m repro.cli fit --corpus corpus.npz --out deploy/ --exclude 3
    python -m repro.cli assign --system deploy/ --corpus corpus.npz --subject 3
    python -m repro.cli evaluate --system deploy/ --corpus corpus.npz --subject 3
    python -m repro.cli personalize --system deploy/ --corpus corpus.npz --subject 3
    python -m repro.cli check-model --input-shape 1,8,20 --pool-size 2,1
    python -m repro.cli check-determinism src/repro

(The tables/figures runner lives in ``python -m repro.experiments``.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis.dataflow.engine import add_arguments as add_analyzer_arguments
from .analysis.dataflow.engine import run_cli as run_analyzer

# Each handler imports what it runs, so the AST-only analyzer subcommand
# never loads the scientific stack.


def _cmd_generate(args: argparse.Namespace) -> int:
    from .datasets import WEMACConfig
    from .datasets.io import save_dataset
    from .scenarios import WEMACScenario

    if args.preset == "paper":
        config = WEMACConfig(seed=args.seed)
    else:
        config = getattr(WEMACConfig, args.preset)(seed=args.seed)
    print(f"generating corpus (preset={args.preset}, seed={args.seed})...")
    dataset = WEMACScenario(config).materialize()
    path = save_dataset(dataset, args.out)
    summary = dataset.summary()
    print(
        f"wrote {path}: {int(summary['num_subjects'])} subjects, "
        f"{int(summary['num_maps'])} feature maps"
    )
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from .core import CLEAR, CLEARConfig
    from .core.persistence import save_system
    from .datasets.io import load_dataset

    dataset = load_dataset(args.corpus)
    population = {
        s.subject_id: list(s.maps)
        for s in dataset.subjects
        if s.subject_id != args.exclude
    }
    clear_config = (
        CLEARConfig.paper(seed=args.seed)
        if args.config == "paper"
        else CLEARConfig.fast(seed=args.seed)
    )
    print(
        f"fitting CLEAR on {len(population)} subjects "
        f"(K={clear_config.num_clusters})..."
    )
    system = CLEAR(clear_config).fit(population)
    save_system(system, args.out)
    print(f"cluster sizes: {system.cluster_sizes()}")
    print(f"saved deployment bundle to {args.out}")
    return 0


def _user_maps(args):
    from .datasets.io import load_dataset

    dataset = load_dataset(args.corpus)
    record = dataset.subject(args.subject)
    return record


def _cmd_assign(args: argparse.Namespace) -> int:
    from .core.persistence import load_system

    system = load_system(args.system)
    record = _user_maps(args)
    result = system.assign_new_user(record.maps[: args.maps])
    scores = ", ".join(f"c{c}={s:.3f}" for c, s in sorted(result.scores.items()))
    print(
        f"subject {args.subject} -> cluster {result.cluster} "
        f"(margin {result.margin():.3f}; scores {scores})"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .core.persistence import load_system

    system = load_system(args.system)
    record = _user_maps(args)
    if args.cluster is None:
        cluster = system.assign_new_user(record.maps[: args.maps]).cluster
        test_maps = record.maps[args.maps :]
    else:
        cluster = args.cluster
        test_maps = list(record.maps)
    metrics = system.model_for(cluster).evaluate(test_maps)
    print(
        f"subject {args.subject} on cluster {cluster}: "
        f"accuracy {metrics['accuracy']:.2%}, F1 {metrics['f1']:.2%} "
        f"({len(test_maps)} maps)"
    )
    return 0


def _cmd_personalize(args: argparse.Namespace) -> int:
    from .core import split_new_user
    from .core.persistence import load_system

    system = load_system(args.system)
    record = _user_maps(args)
    split = split_new_user(
        record.maps, system.config, np.random.default_rng(args.seed)
    )
    cluster = system.assign_new_user(split.ca_maps).cluster
    before = system.model_for(cluster).evaluate(split.test_maps)
    tuned = system.personalize(split.ft_maps, cluster=cluster)
    after = tuned.evaluate(split.test_maps)
    print(f"subject {args.subject} -> cluster {cluster}")
    print(f"  before fine-tuning: accuracy {before['accuracy']:.2%}")
    print(
        f"  after fine-tuning with {len(split.ft_maps)} labelled maps: "
        f"accuracy {after['accuracy']:.2%}"
    )
    if args.out:
        from .nn.checkpoint import save_model

        path = save_model(tuned.model, Path(args.out))
        print(f"  personalized checkpoint written to {path}")
    return 0


def _int_tuple(text: str):
    """Parse '1,8,20' into (1, 8, 20) for shape-like CLI arguments."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _cmd_check_model(args: argparse.Namespace) -> int:
    """Statically validate a model graph — no forward pass, no training.

    Three sources, checked in this order: a checkpoint (.npz), an
    architecture JSON (``model_to_config`` format), or CNN-LSTM config
    flags.  Exits non-zero with a message naming the offending layer if
    the graph cannot run.
    """
    import json

    from .analysis.graph import validate_architecture, validate_config
    from .analysis.shapes import GraphValidationError
    from .core.config import ModelConfig

    input_shape = tuple(args.input_shape)
    try:
        if args.checkpoint:
            with np.load(args.checkpoint, allow_pickle=False) as data:
                config = json.loads(
                    bytes(data["__config__"].tobytes()).decode("utf-8")
                )
            report = validate_config(config, input_shape, dtype=args.dtype)
        elif args.arch_json:
            config = json.loads(Path(args.arch_json).read_text(encoding="utf-8"))
            report = validate_config(config, input_shape, dtype=args.dtype)
        else:
            model_config = ModelConfig(
                conv_filters=tuple(args.conv_filters),
                kernel_size=args.kernel_size,
                pool_size=tuple(args.pool_size),
                lstm_units=args.lstm_units,
                dropout=args.dropout,
                num_classes=args.num_classes,
                recurrent_cell=args.recurrent_cell,
                attention_readout=args.attention,
            )
            report = validate_architecture(
                input_shape, model_config, dtype=args.dtype
            )
    except (GraphValidationError, ValueError) as exc:
        print(f"model validation FAILED for input {input_shape}: {exc}")
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
        print(f"OK: graph is valid for input {input_shape}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="CLEAR cold-start emotion detection: workflow commands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic WEMAC corpus")
    p.add_argument("--preset", choices=["paper", "small", "tiny"], default="small")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output .npz path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fit", help="fit the CLEAR cloud stage")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="deployment directory")
    p.add_argument("--exclude", type=int, default=None, help="held-out subject id")
    p.add_argument("--config", choices=["fast", "paper"], default="fast")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("assign", help="cold-start cluster assignment")
    p.add_argument("--system", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--subject", type=int, required=True)
    p.add_argument("--maps", type=int, default=1, help="unlabeled maps to use")
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("evaluate", help="evaluate a cluster model on a subject")
    p.add_argument("--system", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--subject", type=int, required=True)
    p.add_argument("--cluster", type=int, default=None)
    p.add_argument("--maps", type=int, default=1)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "personalize", help="cold start + fine-tune for one subject"
    )
    p.add_argument("--system", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--subject", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="save the tuned checkpoint here")
    p.set_defaults(func=_cmd_personalize)

    p = sub.add_parser(
        "check-model",
        help="statically validate a model graph (shapes/dtypes/params) "
        "without running a forward pass",
    )
    p.add_argument(
        "--input-shape",
        type=_int_tuple,
        required=True,
        help="batch-less input shape, e.g. 1,123,20 for (C, F, W)",
    )
    p.add_argument("--checkpoint", default=None, help="validate a saved .npz model")
    p.add_argument(
        "--arch-json",
        default=None,
        help="validate an architecture JSON (model_to_config format)",
    )
    p.add_argument("--conv-filters", type=_int_tuple, default=(8, 16))
    p.add_argument("--kernel-size", type=int, default=3)
    p.add_argument("--pool-size", type=_int_tuple, default=(2, 1))
    p.add_argument("--lstm-units", type=int, default=32)
    p.add_argument("--dropout", type=float, default=0.25)
    p.add_argument("--num-classes", type=int, default=2)
    p.add_argument(
        "--recurrent-cell", choices=["lstm", "gru", "rnn"], default="lstm"
    )
    p.add_argument("--attention", action="store_true")
    p.add_argument(
        "--dtype",
        default="float64",
        help="input activation dtype for the dtype-propagation check",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=_cmd_check_model)

    p = sub.add_parser(
        "check-determinism",
        help="run every analyzer rule: per-file rules, interprocedural "
        "seed-flow, Stage purity contracts, cross-process hazards",
    )
    add_analyzer_arguments(p)
    p.set_defaults(func=run_analyzer)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
