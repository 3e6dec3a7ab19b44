"""Command-line entry points: gen, train, encode, eval, compare.

Each subcommand exits 0 on success; any failure prints a one-line
`error: ...` diagnostic to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import sys

from ..codes import load_codes, save_codes
from ..network import check_checkpoint_fields, load_checkpoint, quantization_error, save_checkpoint, train
from ..retrieval import RetrievalIndex, format_report, mean_ap
from .config import _DEFAULTS, GENERATOR_KEYS, load_config, parse_eval_k
from .data import gen_synthetic, load_features, load_labels, save_splits, single_labels
from .experiment import encode_dataset, format_experiment_report, run_experiment, seed_setup


def _cmd_gen(args) -> int:
    dataset = gen_synthetic(seed=args.seed, **{key: getattr(args, key) for key in GENERATOR_KEYS})
    for path in save_splits(args.out, dataset):
        print(path)
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    dataset, net_cfg, train_cfg = seed_setup(cfg, cfg.seeds[0] if args.seed is None else args.seed)
    check_checkpoint_fields(net_cfg, train_cfg.schedule)
    feats, label_sets = dataset.subset(dataset.train_ids)

    def report(net, entry):
        print(
            f"epoch {entry.epoch:<3d} k {entry.k:<2d} lr {entry.lr:.8f} "
            f"loss {entry.loss:.6f} quant_error {quantization_error(net, feats, entry.k):.6f}"
        )

    net, _ = train(net_cfg, train_cfg, feats, single_labels(label_sets), ternary=True, epoch_hook=report)
    save_checkpoint(args.out, net, train_cfg.schedule)
    print(args.out)
    return 0


def _cmd_encode(args) -> int:
    net, _ = load_checkpoint(args.checkpoint)
    features = load_features(args.features)
    if features.shape[1] != net.config.input_dim:
        raise ValueError(f"features have dim {features.shape[1]}, checkpoint expects {net.config.input_dim}")
    save_codes(args.out, encode_dataset(net, features))
    print(args.out)
    return 0


def _cmd_eval(args) -> int:
    index = RetrievalIndex(codes=load_codes(args.codes), labels=load_labels(args.labels))
    report = mean_ap(
        index,
        load_codes(args.query_codes),
        load_labels(args.query_labels),
        parse_eval_k(args.k),
        normalization=args.normalization,
    )
    sys.stdout.write(format_report(report))
    return 0


def _cmd_compare(args) -> int:
    result = run_experiment(load_config(args.config))
    text = format_experiment_report(result)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternhash",
        description="Ternary hash codes: train with a sharpening activation, encode, and evaluate retrieval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic clustered dataset as split files")
    for key in GENERATOR_KEYS:  # the config's generator keys, with their types and defaults
        p.add_argument(f"--{key.replace('_', '-')}", type=type(_DEFAULTS[key]), default=_DEFAULTS[key])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, metavar="PREFIX", help="output path prefix")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train the continuation network from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config's first seed")
    p.add_argument("--out", required=True, metavar="CHECKPOINT")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("encode", help="hash and quantize a feature file with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, metavar="CODES")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("eval", help="score retrieval mAP of query codes against index codes")
    p.add_argument("--codes", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--query-codes", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--k", default="all", help='"all" or a top-k cutoff')
    p.add_argument("--normalization", choices=("found", "capped"), default="found")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="run the continuation vs two-step experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="also write the report to this file")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
