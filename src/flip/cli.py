"""Command-line front end.

Subcommands: gen-data, train, tune-unmasked, eval, flops, report.
Exit codes: 0 success, 1 usage/configuration error, 2 data or I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .data import generate_dataset
from .encoders import PRESET_NAMES, preset
from .errors import ConfigError, DataFormatError
from .evaluation import (
    check_recall_k,
    desk_prompts,
    embed_images,
    embed_texts,
    eval_inference_modes,
    linear_probe,
    recall_at_k,
    zero_shot_accuracy,
    EvalReport,
    config_hash,
)
from .flops import count_flops
from .report import to_csv, tradeoff_report
from .trainer import (
    load_config,
    load_encoder,
    load_state,
    read_dataset_for,
    run_pretraining,
    save_state,
    unmasked_tune,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="flip", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic shapes dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="pre-train from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")

    p = sub.add_parser("tune-unmasked", help="continue training at mask ratio 0")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output checkpoint (default: <ckpt>.tuned)")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", required=True,
                   choices=("zero-shot", "retrieval", "linear-probe", "modes"))
    p.add_argument("--mask-ratio", type=float, default=0.5)
    p.add_argument("--k", type=int, default=1, help="retrieval cutoff")

    p = sub.add_parser("flops", help="analytic cost of a preset")
    p.add_argument("--preset", required=True, choices=PRESET_NAMES)
    p.add_argument("--mask-ratio", type=float, required=True)
    p.add_argument("--text-mask-ratio", type=float, default=0.0)

    p = sub.add_parser("report", help="accuracy vs compute across runs")
    p.add_argument("--runs", nargs="+", required=True)
    return parser


def cmd_gen_data(args) -> int:
    generate_dataset(args.n, args.seed, args.out)
    print(f"wrote {args.n} records to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    run_pretraining(load_config(args.config), args.out_dir, resume=args.resume)
    print(f"run directory: {args.out_dir}")
    return EXIT_OK


def cmd_tune_unmasked(args) -> int:
    config = load_config(args.config)
    state = load_state(args.ckpt, config)
    dataset = read_dataset_for(config.train_data, state.encoder_config)
    unmasked_tune(state, dataset)
    out = args.out or f"{args.ckpt}.tuned"
    save_state(out, state)
    print(f"tuned checkpoint: {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params, enc_cfg = load_encoder(args.ckpt)
    dataset = read_dataset_for(args.data, enc_cfg)
    prompts = desk_prompts()
    if args.task == "zero-shot":
        value = zero_shot_accuracy(params, enc_cfg, dataset, prompts)
        report = EvalReport(metric="zero_shot_acc", value=value, mode="full",
                            config=config_hash(args.ckpt, args.data))
        print(report.to_json())
    elif args.task == "retrieval":
        check_recall_k(args.k, len(dataset))
        image_emb = embed_images(params, enc_cfg, dataset.images)
        text_emb = embed_texts(params, enc_cfg, dataset.captions)
        truth = list(range(len(dataset)))
        for metric, q, g in (("text_to_image_recall", text_emb, image_emb),
                             ("image_to_text_recall", image_emb, text_emb)):
            value = recall_at_k(q, g, truth, args.k)
            print(EvalReport(metric=f"{metric}@{args.k}", value=value, mode="full",
                             config=config_hash(args.ckpt, args.data, args.k)).to_json())
    elif args.task == "linear-probe":
        features = embed_images(params, enc_cfg, dataset.images)
        _, value = linear_probe(features, dataset.labels)
        print(EvalReport(metric="linear_probe_acc", value=value, mode="full",
                         config=config_hash(args.ckpt, args.data)).to_json())
    else:
        for report in eval_inference_modes(params, enc_cfg, dataset, args.mask_ratio, prompts):
            print(report.to_json())
    return EXIT_OK


def cmd_flops(args) -> int:
    report = count_flops(preset(args.preset), args.mask_ratio, args.text_mask_ratio)
    print(report.to_json())
    return EXIT_OK


def cmd_report(args) -> int:
    print(to_csv(tradeoff_report(args.runs)), end="")
    return EXIT_OK


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "tune-unmasked": cmd_tune_unmasked,
    "eval": cmd_eval,
    "flops": cmd_flops,
    "report": cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as e:
        print(f"flip {args.command}: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, OSError) as e:
        print(f"flip {args.command}: error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
