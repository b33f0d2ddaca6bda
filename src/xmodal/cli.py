"""Command-line entry points.

Subcommands: make-data (write a synthetic corpus), run (full x-shot grid),
synth (stage 1 only: train and save the generators), train-proj (stage 2
only, on pseudo pairs from the generators `synth` saved; the two write
run's files byte for byte), eval (score a saved projection checkpoint).
run, synth and train-proj run the stage functions of `pipeline` over the
same grid loop and write the same cell layout, `cell_x{x}_s{seed}/` under
--out, with the grid's record at the root (`synth_record.json` for synth,
so a later train-proj into the same root keeps it; `run_record.json`
otherwise). They exit 0 only when every grid cell succeeded and 1 when any
failed (the failure is recorded and the grid continues); a bad config,
corpus or checkpoint, or any OSError (such as a directory given as a file),
exits 2 with a one-line error. Given both --preset and --config, the file's
keys override the preset's, section by section. eval takes only the flags
it reads; argparse rejects grid flags there (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from functools import partial

from .errors import CheckpointError, ConfigError, IngestError
from .pipeline import (
    AblationFlags,
    ExperimentConfig,
    SyntheticSpec,
    config_from_dict,
    eval_checkpoint,
    make_data,
    preset_config,
    run_experiment,
    run_grid,
    synth_cell,
    train_proj_cell,
)
from .util import read_json, write_json

ABLATIONS = tuple(f.name for f in fields(AblationFlags))


def _load_config(args) -> ExperimentConfig:
    if args.config is None and args.preset is None:
        raise ConfigError("provide --config or --preset")
    try:
        payload = read_json(args.config) if args.config is not None else {}
    except (OSError, ValueError) as e:
        raise ConfigError(f"config file {args.config} cannot be read as JSON: {e}") from e
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object")
    if getattr(args, "out", None) is not None:
        payload["out_dir"] = args.out
    if getattr(args, "x_shot", None):
        payload["x_shots"] = args.x_shot
    if getattr(args, "seed", None):
        payload["seeds"] = args.seed
    # given both, the file's sections update the preset's key by key
    config = preset_config(args.preset, **payload) if args.preset else config_from_dict(payload)

    ablations = config.ablations
    for flag in ABLATIONS:
        if getattr(args, flag, False):
            ablations = replace(ablations, **{flag: True})
    return replace(config, ablations=ablations)


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument(
        "--preset", help="named preset (synthetic, wikipedia, ...); a --config file's keys override it"
    )


def _add_grid(parser: argparse.ArgumentParser) -> None:
    _add_config(parser)
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--x-shot", type=int, action="append", help="x-shot value (repeatable)")
    parser.add_argument("--seed", type=int, action="append", help="seed (repeatable)")
    for flag in ABLATIONS:
        parser.add_argument(f"--{flag.replace('_', '-')}", action="store_true")


def cmd_make_data(args) -> int:
    spec = SyntheticSpec(
        n_classes=args.classes,
        per_class=args.per_class,
        dim=args.dim,
        modality_gap=args.gap,
        noise_sigma=args.noise,
        proto_rank=args.proto_rank,
        seed=args.seed,
    )
    paths = make_data(spec, args.out)
    print(json.dumps(paths, indent=2))
    return 0


def _print_grid(record: dict, describe) -> int:
    """One line per cell; exit code 1 when any cell failed."""
    for cell in record["cells"]:
        tag = f"x={cell['x_shot']} seed={cell['seed']}"
        if "error" in cell:
            print(f"[FAIL] {tag}: {cell['error']}")
        else:
            print(f"[ ok ] {tag}: {describe(cell)}")
    return 1 if record["failures"] else 0


def _target_map(cell: dict) -> str:
    target = cell["reports"]["target"]
    return (
        f"target Img2Txt {target['img2txt']['map']:.4f} "
        f"Txt2Img {target['txt2img']['map']:.4f} Avg {target['avg']:.4f}"
    )


def cmd_run(args) -> int:
    return _print_grid(run_experiment(_load_config(args)), _target_map)


def cmd_synth(args) -> int:
    config = _load_config(args)
    if config.out_dir is None:
        raise ConfigError("synth needs --out for the generator checkpoints")
    if config.ablations.no_generation:
        raise ConfigError("synth trains the generators; no_generation leaves it nothing to do")
    record = run_grid(config, synth_cell, record_name="synth_record.json")
    return _print_grid(record, lambda cell: "saved " + ", ".join(cell["checkpoints"].values()))


def cmd_train_proj(args) -> int:
    config = _load_config(args)
    if config.out_dir is None:
        raise ConfigError("train-proj needs --out for the checkpoint")
    if config.ablations.no_generation:
        raise ConfigError("--pseudo trains on generated pairs, which no_generation rules out")
    record = run_grid(config, partial(train_proj_cell, pseudo_root=args.pseudo))
    return _print_grid(record, _target_map)


def cmd_eval(args) -> int:
    config = _load_config(args)
    report = eval_checkpoint(
        args.checkpoint, config, x_shot=args.eval_x_shot, seed=args.eval_seed,
        domain=args.domain,
    )
    print(json.dumps(report, indent=2))
    if args.report is not None:
        write_json(args.report, report)
    return 0


def rank_or_none(text: str) -> int | None:
    """`--proto-rank`: an integer, or `none` for `proto_rank=None`."""
    return None if text == "none" else int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmodal",
        description="X-shot cross-modal retrieval: feature generation, gated projection, mAP evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec = SyntheticSpec()
    p = sub.add_parser("make-data", help="write a synthetic corpus in the binary embedding format")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=spec.n_classes)
    p.add_argument("--per-class", type=int, default=spec.per_class)
    p.add_argument("--dim", type=int, default=spec.dim)
    p.add_argument("--gap", type=float, default=spec.modality_gap)
    p.add_argument("--noise", type=float, default=spec.noise_sigma)
    p.add_argument("--proto-rank", type=rank_or_none, default=spec.proto_rank,
                   help="an integer, or `none` for isotropic class prototypes")
    p.add_argument("--seed", type=int, default=spec.seed)
    p.set_defaults(func=cmd_make_data)

    p = sub.add_parser("run", help="full two-stage grid over x-shots and seeds")
    _add_grid(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="stage 1 only: train and save the generators")
    _add_grid(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-proj", help="stage 2 only: train the projection model")
    _add_grid(p)
    p.add_argument("--pseudo", required=True, help="output root of `synth` (or `run`); each cell "
                   "synthesises from its own cell_x{x}_s{seed}/gen_img.ckpt and gen_txt.ckpt there")
    p.set_defaults(func=cmd_train_proj)

    p = sub.add_parser("eval", help="evaluate a saved projection checkpoint")
    _add_config(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--eval-x-shot", type=int, default=0)
    p.add_argument("--eval-seed", type=int, default=0)
    p.add_argument("--domain", choices=("target", "source"), default="target")
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IngestError, CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
