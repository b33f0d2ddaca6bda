"""Command-line entry points.

Subcommands: make-data (write a synthetic corpus), run (full x-shot grid),
synth (stage 1 plus pseudo-feature synthesis only), train-proj (stage 2
only), eval (score a saved projection checkpoint). Exit code 0 only when
every grid cell succeeded; a bad config, corpus or checkpoint exits 2 with
a one-line error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import checkpoint as ckpt
from .data import load_corpus_dir, split_xshot, write_corpus
from .errors import CheckpointError, ConfigError, IngestError
from .generation import synthesize_target_set, train_generation
from .pipeline import (
    ExperimentConfig,
    SyntheticSpec,
    config_from_dict,
    eval_checkpoint,
    load_config_corpus,
    make_data,
    preset_config,
    run_experiment,
)
from .projection import train_projection
from .retrieval import evaluate
from .util import read_json, write_json


def _load_config(args) -> ExperimentConfig:
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if getattr(args, "x_shot", None):
        overrides["x_shots"] = args.x_shot
    if getattr(args, "seed", None):
        overrides["seeds"] = args.seed

    if args.config is not None:
        payload = read_json(args.config)
        payload.update(overrides)
        config = config_from_dict(payload)
    elif args.preset is not None:
        config = preset_config(args.preset, **overrides)
    else:
        raise ConfigError("provide --config or --preset")

    ablations = config.ablations
    for flag in ("no_vae", "no_generation", "no_gate", "no_l1", "no_l2", "no_l3"):
        if getattr(args, flag, False):
            ablations = replace(ablations, **{flag: True})
    return replace(config, ablations=ablations)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--preset", help="named preset (synthetic, wikipedia, ...)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--x-shot", type=int, action="append", help="x-shot value (repeatable)")
    parser.add_argument("--seed", type=int, action="append", help="seed (repeatable)")
    for flag in ("no-vae", "no-generation", "no-gate", "no-l1", "no-l2", "no-l3"):
        parser.add_argument(f"--{flag}", action="store_true")


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


def cmd_run(args) -> int:
    config = _load_config(args)
    record = run_experiment(config)
    for cell in record["cells"]:
        tag = f"x={cell['x_shot']} seed={cell['seed']}"
        if "error" in cell:
            print(f"[FAIL] {tag}: {cell['error']}")
        else:
            target = cell["reports"]["target"]
            print(
                f"[ ok ] {tag}: target Img2Txt {target['img2txt']['map']:.4f} "
                f"Txt2Img {target['txt2img']['map']:.4f} Avg {target['avg']:.4f}"
            )
    return 1 if record["failures"] else 0


def cmd_synth(args) -> int:
    config = _load_config(args)
    if config.out_dir is None:
        raise ConfigError("synth needs --out for the checkpoints and pseudo corpus")
    corpus = load_config_corpus(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for x_shot in config.x_shots:
        for seed in config.seeds:
            split = split_xshot(
                corpus, x_shot, seed,
                query_fraction=config.query_fraction,
                source_eval_fraction=config.source_eval_fraction,
            )
            gen_hp = replace(config.gen, seed=seed)
            img_model, txt_model, _ = train_generation(
                split, corpus, gen_hp, use_vae=not config.ablations.no_vae
            )
            pseudo = synthesize_target_set(
                (img_model, txt_model),
                split.target_classes,
                corpus.class_attrs,
                config.gen_num,
                seed=seed,
            )
            cell_dir = out / f"cell_x{x_shot}_s{seed}"
            cell_dir.mkdir(parents=True, exist_ok=True)
            ckpt.save_vaegan(img_model, cell_dir / "gen_img.ckpt")
            ckpt.save_vaegan(txt_model, cell_dir / "gen_txt.ckpt")
            pseudo_paths = write_corpus(pseudo, cell_dir / "pseudo")
            print(f"x={x_shot} seed={seed}: {len(pseudo)} pseudo pairs -> {cell_dir}")
            write_json(cell_dir / "synth.json", {"pseudo": pseudo_paths})
    return 0


def cmd_train_proj(args) -> int:
    config = _load_config(args)
    if config.out_dir is None:
        raise ConfigError("train-proj needs --out for the checkpoint")
    corpus = load_config_corpus(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pseudo = None
    if args.pseudo is not None:
        pseudo = load_corpus_dir(args.pseudo)
    for x_shot in config.x_shots:
        for seed in config.seeds:
            split = split_xshot(
                corpus, x_shot, seed,
                query_fraction=config.query_fraction,
                source_eval_fraction=config.source_eval_fraction,
            )
            proj_hp = replace(config.proj, seed=seed)
            model, _ = train_projection(
                split, corpus, pseudo, proj_hp, use_gate=not config.ablations.no_gate
            )
            path = out / f"projection_x{x_shot}_s{seed}.ckpt"
            ckpt.save_projection(model, path)
            result = evaluate(model, split, corpus, domain="target")
            print(
                f"x={x_shot} seed={seed}: avg mAP {result['avg']:.4f} -> {path}"
            )
    return 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmodal",
        description="X-shot cross-modal retrieval: feature generation, gated projection, mAP evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-data", help="write a synthetic corpus in the binary embedding format")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--per-class", type=int, default=50)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--gap", type=float, default=5.0)
    p.add_argument("--noise", type=float, default=0.08)
    p.add_argument("--proto-rank", type=int, default=3)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=cmd_make_data)

    p = sub.add_parser("run", help="full two-stage grid over x-shots and seeds")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="stage 1 only: train generators and write pseudo corpora")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-proj", help="stage 2 only: train the projection model")
    _add_common(p)
    p.add_argument("--pseudo", help="directory holding a pseudo corpus from `synth`")
    p.set_defaults(func=cmd_train_proj)

    p = sub.add_parser("eval", help="evaluate a saved projection checkpoint")
    _add_common(p)
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
    except (ConfigError, IngestError, CheckpointError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
