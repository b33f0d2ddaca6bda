"""Command-line entry points.

Subcommands: make-data (write to --out the corpus of a config's `synthetic`
section, or of `SyntheticSpec()` given no config), run (the x-shot grid of
`pipeline.run_experiment`; with --pseudo each cell takes stage 1 from the
generators an earlier run saved for it, so ablations that leave stage 1 as
it is reuse one run's generators), eval (score a saved projection
checkpoint). run writes one `cell_x{x}_s{seed}/` per cell under --out and
`run_record.json` at the root. It exits 0 only when every grid cell
succeeded and 1 when any failed (the failure is recorded and the grid
continues); a bad config, corpus, checkpoint or --pseudo root, or any
OSError (such as a directory given as a file), exits 2 with a one-line
error. Given both --preset and --config, the file's keys override the
preset's, section by section. eval takes only the flags it reads; argparse
rejects grid flags there (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .errors import CheckpointError, ConfigError, IngestError
from .pipeline import (
    AblationFlags,
    ExperimentConfig,
    SyntheticSpec,
    config_from_dict,
    eval_checkpoint,
    make_data,
    preset_payload,
    run_experiment,
)
from .util import read_json, write_json

ABLATIONS = tuple(f.name for f in fields(AblationFlags))


def _config_payload(args) -> dict:
    """The payload of --config over --preset, with --out, --x-shot and --seed set."""
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
    return preset_payload(args.preset, **payload) if args.preset else payload


def _load_config(args) -> ExperimentConfig:
    config = config_from_dict(_config_payload(args))
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


def cmd_make_data(args) -> int:
    spec = SyntheticSpec()
    if args.config is not None or args.preset is not None:
        payload = _config_payload(args)
        # checked before the config is built, which refuses one naming no corpus
        if payload.get("synthetic") is None:
            raise ConfigError("make-data writes a config's synthetic corpus, and this config has no synthetic section")
        spec = config_from_dict(payload).synthetic
    paths = make_data(spec, args.out)
    print(json.dumps(paths, indent=2))
    return 0


def cmd_run(args) -> int:
    """One line per cell; exit code 1 when any cell failed."""
    record = run_experiment(_load_config(args), args.pseudo)
    for cell in record["cells"]:
        tag = f"x={cell['x_shot']} seed={cell['seed']}"
        if "error" in cell:
            print(f"[FAIL] {tag}: {cell['error']}")
            continue
        target = cell["reports"]["target"]
        print(f"[ ok ] {tag}: target Img2Txt {target['img2txt']['map']:.4f} "
              f"Txt2Img {target['txt2img']['map']:.4f} Avg {target['avg']:.4f}")
    return 1 if record["failures"] else 0


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

    p = sub.add_parser("make-data", help="write a config's synthetic corpus in the binary embedding format")
    _add_config(p)
    p.add_argument("--out", required=True, help="corpus directory")
    p.set_defaults(func=cmd_make_data)

    p = sub.add_parser("run", help="full two-stage grid over x-shots and seeds")
    _add_config(p)
    p.add_argument("--out", help="output directory")
    p.add_argument("--x-shot", type=int, action="append", help="x-shot value (repeatable)")
    p.add_argument("--seed", type=int, action="append", help="seed (repeatable)")
    for flag in ABLATIONS:
        p.add_argument(f"--{flag.replace('_', '-')}", action="store_true")
    p.add_argument("--pseudo", help="output root of an earlier `run`; each cell synthesises from "
                   "its own cell_x{x}_s{seed}/gen_img.ckpt and gen_txt.ckpt there")
    p.set_defaults(func=cmd_run)

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
