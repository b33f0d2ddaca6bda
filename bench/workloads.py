"""The benchmark's workloads: inputs made from a seed, the timed unit, output checks.

Every workload drives xmodal only through its public functions. The seed
picks the synthetic corpus (and, for eval_large, the untrained projection's
weights); grid-cell seeds and shapes are fixed, so the work done per unit is
the same for every seed. Every corpus draws its class prototypes
isotropically (`proto_rank=None`, not the synthetic preset's rank 3), which
keeps mAP steady across seeds.

Each workload also names the reference kernel (bench/reference.py) that
times the host beside it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from xmodal import checkpoint, pipeline
from xmodal.generation import GenHyperParams
from xmodal.pipeline import DataFiles, ExperimentConfig, SyntheticSpec
from xmodal.projection import ProjectionModel, ProjHyperParams


@dataclass
class Expected:
    """Query/gallery counts the split protocol must give for one unit."""

    target: tuple[int, int]
    source: tuple[int, int]


def expected_counts(config: ExperimentConfig, n_classes: int, per_class: int, x_shot: int) -> Expected:
    """Counts from the corpus shape alone: halved classes, x shots out, fractions floored."""
    n_target = n_classes // 2
    n_source = n_classes - n_target
    pool = per_class - x_shot
    tq = int(config.query_fraction * pool)
    n_eval = int(config.source_eval_fraction * per_class)
    sq = int(config.query_fraction * n_eval)
    return Expected(
        target=(n_target * tq, n_target * (pool - tq)),
        source=(n_source * sq, n_source * (n_eval - sq)),
    )


def check_report(name: str, report: dict, counts: tuple[int, int]) -> list[str]:
    """Finite mAPs in [0, 1], no skipped queries, counts that match the shape."""
    errors = []
    for direction in ("img2txt", "txt2img"):
        r = report[direction]
        aps = np.asarray(r["per_query_ap"], dtype=np.float64)
        values = np.append(aps, r["map"])
        if not (np.isfinite(values).all() and (values >= 0).all() and (values <= 1).all()):
            errors.append(f"{name}.{direction}: an mAP is not finite or lies outside [0, 1]")
        if (r["n_queries"], r["n_gallery"]) != counts:
            errors.append(
                f"{name}.{direction}: {r['n_queries']} queries x {r['n_gallery']} gallery, "
                f"expected {counts[0]} x {counts[1]}"
            )
        if r["skipped_queries"]:
            errors.append(f"{name}.{direction}: {r['skipped_queries']} queries skipped")
        if len(aps) != r["n_queries"]:
            errors.append(f"{name}.{direction}: {len(aps)} APs for {r['n_queries']} queries")
    if not (math.isfinite(report["avg"]) and 0.0 <= report["avg"] <= 1.0):
        errors.append(f"{name}: average mAP {report['avg']} is not in [0, 1]")
    return errors


def digest(obj, files=()) -> str:
    """Hash of a JSON report (floats written exactly) plus the bytes of files."""
    h = hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf8"))
    for path in files:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    why = ""
    reference = reference.SmallOps

    def setup(self, work: Path, seed: int, smoke: bool) -> None:
        """Build the inputs under `work`; called several times, the last build is used."""
        raise NotImplementedError

    def units(self) -> list[tuple[int, int]]:
        """Timed units of one pass, as (x_shot, seed) cell keys."""
        return [(0, 0)]

    def run(self, key):
        raise NotImplementedError

    def check(self, key, out) -> tuple[list[str], str, float]:
        """(errors, digest for the repeat check, target mAP average)."""
        raise NotImplementedError


class _GridWorkload(Workload):
    """Training workloads: `pipeline.run_cell` on cells of one config."""

    def config(self, work: Path, seed: int, smoke: bool) -> ExperimentConfig:
        raise NotImplementedError

    def setup(self, work, seed, smoke):
        self.cfg = self.config(work, seed, smoke)
        self.corpus = pipeline.load_config_corpus(self.cfg)
        spec = self.cfg.synthetic
        self.shape = (spec.n_classes, spec.per_class)

    def units(self):
        return [(x, s) for x, s in zip(self.cfg.x_shots, self.cfg.seeds)]

    def run(self, key):
        x_shot, seed = key
        return pipeline.run_cell(self.corpus, x_shot, seed, self.cfg)

    def check(self, key, cell):
        errors = []
        if "error" in cell:
            errors.append(f"cell {key}: {cell['error']}")
            return errors, "", float("nan")
        want = expected_counts(self.cfg, *self.shape, key[0])
        reports = cell["reports"]
        errors += check_report("target", reports["target"], want.target)
        errors += check_report("source", reports["source"], want.source)
        errors += check_report("baseline_target", reports["baseline_target"], want.target)
        paths = [cell["checkpoints"].get(k) for k in ("gen_img", "gen_txt", "projection")]
        if not all(p and Path(p).is_file() for p in paths):
            errors.append(f"cell {key}: a checkpoint is missing: {cell['checkpoints']}")
            paths = []
        return errors, digest(reports, paths), reports["target"]["avg"]


class DeskGrid(_GridWorkload):
    name = "desk_grid"
    why = (
        "synthetic preset at d=64, 15+10 epochs: stage-1 Python and tape overhead "
        "dominate; two independent cells (x_shot 0 seed 0, x_shot 5 seed 1)"
    )
    reference = reference.SmallOps

    def config(self, work, seed, smoke):
        # the preset's 60 + 40 epochs cut to 15 + 10: the same per-step work in
        # a cell of about 3.5 s, so a run times several of them
        short = {"epochs": 2} if smoke else {"epochs": 15}
        shorter = {"epochs": 2} if smoke else {"epochs": 10}
        return pipeline.preset_config(
            "synthetic",
            synthetic={"seed": seed, "proto_rank": None},
            gen=short,
            proj=shorter,
            x_shots=[0, 5],
            seeds=[0, 1],
            out_dir=str(work / "cells"),
        )


class WideCell(_GridWorkload):
    name = "wide_cell"
    why = (
        "one cell at d=512 with one 256-row stage-1 batch per modality: "
        "BLAS FLOPs, memory and checkpoint size dominate"
    )
    reference = reference.Dense

    def config(self, work, seed, smoke):
        return ExperimentConfig(
            name=self.name,
            synthetic=SyntheticSpec(
                n_classes=8, per_class=85, dim=64 if smoke else 512, seed=seed, proto_rank=None
            ),
            x_shots=[0],
            seeds=[0],
            gen=GenHyperParams(batch=256, epochs=1, seed=0),
            proj=ProjHyperParams(batch=256, epochs=2, seed=0),
            out_dir=str(work / "cells"),
        )


class EvalLarge(Workload):
    name = "eval_large"
    why = (
        "pipeline.eval_checkpoint on a 40-class file corpus at d=1024: ingest, "
        "checkpoint load, no-grad forward and mAP over 1500x1500; no training"
    )
    reference = reference.Ranking

    def setup(self, work, seed, smoke):
        n_classes, per_class, dim = (8, 40, 64) if smoke else (40, 150, 1024)
        spec = SyntheticSpec(
            n_classes=n_classes, per_class=per_class, dim=dim, seed=seed, proto_rank=None
        )
        paths = pipeline.make_data(spec, work / "corpus", name=self.name)
        model = ProjectionModel(
            d=dim,
            classes=range(n_classes),
            hp=ProjHyperParams(seed=seed),
            rng=np.random.default_rng(seed),
        )
        self.ckpt = work / "projection.ckpt"
        checkpoint.save_projection(model, self.ckpt)
        self.cfg = ExperimentConfig(name=self.name, files=DataFiles(**paths))
        self.shape = (n_classes, per_class)

    def run(self, key):
        x_shot, seed = key
        return pipeline.eval_checkpoint(self.ckpt, self.cfg, x_shot, seed)

    def check(self, key, report):
        want = expected_counts(self.cfg, *self.shape, key[0])
        return check_report("target", report, want.target), digest(report), report["avg"]


WORKLOADS = {w.name: w for w in (DeskGrid, WideCell, EvalLarge)}
