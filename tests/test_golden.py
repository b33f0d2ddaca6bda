"""Pinned results of small grid cells: one for each way stage 1 runs, and
one ungated.

The desk cell is shaped like the benchmark's desk_grid: the synthetic preset
at d=64, where stage 1 trains the text model in a forked child or serially.
The desk_no_gate cell is the same cell under the no_gate ablation, whose
projection model has no gate networks. The wide cell is shaped like its
wide_cell: d=512, where both stages run the text side on a worker thread
when a second core is free. All run at seed 7 with their epochs cut. Every
report mAP and every curve value must match `golden_cells.json` to a
relative 1e-9, not bit for bit: a BLAS built for another CPU may round a
product otherwise.

The values are pinned by value: finite differences and exact oracles check
the steps' gradients, and this file holds the results the steps gave when a
change last declared new ones. A change that moves any value past 1e-9
declares it and rewrites the file:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_cells.json
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from xmodal import pipeline
from xmodal.generation import GenHyperParams
from xmodal.pipeline import ExperimentConfig, SyntheticSpec
from xmodal.projection import ProjHyperParams

GOLDEN = Path(__file__).with_name("golden_cells.json")
REL = 1e-9


def desk_cell() -> ExperimentConfig:
    return pipeline.preset_config(
        "synthetic",
        synthetic={"seed": 7, "proto_rank": None},
        gen={"epochs": 3},
        proj={"epochs": 2},
        x_shots=[5],
        seeds=[7],
    )


def wide_cell() -> ExperimentConfig:
    return ExperimentConfig(
        name="wide_cell",
        synthetic=SyntheticSpec(n_classes=8, per_class=85, dim=512, seed=7, proto_rank=None),
        x_shots=[0],
        seeds=[7],
        gen=GenHyperParams(batch=256, epochs=1, seed=7),
        proj=ProjHyperParams(batch=256, epochs=2, seed=7),
    )


def desk_no_gate_cell() -> ExperimentConfig:
    return replace(desk_cell(), ablations=pipeline.AblationFlags(no_gate=True))


CELLS = {"desk": desk_cell, "desk_no_gate": desk_no_gate_cell, "wide": wide_cell}


def results(name: str) -> dict:
    """The cell's target, source and baseline mAPs and its loss curves."""
    cfg = CELLS[name]()
    cell = pipeline.run_cell(pipeline.load_config_corpus(cfg), cfg.x_shots[0], cfg.seeds[0], cfg)
    maps = {
        domain: {"avg": r["avg"], "img2txt": r["img2txt"]["map"], "txt2img": r["txt2img"]["map"]}
        for domain, r in cell["reports"].items()
    }
    return {"maps": maps, "curves": cell["curves"]}


def flatten(tree, path="") -> dict:
    """{"maps/target/avg": value, "curves/projection/l1/0": value, ...}"""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return {path: tree}
    return {k: v for key, sub in items for k, v in flatten(sub, f"{path}/{key}" if path else str(key)).items()}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_its_pinned_results(name):
    got = flatten(results(name))
    want = flatten(json.loads(GOLDEN.read_text())[name])
    assert got.keys() == want.keys()
    off = {k: (got[k], want[k]) for k in want if not math.isclose(got[k], want[k], rel_tol=REL)}
    assert not off, f"{len(off)} of {len(want)} values moved: {off}"


if __name__ == "__main__":
    print(json.dumps({name: results(name) for name in sorted(CELLS)}, indent=1))
