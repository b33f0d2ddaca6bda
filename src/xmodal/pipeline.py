"""Experiment orchestration: config, the stages of a cell, the x-shot grid.

Each stage of an (x_shot, seed) cell has one implementation that every entry
point calls: `cell_split`, `stage1` (both modality generators, at once when a
second core is free, keyed by `stage1_key`), `pseudo_pairs` (synthesised from
generators in memory) and `stage2` (projection, target/source/baseline mAP
with both directions at once under the same rule, projection checkpoint and
reports). Each stage fails the cell before its checkpoints are written if a
trained parameter is NaN or Inf. `run_cell` chains them, or given a
pseudo_root takes stage 1 from the generators saved for the cell there if
their key is its own. Cells live in `cell_x{x}_s{seed}/` under the output
root. `run_experiment` runs `run_cell` over the grid; cells fail
independently, and the RunRecord keeps every report, curve, checkpoint path
and error, and the fully resolved config.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

from . import checkpoint as ckpt
from . import retrieval
from .data import (
    Corpus,
    XShotSplit,
    check_split_params,
    load_corpus,
    split_xshot,
    synth_corpus,
    write_corpus,
)
from .errors import CheckpointError, ConfigError, DimensionMismatchError
from .generation import GenHyperParams, synthesize_target_set, train_generation
from .projection import ProjHyperParams, RawFeatures, train_projection
from .util import (
    fingerprint,
    model_dtype,
    numeric_environment,
    require_field_types,
    require_finite_params,
    write_json,
)

ARTIFACT_VERSION = "0.1.0"
_HASH_CHUNK = 1 << 20  # bytes per read when hashing a corpus file or stage-1 checkpoint


@dataclass
class SyntheticSpec:
    n_classes: int = 8
    per_class: int = 50
    dim: int = 64
    modality_gap: float = 5.0
    noise_sigma: float = 0.08
    proto_rank: int | None = 3
    seed: int = 2024

    def __post_init__(self):
        require_field_types(self)


@dataclass
class DataFiles:
    images: str
    texts: str
    labels: str
    attrs: str
    attr_ids: str

    def __post_init__(self):
        require_field_types(self)


@dataclass
class AblationFlags:
    no_vae: bool = False
    no_generation: bool = False
    no_gate: bool = False
    no_l1: bool = False
    no_l2: bool = False
    no_l3: bool = False

    def __post_init__(self):
        require_field_types(self)


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    synthetic: SyntheticSpec | None = None
    files: DataFiles | None = None
    x_shots: list[int] = field(default_factory=lambda: [0, 1, 3, 5, 7])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    gen: GenHyperParams = field(default_factory=GenHyperParams)
    proj: ProjHyperParams = field(default_factory=ProjHyperParams)
    gen_num: int = 30
    query_fraction: float = 0.5
    source_eval_fraction: float = 0.25
    ablations: AblationFlags = field(default_factory=AblationFlags)
    out_dir: str | None = None

    def __post_init__(self):
        require_field_types(self)
        if self.synthetic is None and self.files is None:
            raise ConfigError("config needs either a synthetic spec or corpus files")
        if self.synthetic is not None and self.files is not None:
            raise ConfigError("config cannot name both a synthetic spec and corpus files")
        if self.gen_num <= 0:
            raise ConfigError(f"gen_num must be positive, got {self.gen_num}")
        if not self.x_shots:
            raise ConfigError("x_shots must not be empty")
        check_split_params(self.x_shots, self.query_fraction, self.source_eval_fraction)
        if not self.seeds:
            raise ConfigError("seeds must not be empty")

    def resolved(self) -> dict:
        out = asdict(self)
        out["artifact_version"] = ARTIFACT_VERSION
        return out

    def fingerprint(self) -> str:
        """A hash of the resolved config less out_dir, with each corpus file's
        SHA-256 in place of its path: the same bytes anywhere hash alike."""
        resolved = self.resolved()
        resolved.pop("out_dir")
        if self.files is not None:
            resolved["files"] = self._file_digests
        return fingerprint(resolved)

    @cached_property
    def _file_digests(self) -> dict[str, str]:  # read once per config object
        return {name: _file_sha256(path) for name, path in asdict(self.files).items()}


def _build_section(cls, payload: dict, path: str):
    known = {f.name for f in fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"unknown config keys under {path}: {sorted(unknown)}")
    return cls(**payload)


def config_from_dict(payload: dict) -> ExperimentConfig:
    """Build a validated config; unknown keys anywhere are rejected."""
    payload = dict(payload)
    sections = {
        "synthetic": SyntheticSpec,
        "files": DataFiles,
        "gen": GenHyperParams,
        "proj": ProjHyperParams,
        "ablations": AblationFlags,
    }
    built = {}
    for key, cls in sections.items():
        if key in payload and payload[key] is not None:
            section = payload.pop(key)
            if not isinstance(section, dict):
                raise ConfigError(f"config section {key!r} must be a mapping")
            built[key] = _build_section(cls, section, key)
        else:
            payload.pop(key, None)
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**payload, **built)


# stage-1 / stage-2 batch sizes, learning rates, and per-class generation
# counts for the four benchmark embedding sets, plus the desk-scale preset
PRESETS: dict[str, dict] = {
    "synthetic": {
        "name": "synthetic",
        "synthetic": {},
        "gen": {"lr": 1e-3, "batch": 64, "epochs": 60, "seed": 0},
        "proj": {"lr": 1e-3, "batch": 64, "epochs": 40, "seed": 0, "tau": 0.1},
        "gen_num": 30,
    },
    "wikipedia": {
        "name": "wikipedia",
        "gen": {"lr": 1e-3, "batch": 256, "epochs": 50},
        "proj": {"lr": 1e-3, "batch": 256, "epochs": 50},
        "gen_num": 70,
    },
    "pascal": {
        "name": "pascal",
        "gen": {"lr": 1e-3, "batch": 64, "epochs": 50},
        "proj": {"lr": 4e-4, "batch": 64, "epochs": 50},
        "gen_num": 30,
    },
    "nuswide": {
        "name": "nuswide",
        "gen": {"lr": 2e-3, "batch": 512, "epochs": 50},
        "proj": {"lr": 4e-4, "batch": 512, "epochs": 50},
        "gen_num": 500,
    },
    "nuswide10k": {
        "name": "nuswide10k",
        "gen": {"lr": 1e-3, "batch": 2048, "epochs": 50},
        "proj": {"lr": 5e-3, "batch": 2048, "epochs": 50},
        "gen_num": 300,
    },
}


def preset_payload(name: str, **overrides) -> dict:
    """The preset's config payload, each override section updating the
    preset's key by key; `preset_config` builds it."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    payload = {k: (dict(v) if isinstance(v, dict) else v) for k, v in PRESETS[name].items()}
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(payload.get(key), dict):
            payload[key].update(value)
        else:
            payload[key] = value
    return payload


def preset_config(name: str, **overrides) -> ExperimentConfig:
    return config_from_dict(preset_payload(name, **overrides))


def load_config_corpus(config: ExperimentConfig) -> Corpus:
    if config.synthetic is not None:
        return synth_corpus(**asdict(config.synthetic), name=config.name)
    f = config.files
    return load_corpus(f.images, f.texts, f.labels, f.attrs, f.attr_ids, name=config.name)


def _file_sha256(path) -> str:
    """SHA-256 of a file, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _report_json(result: dict, split, config: ExperimentConfig, trained: str | None) -> dict:
    """A report; `trained` is the fingerprint of the config that trained the
    scored model, which for a loaded checkpoint may differ from `config`'s."""
    return {
        "img2txt": result["img2txt"].to_json(),
        "txt2img": result["txt2img"].to_json(),
        "avg": result["avg"],
        "split": split.describe(),
        "config_fingerprint": config.fingerprint(),
        "trained_config_fingerprint": trained,
    }


# ---------------------------------------------------------------------------
# the stages of one (x_shot, seed) cell, shared by every entry point


def cell_dir(root, x_shot: int, seed: int) -> Path:
    """Where a cell's checkpoints and reports live under a root."""
    return Path(root) / f"cell_x{x_shot}_s{seed}"


def _cell_out(config: ExperimentConfig, split: XShotSplit) -> Path | None:
    if config.out_dir is None:
        return None
    out = cell_dir(config.out_dir, split.x_shot, split.seed)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cell_split(corpus: Corpus, x_shot: int, seed: int, config: ExperimentConfig) -> XShotSplit:
    """The split every stage of the (x_shot, seed) cell trains and scores on."""
    return split_xshot(
        corpus, x_shot, seed,
        query_fraction=config.query_fraction,
        source_eval_fraction=config.source_eval_fraction,
    )


def stage1_key(corpus: Corpus, split: XShotSplit, config: ExperimentConfig) -> str:
    """The key of the cell's generators: a hash of the split, the gen config at
    the cell's seed, use_vae, the model dtype when it is not float64 (a
    float64 key is the one earlier builds wrote) and the bytes of the rows
    stage 1 trains on (both modalities' features and their attribute rows).
    No path enters it."""
    idx = split.train_rows
    table, rows = corpus.attr_rows(idx)
    digest = hashlib.sha256(table[rows])
    for gather in (corpus.image_matrix, corpus.text_matrix):
        digest.update(gather(idx))
    gen = {**vars(config.gen), "seed": split.seed, "use_vae": not config.ablations.no_vae}
    dtype = model_dtype(corpus.dim).name
    if dtype != "float64":
        gen["dtype"] = dtype
    return fingerprint({"split": split.describe(), "gen": gen, "rows": digest.hexdigest()})


def stage1(corpus: Corpus, split: XShotSplit, config: ExperimentConfig, cell: dict):
    """Train, key and save both modality generators; returns (image, text).
    Fills in the cell's generation curves, timing and checkpoint paths."""
    key = stage1_key(corpus, split, config)
    t0 = time.perf_counter()
    img_model, txt_model, curves = train_generation(
        split, corpus, replace(config.gen, seed=split.seed), use_vae=not config.ablations.no_vae
    )
    cell["timings"]["stage1"] = time.perf_counter() - t0
    require_finite_params(img_model, "stage 1 img")
    require_finite_params(txt_model, "stage 1 txt")
    img_model.stage1_key = txt_model.stage1_key = key
    out_dir = _cell_out(config, split)
    if out_dir is not None:
        for name, model in (("gen_img", img_model), ("gen_txt", txt_model)):
            ckpt.save_vaegan(model, out_dir / f"{name}.ckpt")
            cell["checkpoints"][name] = str(out_dir / f"{name}.ckpt")
    cell["curves"]["generation"] = curves
    return img_model, txt_model


def _saved_pseudo_pairs(root, corpus: Corpus, split: XShotSplit, config: ExperimentConfig, cell):
    """`pseudo_pairs` from the generators `stage1` saved for the cell under
    root, which the cell's checkpoints then name, if their key is the cell's."""
    key = stage1_key(corpus, split, config)
    models = []
    for name in ("gen_img", "gen_txt"):
        path = cell_dir(root, split.x_shot, split.seed) / f"{name}.ckpt"
        model = ckpt.load_vaegan(path)
        if model.stage1_key != key:
            raise CheckpointError(f"{path}: stage-1 key {model.stage1_key} is not this cell's {key}; "
                                  "trained on another split, corpus, gen config or no_vae setting")
        cell["checkpoints"][name] = str(path)
        models.append(model)
    return pseudo_pairs(models, corpus, split, config)


def pseudo_pairs(models, corpus: Corpus, split: XShotSplit, config: ExperimentConfig) -> Corpus:
    """gen_num pseudo pairs per target class from the (image, text) generators."""
    return synthesize_target_set(
        models, split.target_classes, corpus.class_attrs, config.gen_num, seed=split.seed
    )


def stage2(
    corpus: Corpus, split: XShotSplit, pseudo: Corpus | None, config: ExperimentConfig, cell: dict
) -> None:
    """Train the projection on real and pseudo pairs, score it, save it and the reports.

    no_l1/no_l2/no_l3 zero alpha/beta/gamma and no_gate drops the gate. The
    checkpoints the cell already names must come out unchanged. Fills in the
    cell's projection curve, timings, checkpoints and reports. The reports'
    config has out_dir null, so they do not depend on where they are written.
    """
    abl = config.ablations
    stage1_sums = {name: _file_sha256(path) for name, path in cell["checkpoints"].items()}

    t0 = time.perf_counter()
    proj_hp = replace(
        config.proj,
        seed=split.seed,
        alpha=0.0 if abl.no_l1 else config.proj.alpha,
        beta=0.0 if abl.no_l2 else config.proj.beta,
        gamma=0.0 if abl.no_l3 else config.proj.gamma,
    )
    model, curve = train_projection(split, corpus, pseudo, proj_hp, use_gate=not abl.no_gate)
    cell["curves"]["projection"] = curve
    cell["timings"]["stage2"] = time.perf_counter() - t0
    require_finite_params(model, "stage 2 projection")
    fp = model.config_fingerprint = config.fingerprint()

    t0 = time.perf_counter()
    target = retrieval.evaluate(model, split, corpus, domain="target")
    source = retrieval.evaluate(model, split, corpus, domain="source")
    baseline = retrieval.evaluate(RawFeatures(), split, corpus, domain="target")
    cell["timings"]["evaluate"] = time.perf_counter() - t0

    out_dir = _cell_out(config, split)
    if out_dir is not None:
        ckpt.save_projection(model, out_dir / "projection.ckpt")
        cell["checkpoints"]["projection"] = str(out_dir / "projection.ckpt")
        for name, digest in stage1_sums.items():
            if _file_sha256(cell["checkpoints"][name]) != digest:
                raise RuntimeError(
                    f"stage-1 checkpoint {name} changed during stage 2; "
                    "stage separation violated"
                )

    cell["reports"] = {
        "target": _report_json(target, split, config, fp),
        "source": _report_json(source, split, config, fp),
        "baseline_target": _report_json(baseline, split, config, None),
    }
    if out_dir is not None:
        config_echo = {**config.resolved(), "out_dir": None}
        write_json(out_dir / "reports.json", {"config": config_echo, **cell["reports"]})


def _new_cell(x_shot: int, seed: int) -> dict:
    curves = {"generation": None}
    return {"x_shot": x_shot, "seed": seed, "timings": {}, "checkpoints": {}, "curves": curves}


def _check_pseudo_root(config: ExperimentConfig, pseudo_root) -> None:
    """Refuse a pseudo_root that no cell can take stage 1 from, or that is the
    out_dir, whose run record would overwrite the one holding its stage-1 curves."""
    if pseudo_root is None:
        return
    if config.ablations.no_generation:
        raise ConfigError("a pseudo root supplies generated pairs, which no_generation rules out")
    if not Path(pseudo_root).is_dir():
        raise ConfigError(f"pseudo root {pseudo_root} is not a directory")
    if config.out_dir is not None and Path(config.out_dir).resolve() == Path(pseudo_root).resolve():
        raise ConfigError(f"out dir {config.out_dir} is the pseudo root; write the run elsewhere")


def run_cell(corpus: Corpus, x_shot: int, seed: int, config: ExperimentConfig, pseudo_root=None) -> dict:
    """One (x_shot, seed) grid cell: split, two training stages, evaluation.

    Given pseudo_root, stage 1 is the generators saved for the same cell
    there, as `run_cell` writes them; one whose `stage1_key` is not the
    cell's is refused with a CheckpointError naming the file and both keys.
    """
    _check_pseudo_root(config, pseudo_root)
    cell = _new_cell(x_shot, seed)
    split = cell_split(corpus, x_shot, seed, config)
    pseudo = None
    if pseudo_root is not None:
        pseudo = _saved_pseudo_pairs(pseudo_root, corpus, split, config, cell)
    elif not config.ablations.no_generation:
        # no name holds the generators, so they are freed before stage 2 trains
        pseudo = pseudo_pairs(stage1(corpus, split, config, cell), corpus, split, config)
    stage2(corpus, split, pseudo, config, cell)
    return cell


def run_experiment(config: ExperimentConfig, pseudo_root=None) -> dict:
    """Every (x_shot, seed) cell of the config through `run_cell`; cells fail
    independently. A bad pseudo_root is refused before the corpus is loaded.

    Returns the RunRecord dict, with the `util.numeric_environment` and the
    models' dtype (`util.model_dtype` of the corpus width); with an out_dir
    it is also written to `run_record.json` beside the cell directories.
    """
    _check_pseudo_root(config, pseudo_root)
    corpus = load_config_corpus(config)
    record = {
        "artifact_version": ARTIFACT_VERSION,
        "config": config.resolved(),
        "config_fingerprint": config.fingerprint(),
        "corpus": {"name": corpus.name, "instances": len(corpus), "dim": corpus.dim,
                   "model_dtype": model_dtype(corpus.dim).name},
        "environment": numeric_environment(),
        "cells": [],
        "failures": 0,
    }
    for x_shot in config.x_shots:
        for seed in config.seeds:
            try:
                cell = run_cell(corpus, x_shot, seed, config, pseudo_root)
            except Exception as e:  # cell errors are recorded, the grid continues
                cell = {"x_shot": x_shot, "seed": seed, "error": f"{type(e).__name__}: {e}"}
                record["failures"] += 1
            record["cells"].append(cell)
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "run_record.json", record)
    return record


def make_data(spec: SyntheticSpec, out_dir, name: str = "synthetic") -> dict[str, str]:
    return write_corpus(synth_corpus(**asdict(spec), name=name), out_dir)


def eval_checkpoint(
    checkpoint_path,
    config: ExperimentConfig,
    x_shot: int,
    seed: int,
    domain: str = "target",
) -> dict:
    """Load a projection checkpoint and score it on a freshly built split.

    The report's `trained_config_fingerprint` is the one the checkpoint
    stores (None if it stores none); `config_fingerprint` is `config`'s.
    """
    model = ckpt.load_projection(checkpoint_path)
    corpus = load_config_corpus(config)
    if model.d != corpus.dim:
        raise DimensionMismatchError(
            f"{checkpoint_path}: projection width {model.d} does not match corpus dim {corpus.dim}"
        )
    split = cell_split(corpus, x_shot, seed, config)
    result = retrieval.evaluate(model, split, corpus, domain=domain)
    return _report_json(result, split, config, model.config_fingerprint)
