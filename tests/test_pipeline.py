import json
import shutil
import tracemalloc
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from xmodal import checkpoint as ckpt
from xmodal import data, pipeline
from xmodal import projection as proj
from xmodal.cli import main as cli_main
from xmodal.errors import CheckpointError, ConfigError

warnings.filterwarnings("ignore", message="odd class count")


def tiny_config(**overrides):
    payload = {
        "name": "tiny",
        "synthetic": {
            "n_classes": 6,
            "per_class": 10,
            "dim": 16,
            "noise_sigma": 0.15,
            "proto_rank": 4,
            "modality_gap": 1.0,
            "seed": 11,
        },
        "x_shots": [0],
        "seeds": [0],
        "gen": {"lr": 1e-3, "batch": 16, "epochs": 3, "seed": 0},
        "proj": {"lr": 1e-3, "batch": 16, "epochs": 3, "seed": 0},
        "gen_num": 4,
    }
    payload.update(overrides)
    return pipeline.config_from_dict(payload)


# ---------------------------------------------------------------------------
# config


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        tiny_config(bogus=1)


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="gen"):
        tiny_config(gen={"lr": 1e-3, "bogus": 2})


def test_config_requires_a_data_source():
    with pytest.raises(ConfigError):
        pipeline.config_from_dict({"x_shots": [0], "seeds": [0]})


def test_resolved_config_echoes_every_default():
    cfg = tiny_config()
    resolved = cfg.resolved()
    assert resolved["query_fraction"] == 0.5
    assert resolved["ablations"]["no_vae"] is False
    assert resolved["gen"]["lambda_gp"] == 10.0
    assert resolved["artifact_version"] == pipeline.ARTIFACT_VERSION


def test_preset_overrides_merge():
    cfg = pipeline.preset_config("synthetic", seeds=[7], proj={"epochs": 2})
    assert cfg.seeds == [7]
    assert cfg.proj.epochs == 2
    assert cfg.proj.lr == 1e-3
    with pytest.raises(ConfigError, match="unknown preset"):
        pipeline.preset_config("imagenet")


# ---------------------------------------------------------------------------
# make-data


def test_make_data_round_trip(tmp_path):
    spec = pipeline.SyntheticSpec(n_classes=3, per_class=4, dim=8)
    paths = pipeline.make_data(spec, tmp_path)
    corpus = data.load_corpus(*paths.values())
    original = data.synth_corpus(
        n_classes=3, per_class=4, dim=8,
        modality_gap=spec.modality_gap, noise_sigma=spec.noise_sigma,
        proto_rank=spec.proto_rank, seed=spec.seed,
    )
    assert np.array_equal(corpus.image_matrix(), original.image_matrix())
    assert set(paths) == {"images", "texts", "labels", "attrs", "attr_ids"}


def test_make_data_two_instance_corpus(tmp_path):
    paths = pipeline.make_data(pipeline.SyntheticSpec(n_classes=2, per_class=1, dim=4), tmp_path)
    corpus = data.load_corpus(*paths.values())
    assert len(corpus) == 2


def test_cli_make_data_defaults_are_the_synthetic_spec(tmp_path, capsys):
    assert cli_main(["make-data", "--out", str(tmp_path / "cli")]) == 0
    pipeline.make_data(pipeline.SyntheticSpec(), tmp_path / "lib")
    for name in data.CORPUS_FILES.values():
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def test_cli_make_data_proto_rank_none_is_isotropic(tmp_path, capsys):
    assert cli_main(["make-data", "--out", str(tmp_path / "cli"), "--proto-rank", "none"]) == 0
    pipeline.make_data(replace(pipeline.SyntheticSpec(), proto_rank=None), tmp_path / "lib")
    for name in data.CORPUS_FILES.values():
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


@pytest.mark.parametrize("rank", ["None", "2.5", "four"])
def test_cli_make_data_rejects_a_proto_rank_that_is_not_an_integer_or_none(tmp_path, rank):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["make-data", "--out", str(tmp_path / "cli"), "--proto-rank", rank])
    assert exit_info.value.code == 2
    assert not (tmp_path / "cli").exists()


def test_make_data_byte_identical_across_runs(tmp_path):
    spec = pipeline.SyntheticSpec(n_classes=3, per_class=4, dim=8)
    a = tmp_path / "a"
    b = tmp_path / "b"
    pipeline.make_data(spec, a)
    pipeline.make_data(spec, b)
    for name in data.CORPUS_FILES.values():
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------------
# run grid


def test_ablation_composition_still_produces_report():
    cfg = tiny_config()
    cfg = replace(
        cfg, ablations=pipeline.AblationFlags(no_generation=True, no_gate=True)
    )
    record = pipeline.run_experiment(cfg)
    assert record["failures"] == 0
    cell = record["cells"][0]
    assert 0.0 <= cell["reports"]["target"]["avg"] <= 1.0
    assert cell["curves"]["generation"] is None


def test_identical_config_reproduces_reports_bitwise():
    cfg = tiny_config(x_shots=[0, 1], seeds=[3])
    a = pipeline.run_experiment(cfg)
    b = pipeline.run_experiment(cfg)
    for cell_a, cell_b in zip(a["cells"], b["cells"]):
        ra = cell_a["reports"]["target"]
        rb = cell_b["reports"]["target"]
        assert ra["avg"] == rb["avg"]
        assert ra["img2txt"]["map"] == rb["img2txt"]["map"]
        assert ra["img2txt"]["per_query_ap"] == rb["img2txt"]["per_query_ap"]


def test_cell_failure_is_recorded_and_grid_continues():
    # x_shot larger than the smallest target class fails that cell only
    cfg = tiny_config(x_shots=[99, 0], seeds=[0])
    record = pipeline.run_experiment(cfg)
    assert record["failures"] == 1
    assert "error" in record["cells"][0]
    assert "reports" in record["cells"][1]


def test_run_writes_checkpoints_reports_and_record(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path))
    record = pipeline.run_experiment(cfg)
    assert record["failures"] == 0
    cell_dir = tmp_path / "cell_x0_s0"
    assert (cell_dir / "gen_img.ckpt").exists()
    assert (cell_dir / "projection.ckpt").exists()
    assert (cell_dir / "reports.json").exists()
    saved = json.loads((tmp_path / "run_record.json").read_text())
    assert saved["config_fingerprint"] == record["config_fingerprint"]
    assert saved["config"]["proj"]["epochs"] == 3


def test_each_direction_of_a_report_gives_no_fingerprint_of_its_own(tmp_path):
    # the report states its config_fingerprint once, beside its directions
    pipeline.run_experiment(tiny_config(out_dir=str(tmp_path), ablations={"no_generation": True}))
    reports = json.loads((tmp_path / "cell_x0_s0" / "reports.json").read_text())
    keys = {"direction", "map", "per_query_ap", "n_queries", "n_gallery", "skipped_queries"}
    for name in ("target", "source", "baseline_target"):
        assert "config_fingerprint" in reports[name]
        assert set(reports[name]["img2txt"]) == set(reports[name]["txt2img"]) == keys


def test_run_record_names_the_numeric_environment(tmp_path, monkeypatch):
    # a rerun is bitwise only under the same numpy, BLAS and BLAS threads
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    pipeline.run_experiment(tiny_config(out_dir=str(tmp_path), ablations={"no_generation": True}))
    env = json.loads((tmp_path / "run_record.json").read_text())["environment"]
    assert env == {"numpy": np.__version__, "blas": env["blas"], "blas_threads": "1"}
    assert isinstance(env["blas"], str) and env["blas"]
    reports = json.loads((tmp_path / "cell_x0_s0" / "reports.json").read_text())
    assert "environment" not in reports


def test_eval_checkpoint_holds_the_corpus_at_its_stored_precision(tmp_path):
    # with few rows to score, the peak is the loaded model (its four flat
    # buffers, zero pages but allocated) and the features once at float32:
    # no file buffer or float64 copy beside them. Width 96 keeps the
    # evaluation on one thread, so the peak is the same on every run
    n_classes, per_class, d = 8, 400, 96
    spec = pipeline.SyntheticSpec(
        n_classes=n_classes, per_class=per_class, dim=d, seed=0, proto_rank=None
    )
    paths = pipeline.make_data(spec, tmp_path / "corpus")
    model = proj.ProjectionModel(d, range(n_classes), proj.ProjHyperParams(), np.random.default_rng(0))
    model_bytes = 4 * sum(group.data.nbytes for group in model.groups)
    ckpt.save_projection(model, tmp_path / "projection.ckpt")
    cfg = pipeline.ExperimentConfig(name="mem", files=pipeline.DataFiles(**paths))
    features32 = 2 * n_classes * per_class * d * 4

    def score():
        return pipeline.eval_checkpoint(tmp_path / "projection.ckpt", cfg, x_shot=390, seed=0)

    score()
    tracemalloc.start()
    try:
        report = score()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["img2txt"]["n_queries"] == 20
    assert peak <= model_bytes + 1.5 * features32


def test_eval_checkpoint_matches_in_run_report(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path))
    record = pipeline.run_experiment(cfg)
    cell = record["cells"][0]
    report = pipeline.eval_checkpoint(
        cell["checkpoints"]["projection"], cfg, x_shot=0, seed=0
    )
    assert abs(report["avg"] - cell["reports"]["target"]["avg"]) < 1e-12
    assert report["img2txt"]["map"] == cell["reports"]["target"]["img2txt"]["map"]


def _files_config(paths):
    return tiny_config(synthetic=None, files=paths)


def test_fingerprint_hashes_the_corpus_bytes_not_their_paths(tmp_path, monkeypatch):
    # the same corpus from two directories gives one fingerprint and the same
    # report bytes; a one-byte change to the labels gives another fingerprint
    spec = pipeline.SyntheticSpec(**asdict(tiny_config().synthetic))
    paths = pipeline.make_data(spec, tmp_path / "a")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    moved = {name: path.replace(str(tmp_path / "a"), str(tmp_path / "b")) for name, path in paths.items()}
    model = proj.ProjectionModel(spec.dim, range(spec.n_classes), proj.ProjHyperParams(), np.random.default_rng(0))
    ckpt.save_projection(model, tmp_path / "projection.ckpt")
    reports = []
    for files in (paths, moved):
        config = _files_config(files)
        report = pipeline.eval_checkpoint(tmp_path / "projection.ckpt", config, x_shot=1, seed=0)
        reports.append(json.dumps(report, sort_keys=True).encode())
        assert config.resolved()["files"] == files  # the echo keeps where it read
    assert reports[0] == reports[1]
    fingerprint = json.loads(reports[0])["config_fingerprint"]
    assert _files_config(moved).fingerprint() == fingerprint

    labels = Path(moved["labels"])
    blob = bytearray(labels.read_bytes())
    blob[0] = ord("1") if blob[0] != ord("1") else ord("2")
    labels.write_bytes(blob)
    assert _files_config(moved).fingerprint() != fingerprint

    # a config reads its files once, however often it is fingerprinted
    calls = []
    real = pipeline._file_sha256
    monkeypatch.setattr(pipeline, "_file_sha256", lambda path: calls.append(path) or real(path))
    config = _files_config(paths)
    assert config.fingerprint() == config.fingerprint() == fingerprint
    assert sorted(calls) == sorted(paths.values())


def test_synthetic_fingerprint_is_unchanged_by_the_file_digests():
    # pinned at the build before files were hashed by content
    assert tiny_config().fingerprint() == "2aead70e8225e4ee"


def test_source_validation_report_present():
    record = pipeline.run_experiment(tiny_config())
    reports = record["cells"][0]["reports"]
    assert set(reports) == {"target", "source", "baseline_target"}
    assert reports["source"]["img2txt"]["direction"] == "Img2Txt"


# ---------------------------------------------------------------------------
# cli


def test_cli_make_data_and_run(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = cli_main(
        ["make-data", "--out", str(out), "--classes", "4", "--per-class", "8",
         "--dim", "8", "--seed", "5"]
    )
    assert rc == 0
    corpus = data.load_corpus(*json.loads(capsys.readouterr().out).values())
    assert len(corpus) == 32

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "name": "cli-test",
        "files": {k: str(out / v) for k, v in data.CORPUS_FILES.items()
                  if k in ("images", "texts", "labels", "attrs", "attr_ids")},
        "x_shots": [0],
        "seeds": [0],
        "gen": {"lr": 1e-3, "batch": 8, "epochs": 2, "seed": 0},
        "proj": {"lr": 1e-3, "batch": 8, "epochs": 2, "seed": 0},
        "gen_num": 2,
    }))
    run_dir = tmp_path / "run"
    rc = cli_main(["run", "--config", str(config_path), "--out", str(run_dir)])
    assert rc == 0
    assert (run_dir / "run_record.json").exists()
    captured = capsys.readouterr()
    assert "target Img2Txt" in captured.out


def test_cli_eval_checkpoint(tmp_path, capsys):
    cfg_payload = {
        "name": "cli-eval",
        "synthetic": {"n_classes": 4, "per_class": 8, "dim": 8, "seed": 3,
                      "noise_sigma": 0.2, "proto_rank": 3},
        "x_shots": [0],
        "seeds": [2],
        "gen": {"lr": 1e-3, "batch": 8, "epochs": 2, "seed": 0},
        "proj": {"lr": 1e-3, "batch": 8, "epochs": 2, "seed": 0},
        "gen_num": 2,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg_payload))
    run_dir = tmp_path / "run"
    assert cli_main(["run", "--config", str(config_path), "--out", str(run_dir)]) == 0
    ckpt_path = run_dir / "cell_x0_s2" / "projection.ckpt"
    report_path = tmp_path / "report.json"
    rc = cli_main([
        "eval", "--config", str(config_path), "--checkpoint", str(ckpt_path),
        "--eval-x-shot", "0", "--eval-seed", "2", "--report", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    in_run = json.loads((run_dir / "run_record.json").read_text())
    want = in_run["cells"][0]["reports"]["target"]["avg"]
    assert abs(report["avg"] - want) < 1e-12


def test_cli_eval_reports_the_fingerprint_of_the_training_run(tmp_path, capsys):
    # the grid flags change the run's config, so its fingerprint is not the
    # fingerprint of the config file that eval is given
    config_path = _config_file(tmp_path, tiny_config())
    run_dir = tmp_path / "run"
    assert cli_main([
        "run", "--config", str(config_path), "--out", str(run_dir), "--x-shot", "1", "--seed", "1",
    ]) == 0
    record = json.loads((run_dir / "run_record.json").read_text())
    report_path = tmp_path / "report.json"
    assert cli_main([
        "eval", "--config", str(config_path),
        "--checkpoint", str(run_dir / "cell_x1_s1" / "projection.ckpt"),
        "--eval-x-shot", "1", "--eval-seed", "1", "--report", str(report_path),
    ]) == 0
    report = json.loads(report_path.read_text())
    assert report["trained_config_fingerprint"] == record["config_fingerprint"]
    assert report["config_fingerprint"] == tiny_config().fingerprint() != record["config_fingerprint"]
    in_run = record["cells"][0]["reports"]
    assert in_run["target"]["trained_config_fingerprint"] == record["config_fingerprint"]
    assert in_run["baseline_target"]["trained_config_fingerprint"] is None
    assert report["avg"] == in_run["target"]["avg"]


def test_eval_of_a_checkpoint_without_a_fingerprint_reports_none(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "projection.ckpt"
    ckpt.save_projection(
        proj.ProjectionModel(16, range(6), proj.ProjHyperParams(), np.random.default_rng(0)), path
    )
    meta, arrays = ckpt.load_checkpoint(path)
    del meta["config_fingerprint"]
    ckpt.save_checkpoint(path, "projection", meta, arrays)
    report = pipeline.eval_checkpoint(path, cfg, x_shot=0, seed=0)
    assert report["trained_config_fingerprint"] is None
    assert report["config_fingerprint"] == cfg.fingerprint()


def test_cli_ablation_flags_apply(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "name": "flags",
        "synthetic": {"n_classes": 4, "per_class": 8, "dim": 8, "seed": 3,
                      "noise_sigma": 0.2, "proto_rank": 3},
        "x_shots": [0], "seeds": [0],
        "gen": {"epochs": 1, "batch": 8}, "proj": {"epochs": 1, "batch": 8},
        "gen_num": 2,
    }))
    run_dir = tmp_path / "run"
    rc = cli_main(["run", "--config", str(config_path), "--out", str(run_dir),
                   "--no-generation", "--no-gate"])
    assert rc == 0
    record = json.loads((run_dir / "run_record.json").read_text())
    assert record["config"]["ablations"]["no_generation"] is True
    assert record["config"]["ablations"]["no_gate"] is True
    assert "gen_img" not in record["cells"][0]["checkpoints"]


def test_cli_bad_config_exits_nonzero(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"name": "broken", "x_shots": [0]}))
    rc = cli_main(["run", "--config", str(config_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, field",
    [
        ({"gen": {"latent_dim": -3}}, "latent_dim"),
        ({"query_fraction": 1.5}, "query_fraction"),
        ({"source_eval_fraction": 0.0}, "source_eval_fraction"),
        ({"x_shots": [0, -1]}, "x_shot"),
    ],
)
def test_cli_out_of_range_config_value_exits_2_naming_it(tmp_path, capsys, override, field):
    # the config is rejected before any cell runs, not cell by cell
    payload = tiny_config().resolved()
    payload.pop("artifact_version")
    payload.update(override)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload))
    rc = cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (tmp_path / "run").exists()


def _payload_with(section, key, value):
    """tiny_config's resolved payload with `key` (under `section`, if any) set to value."""
    payload = tiny_config().resolved()
    payload.pop("artifact_version")
    (payload[section] if section else payload)[key] = value
    return payload


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("gen", "latent_dim", 2.5),
        ("gen", "critic_steps", True),
        ("gen", "batch", 4.5),
        ("gen", "epochs", 3.0),
        ("gen", "seed", "0"),
        ("proj", "batch", 16.0),
        ("proj", "epochs", False),
        ("proj", "seed", 0.5),
        ("synthetic", "n_classes", 6.0),
        ("synthetic", "per_class", 8.5),
        ("synthetic", "dim", True),
        ("synthetic", "proto_rank", 2.5),
        ("synthetic", "seed", 11.5),
        (None, "x_shots", [1.5]),
        (None, "x_shots", [True]),
        (None, "x_shots", 0),
        (None, "seeds", [0.5]),
        (None, "gen_num", 2.5),
    ],
    ids=str,
)
def test_integer_field_rejects_a_non_integer_naming_it(section, key, value):
    with pytest.raises(ConfigError, match=rf"^{key} must be (an integer|a list of integers), got "):
        pipeline.config_from_dict(_payload_with(section, key, value))


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("ablations", "no_gate", "false"),
        ("gen", "lr", True),
        ("gen", "lr", "fast"),
        ("proj", "tau", float("inf")),
        ("files", "images", 0),
        (None, "query_fraction", "half"),
    ],
    ids=str,
)
def test_typed_field_rejects_a_wrong_type_naming_it(section, key, value):
    # these trained without the gate, trained at lr 1.0, died with a
    # TypeError traceback, or read the process's stdin as the image file
    if section == "files":
        payload = _payload_with(None, "files", {**dict.fromkeys(data.CORPUS_FILES, "f"), key: value})
    else:
        payload = _payload_with(section, key, value)
    with pytest.raises(ConfigError, match=rf"^{key} must be "):
        pipeline.config_from_dict(payload)


@pytest.mark.parametrize(
    "section, key, value",
    [("gen", "batch", 4.5), ("synthetic", "per_class", 8.5), (None, "seeds", [0.5]), (None, "x_shots", [True]),
     ("gen", "lr", "fast")],
    ids=str,
)
def test_cli_non_integer_config_value_exits_2_naming_it(tmp_path, capsys, section, key, value):
    # these failed every cell with a TypeError, died with a traceback, or ran
    # seed 0 and x=1 under the labels 0.5 and True
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_payload_with(section, key, value)))
    rc = cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, top", [("run", [1, 2]), ("eval", "x")])
def test_cli_config_file_that_is_not_an_object_exits_2(tmp_path, capsys, command, top):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(top))
    argv = [command, "--config", str(config_path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "run")]
    else:
        argv += ["--checkpoint", str(tmp_path / "projection.ckpt")]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: config file {config_path} must hold a JSON object\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("content", ['{"name": ', None], ids=["truncated", "directory"])
def test_cli_config_file_that_is_not_json_exits_2(tmp_path, capsys, content):
    config_path = tmp_path / "config.json"
    if content is None:
        config_path.mkdir()
    else:
        config_path.write_text(content)
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config_path} cannot be read as JSON: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "section, key, value", [("proj", "contrast_includes_self", True), ("synthetic", "unit_norm", False)]
)
def test_cli_config_naming_a_removed_switch_exits_2(tmp_path, capsys, section, key, value):
    # this build always leaves the anchor out of the contrastive denominator
    # and always writes unit feature rows, so it cannot honour either key
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_payload_with(section, key, value)))
    rc = cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown config keys under {section}: ['{key}']\n"
    assert not (tmp_path / "run").exists()


def test_cli_preset_with_config_file_overrides_the_preset(tmp_path, capsys):
    # a real-data preset needs corpus files, which only a config file can name
    corpus = tmp_path / "corpus"
    assert cli_main(["make-data", "--out", str(corpus), "--classes", "4", "--per-class", "8",
                     "--dim", "8", "--seed", "5"]) == 0
    files = {key: str(corpus / name) for key, name in data.CORPUS_FILES.items()}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"files": files, "gen": {"epochs": 1}, "proj": {"epochs": 1}}))
    run_dir = tmp_path / "run"
    argv = ["run", "--preset", "wikipedia", "--config", str(config_path), "--out", str(run_dir),
            "--x-shot", "0", "--seed", "0"]
    assert cli_main(argv) == 0
    record = json.loads((run_dir / "run_record.json").read_text())["config"]
    assert record["name"] == "wikipedia" and record["files"] == files
    assert record["gen"]["batch"] == 256 and record["gen"]["epochs"] == 1
    assert record["proj"]["batch"] == 256 and record["proj"]["epochs"] == 1
    assert record["gen_num"] == 70


def test_cli_corrupt_corpus_exits_with_error(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert cli_main(["make-data", "--out", str(out), "--classes", "4", "--per-class", "8",
                     "--dim", "8", "--seed", "5"]) == 0
    images = out / data.CORPUS_FILES["images"]
    images.write_bytes(b"NOTEMBED" + images.read_bytes()[8:])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "name": "corrupt",
        "files": {k: str(out / v) for k, v in data.CORPUS_FILES.items()
                  if k in ("images", "texts", "labels", "attrs", "attr_ids")},
        "x_shots": [0],
        "seeds": [0],
    }))
    capsys.readouterr()
    rc = cli_main(["run", "--config", str(config_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad magic" in err


@pytest.mark.parametrize("case, message", [
    ("corpus-path-is-a-directory", "Is a directory"), ("out-is-a-file", "File exists"),
])
def test_cli_os_error_exits_2_with_one_line(tmp_path, capsys, case, message):
    # each used to print a traceback (IsADirectoryError, FileExistsError) and exit 1
    out = tmp_path / "corpus"
    assert cli_main(["make-data", "--out", str(out), "--classes", "4", "--per-class", "8",
                     "--dim", "8", "--seed", "5"]) == 0
    files = {k: str(out / v) for k, v in data.CORPUS_FILES.items()
             if k in ("images", "texts", "labels", "attrs", "attr_ids")}
    if case == "corpus-path-is-a-directory":
        files["images"] = str(out)
    else:
        (tmp_path / "run").write_text("")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"name": "os-error", "files": files, "x_shots": [0], "seeds": [0]}))
    capsys.readouterr()
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1


def test_cli_corrupt_checkpoint_exits_with_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "name": "bad-ckpt",
        "synthetic": {"n_classes": 4, "per_class": 8, "dim": 8, "seed": 3},
        "x_shots": [0],
        "seeds": [0],
    }))
    bad = tmp_path / "projection.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    rc = cli_main(["eval", "--config", str(config_path), "--checkpoint", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad magic" in err


def _eval_exit(tmp_path, capsys, projection, arrays=None, **hp_extra):
    """Exit code and stderr of `eval` on a saved projection over a d=8 corpus;
    hp_extra is written into the checkpoint's meta.hp, and `arrays`, when
    given, replaces its arrays."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "name": "eval-ckpt",
        "synthetic": {"n_classes": 4, "per_class": 8, "dim": 8, "seed": 3},
        "x_shots": [0],
        "seeds": [0],
    }))
    path = tmp_path / "projection.ckpt"
    ckpt.save_projection(projection, path)
    if hp_extra or arrays is not None:
        meta, saved = ckpt.load_checkpoint(path)
        meta["hp"].update(hp_extra)
        ckpt.save_checkpoint(path, "projection", meta, saved if arrays is None else arrays)
    capsys.readouterr()
    rc = cli_main(["eval", "--config", str(config_path), "--checkpoint", str(path)])
    return rc, capsys.readouterr().err


def _projection(d):
    return proj.ProjectionModel(d, range(4), proj.ProjHyperParams(), np.random.default_rng(0))


def test_cli_eval_checkpoint_of_another_width_exits_2(tmp_path, capsys):
    rc, err = _eval_exit(tmp_path, capsys, _projection(16))
    assert rc == 2
    assert err.startswith("error: ") and "projection width 16 does not match corpus dim 8" in err


def test_cli_eval_checkpoint_with_unknown_hyperparameter_exits_2(tmp_path, capsys):
    rc, err = _eval_exit(tmp_path, capsys, _projection(8), dtype="float32")
    assert rc == 2
    assert err.startswith("error: ") and "meta.hp holds unknown keys 'dtype'" in err


def test_cli_eval_checkpoint_with_arrays_of_another_width_exits_2(tmp_path, capsys):
    # meta of a d=8 projection over the arrays of a d=16 one
    wide = tmp_path / "wide.ckpt"
    ckpt.save_projection(_projection(16), wide)
    _, arrays = ckpt.load_checkpoint(wide)
    rc, err = _eval_exit(tmp_path, capsys, _projection(8), arrays=arrays)
    assert rc == 2
    assert err.startswith("error: ") and "has shape (16, 16), the model expects (8, 8)" in err


def test_cli_eval_non_finite_projection_exits_2(tmp_path, capsys):
    # a diverged model's NaN embeddings fail scoring instead of giving an mAP
    model = _projection(8)
    model.projector_v.l1.W.data[0, 0] = np.nan
    rc, err = _eval_exit(tmp_path, capsys, model)
    assert rc == 2
    assert "Img2Txt: non-finite value in the queries" in err


# ---------------------------------------------------------------------------
# stage commands: synth, then train-proj on its output


def _config_file(tmp_path, cfg):
    payload = cfg.resolved()
    payload.pop("artifact_version")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    """A `synth` root of tiny_config's one cell (x=0, seed 0)."""
    root = tmp_path_factory.mktemp("synth")
    assert pipeline.run_grid(tiny_config(out_dir=str(root)), pipeline.synth_cell)["failures"] == 0
    return root


def _other_feature_value(corpus, split):
    """The corpus with one value of stage 1's first training row changed."""
    images = corpus.image_matrix()
    images[split.source_train[0], 3] += 0.5
    return data.Corpus(images, corpus.text_matrix(), corpus.labels(), corpus.class_attrs)


@pytest.mark.parametrize("other", ["split_seed", "x_shot", "no_vae", "gen_lr", "feature_value"])
def test_train_proj_refuses_generators_of_another_stage_1(tmp_path, synth_root, other):
    cfg = tiny_config()
    corpus = pipeline.load_config_corpus(cfg)
    root, x_shot, seed = synth_root, 0, 0
    if other in ("split_seed", "x_shot"):
        # the cell's files copied to where another cell looks for them
        x_shot, seed = (0, 1) if other == "split_seed" else (1, 0)
        root = tmp_path
        shutil.copytree(pipeline.cell_dir(synth_root, 0, 0), pipeline.cell_dir(root, x_shot, seed))
    elif other == "no_vae":
        cfg = tiny_config(ablations={"no_vae": True})
    elif other == "gen_lr":
        cfg = tiny_config(gen={**asdict(cfg.gen), "lr": 2e-3})
    else:
        corpus = _other_feature_value(corpus, pipeline.cell_split(corpus, 0, 0, cfg))
    path = pipeline.cell_dir(root, x_shot, seed) / "gen_img.ckpt"
    saved = ckpt.load_vaegan(path).stage1_key
    want = pipeline.stage1_key(corpus, pipeline.cell_split(corpus, x_shot, seed, cfg), cfg)
    assert saved is not None and want != saved
    with pytest.raises(CheckpointError) as refusal:
        pipeline.train_proj_cell(corpus, x_shot, seed, cfg, root)
    assert str(refusal.value) == (
        f"{path}: stage-1 key {saved} is not this cell's {want}; "
        "trained on another split, corpus, gen config or no_vae setting"
    )


def test_train_proj_refuses_a_generator_with_no_stage_1_key(tmp_path, synth_root):
    root = tmp_path / "copy"
    shutil.copytree(synth_root, root)
    path = pipeline.cell_dir(root, 0, 0) / "gen_txt.ckpt"
    meta, arrays = ckpt.load_checkpoint(path)
    del meta["stage1_key"]
    ckpt.save_checkpoint(path, "vaegan", meta, arrays)
    cfg = tiny_config()
    with pytest.raises(CheckpointError, match=f"^{path}: stage-1 key None is not this cell's"):
        pipeline.train_proj_cell(pipeline.load_config_corpus(cfg), 0, 0, cfg, root)


def test_a_copied_synth_root_is_accepted(tmp_path, synth_root):
    cfg = tiny_config()
    corpus = pipeline.load_config_corpus(cfg)
    shutil.copytree(synth_root, tmp_path / "moved")
    moved = pipeline.train_proj_cell(corpus, 0, 0, cfg, tmp_path / "moved")
    assert moved["checkpoints"] == {
        name: str(pipeline.cell_dir(tmp_path / "moved", 0, 0) / f"{name}.ckpt")
        for name in ("gen_img", "gen_txt")
    }
    assert moved["reports"] == pipeline.train_proj_cell(corpus, 0, 0, cfg, synth_root)["reports"]


@pytest.mark.parametrize("stage, network", [
    ("stage 1 txt", "generator.l2.W"), ("stage 2 projection", "gate_t.l1.b"),
])
def test_non_finite_parameter_fails_the_cell_before_its_checkpoint(
    tmp_path, monkeypatch, stage, network
):
    # a NaN that the last update leaves behind, after the last loss was checked
    def poison(model):
        dict(model.named_params())[network].data[0, -1] = np.inf

    if stage.startswith("stage 1"):
        real = pipeline.train_generation

        def train_generation(*args, **kwargs):
            img, txt, curves = real(*args, **kwargs)
            poison(txt)
            return img, txt, curves

        monkeypatch.setattr(pipeline, "train_generation", train_generation)
    else:
        real = pipeline.train_projection

        def train_projection(*args, **kwargs):
            model, curve = real(*args, **kwargs)
            poison(model)
            return model, curve

        monkeypatch.setattr(pipeline, "train_projection", train_projection)
    record = pipeline.run_experiment(tiny_config(out_dir=str(tmp_path)))
    assert record["failures"] == 1
    assert record["cells"][0]["error"] == (
        f"NonFiniteError: {stage}: param/{network} holds a non-finite value"
    )
    cell = pipeline.cell_dir(tmp_path, 0, 0)
    written = {p.name for p in cell.iterdir()} if cell.exists() else set()
    assert written == ({"gen_img.ckpt", "gen_txt.ckpt"} if stage.startswith("stage 2") else set())


@pytest.mark.parametrize("array", ["lo", "span"])
def test_non_finite_scaler_fails_the_cell_before_its_checkpoint(tmp_path, monkeypatch, array):
    real = pipeline.train_generation

    def train_generation(*args, **kwargs):
        img, txt, curves = real(*args, **kwargs)
        getattr(txt.scaler, array)[0, -1] = np.nan
        return img, txt, curves

    monkeypatch.setattr(pipeline, "train_generation", train_generation)
    record = pipeline.run_experiment(tiny_config(out_dir=str(tmp_path)))
    assert record["failures"] == 1
    assert record["cells"][0]["error"] == (
        f"NonFiniteError: stage 1 txt: scaler/{array} holds a non-finite value"
    )
    assert not pipeline.cell_dir(tmp_path, 0, 0).exists()


CELL_FILES = ("reports.json", "projection.ckpt", "gen_img.ckpt", "gen_txt.ckpt")


def _same_bytes(a, b, names=CELL_FILES):
    return all((a / name).read_bytes() == (b / name).read_bytes() for name in names)


def _cells(root, record="run_record.json"):
    return json.loads((root / record).read_text())["cells"]


@pytest.mark.parametrize("concurrency", ["child", "worker"])
def test_synth_then_train_proj_reproduces_run(tmp_path, request, concurrency):
    # stage 1's text model in a forked child, or every second job on a thread
    request.getfixturevalue(concurrency)
    config_path = _config_file(tmp_path, tiny_config(seeds=[0, 1]))
    split_run, run = tmp_path / "split", tmp_path / "run"
    args = ["--config", str(config_path), "--out"]
    assert cli_main(["synth", *args, str(split_run)]) == 0
    assert cli_main(["train-proj", *args, str(split_run), "--pseudo", str(split_run)]) == 0
    assert cli_main(["run", *args, str(run)]) == 0

    for seed in (0, 1):
        cell = f"cell_x0_s{seed}"
        assert _same_bytes(split_run / cell, run / cell)
    cells = zip(_cells(split_run, "synth_record.json"), _cells(split_run), _cells(run))
    for synth, trained, whole in cells:
        assert synth["curves"]["generation"] == whole["curves"]["generation"]
        assert trained["curves"]["projection"] == whole["curves"]["projection"]
        # the record names the generators each cell used, under run's keys
        assert trained["checkpoints"] == {
            name: path.replace(str(run), str(split_run))
            for name, path in whole["checkpoints"].items()
        }


def test_one_synth_root_serves_a_no_gate_train_proj(tmp_path):
    config_path = _config_file(tmp_path, tiny_config())
    synth, ablated, run = tmp_path / "synth", tmp_path / "no_gate", tmp_path / "run"
    args = ["--config", str(config_path), "--out"]
    assert cli_main(["synth", *args, str(synth)]) == 0
    assert cli_main(["train-proj", *args, str(ablated), "--pseudo", str(synth), "--no-gate"]) == 0
    assert cli_main(["run", *args, str(run), "--no-gate"]) == 0
    cell = "cell_x0_s0"
    assert _same_bytes(ablated / cell, run / cell, ("reports.json", "projection.ckpt"))
    assert _same_bytes(synth / cell, run / cell, ("gen_img.ckpt", "gen_txt.ckpt"))
    assert sorted(p.name for p in (ablated / cell).iterdir()) == ["projection.ckpt", "reports.json"]


def test_train_proj_without_pseudo_exits_2(tmp_path, capsys):
    # real pairs alone are `run --no-generation`; train-proj has no second way
    config_path = _config_file(tmp_path, tiny_config())
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["train-proj", "--config", str(config_path), "--out", str(tmp_path / "p")])
    assert exit_info.value.code == 2
    assert "--pseudo" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_train_proj_cell_refuses_no_generation(tmp_path):
    cfg = tiny_config(ablations={"no_generation": True})
    with pytest.raises(ConfigError, match="no_generation rules out"):
        pipeline.train_proj_cell(pipeline.load_config_corpus(cfg), 0, 0, cfg, tmp_path)


def test_synth_cell_without_out_dir_fails_before_stage_1(monkeypatch):
    def train_generation(*args, **kwargs):
        raise AssertionError("stage 1 ran")

    monkeypatch.setattr(pipeline, "train_generation", train_generation)
    record = pipeline.run_grid(tiny_config(), pipeline.synth_cell)
    assert record["failures"] == 1
    assert record["cells"][0]["error"] == (
        "ConfigError: synth_cell needs out_dir for the generator checkpoints"
    )


def test_train_proj_keeps_the_synth_record(tmp_path):
    config_path = _config_file(tmp_path, tiny_config())
    out = tmp_path / "cells"
    assert cli_main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
    assert cli_main([
        "train-proj", "--config", str(config_path), "--out", str(out), "--pseudo", str(out),
    ]) == 0
    synth = json.loads((out / "synth_record.json").read_text())
    trained = json.loads((out / "run_record.json").read_text())
    curves = synth["cells"][0]["curves"]["generation"]
    assert set(curves) == {"img", "txt"} and len(curves["img"]["total"]) == 4
    assert "reports" in trained["cells"][0]


def test_synth_failing_cell_exits_1_and_writes_the_rest(tmp_path, capsys):
    config_path = _config_file(tmp_path, tiny_config(x_shots=[99, 0]))
    out = tmp_path / "synth"
    assert cli_main(["synth", "--config", str(config_path), "--out", str(out)]) == 1
    assert "[FAIL] x=99 seed=0" in capsys.readouterr().out
    assert not (out / "cell_x99_s0").exists()
    assert sorted(p.name for p in (out / "cell_x0_s0").iterdir()) == ["gen_img.ckpt", "gen_txt.ckpt"]
    record = json.loads((out / "synth_record.json").read_text())
    assert record["failures"] == 1 and "smallest target class" in record["cells"][0]["error"]


def test_train_proj_applies_loss_ablations(tmp_path, synth_root):
    config_path = _config_file(tmp_path, tiny_config())
    out = tmp_path / "proj"
    argv = ["--config", str(config_path), "--out", str(out), "--pseudo", str(synth_root), "--no-l1"]
    assert cli_main(["train-proj", *argv]) == 0
    meta, _ = ckpt.load_checkpoint(out / "cell_x0_s0" / "projection.ckpt")
    assert meta["hp"]["alpha"] == 0.0
    assert meta["hp"]["beta"] == 1.0


@pytest.mark.parametrize("command", [["synth"], ["train-proj", "--pseudo", "p"]])
def test_stage_commands_reject_no_generation(tmp_path, capsys, command):
    config_path = _config_file(tmp_path, tiny_config())
    rc = cli_main([*command, "--config", str(config_path), "--out", str(tmp_path / "s"),
                   "--no-generation"])
    assert rc == 2
    assert "no_generation" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("flag", [["--x-shot", "5"], ["--seed", "1"], ["--out", "x"], ["--no-gate"]])
def test_eval_rejects_flags_it_does_not_read(tmp_path, flag):
    config_path = _config_file(tmp_path, tiny_config())
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["eval", "--config", str(config_path), "--checkpoint", "p.ckpt", *flag])
    assert exit_info.value.code == 2
