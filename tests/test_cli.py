"""End-to-end tests for the command line pipeline."""

import csv
import json
import os
import shutil

import numpy as np
import pytest

from admitsim import cli
from admitsim.cohort import Cohort, load_cohort
from admitsim.models.features import FeatureSchema, featurize, fit_feature_schema
from admitsim.models.logreg import train_logreg
from admitsim.seqenc import TokenSequenceBatch


def write_config(path, **overrides):
    cfg = {
        "version": 1,
        "seed": 7,
        "variant": "academic",
        "min_count": 5,
        "cohort": {"n_students": 300, "n_programs": 8, "start_year": 2006, "end_year": 2010},
        "model": {"family": "logreg", "params": {"C": 1.0}},
    }
    cfg.update(overrides)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return str(path)


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


ALL_COMMANDS = (
    "generate",
    "encode",
    "train",
    "predict",
    "evaluate",
    "contract",
    "audit-fairness",
    "match",
    "econ",
    "report",
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A completed tabular run: every subcommand executed once."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "run.json")
    out = root / "run"
    for command in ALL_COMMANDS:
        assert run(command, "--config", cfg, "--out", out) == 0, command
    return cfg, out


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for command in ALL_COMMANDS:
        assert command in text


def test_subcommand_help_documents_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["contract", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--config", "--seed", "--out", "--jobs", "--fraction", "--grouping", "--split"):
        assert flag in text


def test_missing_command_is_config_error(capsys):
    assert cli.main([]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", typo_section={"a": 1})
    assert run("generate", "--config", cfg, "--out", tmp_path / "out") == 1
    assert "typo_section" in capsys.readouterr().err


def test_unknown_model_param(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", model={"family": "logreg", "params": {"alpha": 1.0}})
    assert run("generate", "--config", cfg, "--out", tmp_path / "out") == 1
    assert "alpha" in capsys.readouterr().err


def test_invalid_value_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", val_fraction=1.5)
    assert run("generate", "--config", cfg, "--out", tmp_path / "out") == 1
    assert "val_fraction" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run("generate", "--config", tmp_path / "absent.json", "--out", tmp_path) == 1
    assert "not found" in capsys.readouterr().err


def test_config_must_declare_version(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text('{"seed": 1}', encoding="utf-8")
    assert run("generate", "--config", path, "--out", tmp_path / "out") == 1
    assert "version" in capsys.readouterr().err


def test_jobs_rejects_zero(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json")
    assert run("generate", "--config", cfg, "--out", tmp_path / "out", "--jobs", 0) == 1
    assert "--jobs" in capsys.readouterr().err


def test_missing_artifact_names_producer(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json")
    assert run("encode", "--config", cfg, "--out", tmp_path / "fresh") == 2
    err = capsys.readouterr().err
    assert "cohort.jsonl" in err
    assert "admitsim generate" in err


def test_report_without_evaluate_names_artifact(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json")
    assert run("report", "--config", cfg, "--out", tmp_path / "empty") == 2
    err = capsys.readouterr().err
    assert "auc.csv" in err
    assert "admitsim evaluate" in err


def test_pipeline_writes_all_artifacts(pipeline):
    _, out = pipeline
    expected = [
        "cohort.jsonl",
        "splits.json",
        "vocab.json",
        "binning.json",
        "encode_meta.json",
        "train.aseq",
        "val.aseq",
        "test.aseq",
        "feature_schema.json",
        "model.json",
        "predictions_test.csv",
        "risk_test.csv",
        "auc.csv",
        "correlations.csv",
        "contraction_curve.csv",
        "contraction_counterfactual.csv",
        "fairness_tests.csv",
        "abroca.csv",
        "matches.csv",
        "econ_scenarios.csv",
        "econ_headline.csv",
    ]
    for name in expected:
        assert (out / name).exists(), name
    for command in ALL_COMMANDS:
        assert (out / f"manifest_{command}.json").exists(), command
    for name in (
        "auc_grid.csv",
        "correlations.csv",
        "contraction_curves.csv",
        "contraction_counterfactuals.csv",
        "fairness_grid.csv",
        "abroca_grid.csv",
        "econ_grid.csv",
        "econ_headline.csv",
    ):
        assert (out / "report" / name).exists(), name


def test_manifest_structure(pipeline):
    _, out = pipeline
    manifest = json.loads((out / "manifest_predict.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "predict"
    assert len(manifest["config_hash"]) == 64
    assert manifest["seed"] == 7
    assert set(manifest["versions"]) == {"admitsim", "numpy", "python"}
    assert "cohort.jsonl" in manifest["inputs"]
    assert "risk_test.csv" in manifest["outputs"]
    for digest in manifest["inputs"].values():
        assert len(digest) == 64
    # hashes in the manifest match the files on disk
    recorded = manifest["outputs"]["predictions_test.csv"]
    assert recorded == cli._sha256(str(out / "predictions_test.csv"))


def test_manifests_share_config_hash(pipeline):
    _, out = pipeline
    hashes = {
        json.loads((out / f"manifest_{c}.json").read_text(encoding="utf-8"))["config_hash"]
        for c in ALL_COMMANDS
    }
    assert len(hashes) == 1


def test_predictions_align_with_split(pipeline):
    _, out = pipeline
    splits = json.loads((out / "splits.json").read_text(encoding="utf-8"))
    rows = read_csv(out / "predictions_test.csv")
    assert rows[0] == ["student_id", "p_hat"]
    assert [r[0] for r in rows[1:]] == [str(sid) for sid in splits["test"]]
    for row in rows[1:]:
        assert 0.0 <= float(row[1]) <= 1.0


def test_auc_csv_shape(pipeline):
    _, out = pipeline
    rows = read_csv(out / "auc.csv")
    assert rows[0] == ["model", "variant", "split", "n", "auc", "se"]
    assert rows[1][0] == "logreg"
    assert rows[1][1] == "academic"
    assert 0.0 <= float(rows[1][4]) <= 1.0
    assert float(rows[1][5]) > 0.0


def test_contraction_csv_covers_groupings(pipeline):
    _, out = pipeline
    rows = read_csv(out / "contraction_curve.csv")
    groupings = {r[0] for r in rows[1:]}
    assert groupings == {"within_program", "per_field", "ungrouped"}
    counter = read_csv(out / "contraction_counterfactual.csv")
    baselines = {r[0] for r in counter[1:]}
    assert "gpa" in baselines


def test_fairness_csv_covers_attributes(pipeline):
    _, out = pipeline
    rows = read_csv(out / "fairness_tests.csv")
    attributes = {r[0] for r in rows[1:]}
    assert attributes == {"female", "danish_origin", "ses_high"}
    criteria = {r[1] for r in rows[1:] if r[0] == "female"}
    assert {"independence", "separation_tpr", "separation_fpr", "sufficiency"} <= criteria


def test_match_csv_within_capacity(pipeline):
    _, out = pipeline
    rows = read_csv(out / "matches.csv")
    assert rows[0] == ["student_id", "program_id", "quota"]
    assert len(rows) > 1
    manifest = json.loads((out / "manifest_match.json").read_text(encoding="utf-8"))
    assert "0 blocking pairs" in manifest["notes"][0]


def test_econ_headline_values(pipeline):
    _, out = pipeline
    rows = {r[0]: r[1] for r in read_csv(out / "econ_headline.csv")[1:]}
    assert float(rows["graduate_revenue[377]"]) == pytest.approx(377 * 230_000.0)
    assert float(rows["override_cost_total"]) == pytest.approx((341 + 36) * 0.18 * 230_000.0)
    assert float(rows["taximeter[44000+21000]_dkk"]) == pytest.approx(153_000.0)


def test_contract_flag_overrides(pipeline, tmp_path):
    cfg, out = pipeline
    assert run("contract", "--config", cfg, "--out", out, "--fraction", 0.2, "--grouping", "ungrouped") == 0
    rows = read_csv(out / "contraction_curve.csv")
    assert {r[0] for r in rows[1:]} == {"ungrouped"}
    counter = read_csv(out / "contraction_counterfactual.csv")
    assert all(float(r[1]) == 0.2 for r in counter[1:])


def test_seed_override_changes_config_hash(pipeline, tmp_path):
    cfg, _ = pipeline
    out = tmp_path / "reseeded"
    assert run("generate", "--config", cfg, "--out", out, "--seed", 8) == 0
    manifest = json.loads((out / "manifest_generate.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 8
    base = json.loads(
        (pipeline[1] / "manifest_generate.json").read_text(encoding="utf-8")
    )
    assert manifest["config_hash"] != base["config_hash"]


def test_explain_rejects_tabular_model(pipeline, capsys):
    cfg, out = pipeline
    assert run("explain", "--config", cfg, "--out", out) == 1
    assert "sequence model" in capsys.readouterr().err


def test_corrupt_model_is_numerical_failure(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", variant="gpa_baseline")
    out = tmp_path / "run"
    for command in ("generate", "encode", "train"):
        assert run(command, "--config", cfg, "--out", out) == 0
    path = out / "model.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["weights"] = [float("nan")] * len(payload["weights"])
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert run("predict", "--config", cfg, "--out", out) == 3
    assert "non-finite" in capsys.readouterr().err


def test_sequence_pipeline_smoke(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        seed=3,
        cohort={"n_students": 260, "n_programs": 6, "start_year": 2007, "end_year": 2010},
        model={"family": "transformer", "params": {"n_layers": 1, "hidden": 16, "n_heads": 2, "dropout": 0.0}},
        training={"epochs": 2, "warmup": 5, "peak_lr": 2e-3},
    )
    out = tmp_path / "run"
    for command in ("generate", "encode", "train", "predict", "explain"):
        assert run(command, "--config", cfg, "--out", out) == 0, command
    assert (out / "model.bin").exists()
    history = json.loads((out / "training_history.json").read_text(encoding="utf-8"))
    assert len(history["train_loss"]) == history["epochs_run"]
    assert (out / "saliency_positions.csv").exists()
    assert (out / "saliency_channels.csv").exists()


def _tabular_run(parent, *flags):
    parent.mkdir()
    cfg = write_config(
        parent / "run.json",
        variant="gpa_baseline",
        float64=True,
        cohort={"n_students": 220, "n_programs": 6, "start_year": 2007, "end_year": 2010},
    )
    out = parent / "run"
    for command in ALL_COMMANDS:
        assert run(command, "--config", cfg, "--out", out, *flags) == 0, command
    return out


def assert_same_files(first, second):
    names = sorted(
        os.path.relpath(os.path.join(base, f), first)
        for base, _, files in os.walk(first)
        for f in files
    )
    assert names
    for name in names:
        a = (first / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b, f"{name} differs between reruns"


def test_rerun_is_byte_identical(tmp_path):
    assert_same_files(_tabular_run(tmp_path / "a"), _tabular_run(tmp_path / "b"))


def test_jobs_flag_leaves_run_directory_unchanged(tmp_path):
    assert_same_files(_tabular_run(tmp_path / "a", "--jobs", 1), _tabular_run(tmp_path / "b", "--jobs", 2))


def test_predict_matches_in_memory_tabular_model(tmp_path):
    cfg = write_config(tmp_path / "run.json", variant="everything")
    out = tmp_path / "run"
    for command in ("generate", "encode", "train", "predict"):
        assert run(command, "--config", cfg, "--out", out) == 0, command

    cohort = load_cohort(str(out / "cohort.jsonl"))
    splits = json.loads((out / "splits.json").read_text(encoding="utf-8"))
    by_id = {s.id: s for s in cohort.students}
    train = Cohort([by_id[i] for i in splits["train"]], cohort.programs, cohort.meta)
    test = [by_id[i] for i in splits["test"]]
    schema = fit_feature_schema(train, "everything")
    # the guard only bites when the categorical blocks are not in sorted order
    assert list(schema.ordinals) != sorted(schema.ordinals)
    assert list(schema.nominals) != sorted(schema.nominals)
    x, _, y = featurize(train, schema)
    want = train_logreg(x, y, C=1.0).predict_proba(featurize(test, schema)[0])

    rows = read_csv(out / "predictions_test.csv")
    assert rows[0] == ["student_id", "p_hat"]
    assert [r[0] for r in rows[1:]] == [str(s.id) for s in test]
    np.testing.assert_array_equal(np.array([float(r[1]) for r in rows[1:]]), want)


def test_schema_with_unordered_blocks_is_refused():
    payload = {"variant": "human", "expand_ordinals": True, "continuous": ["gpa"], "binary": [],
               "ordinals": {"human_decile": [1.0, 2.0]}, "nominals": {"program": ["P0"]}}
    with pytest.raises(ValueError, match="unordered"):
        FeatureSchema.from_dict(payload)


def test_minimal_config_hash_is_pinned(tmp_path):
    # the resolved defaults (grouping, baseline and attribute order included) feed every manifest
    path = tmp_path / "run.json"
    path.write_text('{"version": 1}', encoding="utf-8")
    digest = cli.config_hash(cli.load_config(str(path)))
    assert digest == "9158541202bd3290b494b793b73f94c1e81a9fea85823e1eb451ace47aa69562"


def test_editing_a_resolved_config_leaves_the_defaults_alone(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"version": 1}', encoding="utf-8")
    first = cli.load_config(str(path))
    digest = cli.config_hash(first)
    first["evaluation"]["fractions"].append(0.3)
    first["model"]["params"]["C"] = 5.0
    again = cli.load_config(str(path))
    assert again["evaluation"]["fractions"] == [0.1]
    assert again["model"]["params"] == {}
    assert cli.config_hash(again) == digest


def test_predict_refuses_reordered_sequence_rows(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "run.json",
        cohort={"n_students": 200, "n_programs": 6, "start_year": 2007, "end_year": 2010},
        model={"family": "lstm", "params": {"n_layers": 1, "hidden": 8}},
        training={"epochs": 1, "warmup": 2},
    )
    out = tmp_path / "run"
    for command in ("generate", "encode", "train"):
        assert run(command, "--config", cfg, "--out", out) == 0, command
    batch = TokenSequenceBatch.load(out / "test.aseq")
    order = np.arange(len(batch))
    order[[0, 1]] = [1, 0]
    batch.subset(order).save(out / "test.aseq")
    assert run("predict", "--config", cfg, "--out", out) == 1
    assert "test.aseq" in capsys.readouterr().err
    assert not (out / "predictions_test.csv").exists()


def test_report_refuses_runs_sharing_a_name(pipeline, tmp_path, capsys):
    cfg, out = pipeline
    runs = [tmp_path / "a" / "run", tmp_path / "b" / "run"]
    for copy in runs:
        shutil.copytree(out, copy)
    assert run("report", "--config", cfg, "--out", tmp_path / "merged", "--runs", *runs) == 1
    assert "'run'" in capsys.readouterr().err


def test_evaluate_refuses_empty_risk_table(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json")
    out = tmp_path / "run"
    out.mkdir()
    (out / "risk_test.csv").write_text("", encoding="utf-8")
    assert run("evaluate", "--config", cfg, "--out", out) == 1
    assert "risk_test.csv" in capsys.readouterr().err


@pytest.fixture(scope="module")
def lstm_run(tmp_path_factory):
    """A run directory holding a trained LSTM, and a transformer config for it."""
    root = tmp_path_factory.mktemp("lstm")
    common = {
        "cohort": {"n_students": 200, "n_programs": 6, "start_year": 2007, "end_year": 2010},
        "training": {"epochs": 1, "warmup": 2},
    }
    cfg = write_config(root / "lstm.json", model={"family": "lstm", "params": {"n_layers": 1, "hidden": 8}}, **common)
    out = root / "run"
    for command in ("generate", "encode", "train"):
        assert run(command, "--config", cfg, "--out", out) == 0, command
    transformer = {"family": "transformer", "params": {"n_layers": 1, "hidden": 8, "n_heads": 2}}
    return out, write_config(root / "transformer.json", model=transformer, **common)


@pytest.mark.parametrize(
    "command, output",
    [("predict", "predictions_test.csv"), ("explain", "saliency_positions.csv")],
    ids=["predict", "explain"],
)
def test_sequence_command_refuses_checkpoint_of_another_family(lstm_run, command, output, capsys):
    out, transformer_cfg = lstm_run
    assert run(command, "--config", transformer_cfg, "--out", out) == 1
    err = capsys.readouterr().err
    assert "lstm" in err and "transformer" in err
    assert not (out / output).exists()
