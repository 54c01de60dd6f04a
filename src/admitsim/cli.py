"""Command line front end for the admission simulation pipeline.

Each subcommand reads a versioned JSON run configuration, consumes the
artifacts of earlier stages from the run directory, writes its own
artifacts plus a manifest, and exits 0 on success, 1 on a configuration
error, 2 on a missing upstream artifact (named on stderr), or 3 on a
numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import hashlib
import inspect
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from .cohort import (
    ApplicationEvent,
    Cohort,
    GeneratorConfig,
    Student,
    generate_cohort,
    load_cohort,
    save_cohort,
    temporal_split,
    validation_split,
)
from .econ import (
    DEFAULT_OVERRIDE_RATE,
    graduate_revenue,
    mvpf,
    override_cost,
    scenario_grid,
    taximeter_value,
    write_scenario_csv,
)
from .explain import saliency_profile
from .fairness import audit_attribute, weighted_abroca
from .matching import Applicant, MatchInstance, ProgramSeats, check_stability, david_q_match
from .models.adapters import ATTRIBUTES, build_risk_table
from .models.features import FeatureSchema, featurize, fit_feature_schema
from .models.gbt import GBTModel, train_gbt
from .models.logreg import LogisticModel, train_logreg
from .models.search import fit_tabular, random_search_cv
from .models.sequence import ARCHS, load_checkpoint, save_checkpoint, train_sequence_model
from .models.sequence import predict_proba as sequence_predict_proba
from .policy import (
    BASELINES,
    GROUPINGS,
    auc_se,
    contraction_counterfactual,
    contraction_curve,
    score_outcome_correlations,
)
from .risk import RiskTable
from .seqenc import (
    VARIANTS,
    TokenSequenceBatch,
    build_vocabulary,
    compute_L,
    encode_cohort,
    fit_binning_rules,
    sequence_lengths,
)

__all__ = ["ConfigError", "MissingArtifact", "load_config", "config_hash", "main"]


class ConfigError(Exception):
    """The run configuration or command line is invalid."""


class MissingArtifact(Exception):
    """A required input artifact has not been produced yet."""

    def __init__(self, path: str, producer: str) -> None:
        super().__init__(f"missing artifact: {path}; run `admitsim {producer}` first")
        self.path = path
        self.producer = producer


SPLITS = ("train", "val", "test")
# family -> (trainer, model class) of the tabular families; ARCHS holds the sequence ones
TABULAR = {"logreg": (train_logreg, LogisticModel), "gbt": (train_gbt, GBTModel)}

COHORT_FILE = "cohort.jsonl"
SPLITS_FILE = "splits.json"
VOCAB_FILE = "vocab.json"
BINNING_FILE = "binning.json"
ENCODE_META_FILE = "encode_meta.json"
MODEL_BIN_FILE = "model.bin"
MODEL_JSON_FILE = "model.json"
SCHEMA_FILE = "feature_schema.json"
HISTORY_FILE = "training_history.json"
SEARCH_LOG_FILE = "search_log.csv"
AUC_FILE = "auc.csv"
CORRELATIONS_FILE = "correlations.csv"
CURVE_FILE = "contraction_curve.csv"
COUNTERFACTUAL_FILE = "contraction_counterfactual.csv"
FAIRNESS_FILE = "fairness_tests.csv"
ABROCA_FILE = "abroca.csv"
SALIENCY_POSITIONS_FILE = "saliency_positions.csv"
SALIENCY_CHANNELS_FILE = "saliency_channels.csv"
MATCHES_FILE = "matches.csv"
ECON_SCENARIOS_FILE = "econ_scenarios.csv"
ECON_HEADLINE_FILE = "econ_headline.csv"
REPORT_DIR = "report"


def _batch_file(split: str) -> str:
    return f"{split}.aseq"


def _predictions_file(split: str) -> str:
    return f"predictions_{split}.csv"


def _risk_file(split: str) -> str:
    return f"risk_{split}.csv"


# ---------------------------------------------------------------------------
# run configuration


def _fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _keyword_defaults(fn, *drop: str) -> dict:
    """``fn``'s parameters that have a default, less ``drop``, mapped to it.

    The config's defaults are read from here, so ``admitsim`` and a library
    call with the same keywords left out fit and score the same way.
    """
    return {
        name: p.default
        for name, p in inspect.signature(fn).parameters.items()
        if p.default is not p.empty and name not in drop
    }


# model.params keys: a tabular trainer's keywords, or a sequence config's
# fields; the seed and dtype come from the top-level config
_MODEL_PARAM_KEYS = {
    **{family: set(_keyword_defaults(fn, "seed")) for family, (fn, _) in TABULAR.items()},
    **{arch: _fields(cfg_cls) - {"dtype"} for arch, (_, cfg_cls) in ARCHS.items()},
}
_COHORT_KEYS = _fields(GeneratorConfig)
_SEARCH_DEFAULTS = _keyword_defaults(random_search_cv, "seed", "log_path")
_TAXIMETER_YEARS = _keyword_defaults(taximeter_value)["years"]

_DEFAULTS: dict = {
    "version": 1,
    "seed": 0,
    "out_dir": ".",
    "float64": False,
    "variant": "everything",
    "min_count": _keyword_defaults(build_vocabulary)["min_count"],
    "holdout_year": _keyword_defaults(temporal_split)["holdout_year"],
    "val_fraction": _keyword_defaults(validation_split)["fraction"],
    "cohort": {},
    "model": {"family": "logreg", "params": {}, "search": None},
    "training": _keyword_defaults(train_sequence_model, "seed"),
    "evaluation": {
        "fractions": [_keyword_defaults(contraction_counterfactual)["fraction"]],
        "groupings": list(GROUPINGS),
        "n_bins": _keyword_defaults(contraction_curve)["n_bins"],
        "baselines": list(BASELINES),
    },
    "fairness": {"attributes": list(ATTRIBUTES), "alpha": _keyword_defaults(audit_attribute)["alpha"]},
    "econ": {
        "revenues": [0.0, 31_280_000.0, 86_710_000.0],
        "fixed_costs": [0.0, 10_000_000.0],
        "variable_costs": [0.0, 15_607_800.0],
        "delays": [0, 5],
        "extra_graduates": [377.0, 136.0],
        "n_overridden": [341.0, 36.0],
        "override_rate": DEFAULT_OVERRIDE_RATE,
        "taximeter": [
            {"yearly_rate_dkk": 44_000.0, "completion_bonus_dkk": 21_000.0, "years": _TAXIMETER_YEARS},
            {"yearly_rate_dkk": 92_400.0, "completion_bonus_dkk": 49_900.0, "years": _TAXIMETER_YEARS},
        ],
        "mvpf": None,
    },
    "explain": {"n_sequences": _keyword_defaults(saliency_profile)["n"]},
    "match": {"year": None},
}


def _fail(msg: str) -> None:
    raise ConfigError(msg)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_keys(section: str, got: dict, allowed) -> None:
    if not isinstance(got, dict):
        _fail(f"{section} must be an object")
    unknown = sorted(set(got) - set(allowed))
    if unknown:
        _fail(f"unknown {section} key(s): {', '.join(unknown)}")


def _check_int(section: str, name: str, v, lo=None) -> None:
    if not isinstance(v, int) or isinstance(v, bool):
        _fail(f"{section}.{name} must be an integer")
    if lo is not None and v < lo:
        _fail(f"{section}.{name} must be >= {lo}")


def _check_num_list(section: str, name: str, v) -> None:
    if not isinstance(v, list) or not v or not all(_is_num(x) for x in v):
        _fail(f"{section}.{name} must be a non-empty list of numbers")


def _merged(defaults: dict, given: dict) -> dict:
    out = dict(defaults)
    out.update(given)
    return out


def _validate(raw: dict) -> dict:
    _check_keys("config", raw, _DEFAULTS)
    if raw.get("version") != 1:
        _fail("config must declare version: 1")
    # a copy, so that a caller who edits the resolved config leaves the defaults alone
    defaults = copy.deepcopy(_DEFAULTS)
    cfg = {k: raw.get(k, v) for k, v in defaults.items()}
    for key in ("cohort", "model", "training", "evaluation", "fairness", "econ", "explain", "match"):
        _check_keys(key, cfg[key], defaults[key] if key != "cohort" else _COHORT_KEYS)
        if key != "cohort":
            cfg[key] = _merged(defaults[key], cfg[key])

    _check_int("config", "seed", cfg["seed"], lo=0)
    if not isinstance(cfg["out_dir"], str):
        _fail("config.out_dir must be a string")
    if not isinstance(cfg["float64"], bool):
        _fail("config.float64 must be a boolean")
    if cfg["variant"] not in VARIANTS:
        _fail(f"config.variant must be one of: {', '.join(sorted(VARIANTS))}")
    _check_int("config", "min_count", cfg["min_count"], lo=1)
    if cfg["holdout_year"] is not None:
        _check_int("config", "holdout_year", cfg["holdout_year"])
    if not _is_num(cfg["val_fraction"]) or not 0.0 < cfg["val_fraction"] < 1.0:
        _fail("config.val_fraction must lie in (0, 1)")

    try:
        GeneratorConfig(**cfg["cohort"])
    except (TypeError, ValueError) as exc:
        _fail(f"config.cohort is invalid: {exc}")

    model = cfg["model"]
    if model["family"] not in _MODEL_PARAM_KEYS:
        _fail(f"model.family must be one of: {', '.join(_MODEL_PARAM_KEYS)}")
    _check_keys("model.params", model["params"], _MODEL_PARAM_KEYS[model["family"]])
    search = model["search"]
    if search is not None:
        if model["family"] not in TABULAR:
            _fail("model.search is only supported for logreg and gbt")
        _check_keys("model.search", search, _SEARCH_DEFAULTS)
        search = _merged(_SEARCH_DEFAULTS, search)
        _check_int("model.search", "n_candidates", search["n_candidates"], lo=1)
        _check_int("model.search", "k_folds", search["k_folds"], lo=2)
        model["search"] = search

    tr = cfg["training"]
    _check_int("training", "epochs", tr["epochs"], lo=1)
    if tr["batch_size"] is not None:
        _check_int("training", "batch_size", tr["batch_size"], lo=1)
    if not _is_num(tr["peak_lr"]) or tr["peak_lr"] <= 0:
        _fail("training.peak_lr must be positive")
    _check_int("training", "warmup", tr["warmup"], lo=0)
    _check_int("training", "patience", tr["patience"], lo=1)
    if not _is_num(tr["weight_decay"]) or tr["weight_decay"] < 0:
        _fail("training.weight_decay must be non-negative")

    ev = cfg["evaluation"]
    _check_num_list("evaluation", "fractions", ev["fractions"])
    if not all(0.0 < f < 1.0 for f in ev["fractions"]):
        _fail("evaluation.fractions must lie in (0, 1)")
    if not ev["groupings"] or any(g not in GROUPINGS for g in ev["groupings"]):
        _fail(f"evaluation.groupings must be drawn from: {', '.join(GROUPINGS)}")
    _check_int("evaluation", "n_bins", ev["n_bins"], lo=2)
    if not ev["baselines"] or any(b not in BASELINES for b in ev["baselines"]):
        _fail(f"evaluation.baselines must be drawn from: {', '.join(BASELINES)}")

    fa = cfg["fairness"]
    if not fa["attributes"] or any(a not in ATTRIBUTES for a in fa["attributes"]):
        _fail(f"fairness.attributes must be drawn from: {', '.join(ATTRIBUTES)}")
    if not _is_num(fa["alpha"]) or not 0.0 < fa["alpha"] < 1.0:
        _fail("fairness.alpha must lie in (0, 1)")

    ec = cfg["econ"]
    for name in ("revenues", "fixed_costs", "variable_costs", "extra_graduates", "n_overridden"):
        _check_num_list("econ", name, ec[name])
    if not isinstance(ec["delays"], list) or not ec["delays"]:
        _fail("econ.delays must be a non-empty list of integers")
    for d in ec["delays"]:
        _check_int("econ", "delays", d, lo=0)
    if not _is_num(ec["override_rate"]) or not 0.0 <= ec["override_rate"] <= 1.0:
        _fail("econ.override_rate must lie in [0, 1]")
    if not isinstance(ec["taximeter"], list):
        _fail("econ.taximeter must be a list of objects")
    for entry in ec["taximeter"]:
        _check_keys("econ.taximeter", entry, {"yearly_rate_dkk", "completion_bonus_dkk", "years"})
        entry.setdefault("years", _TAXIMETER_YEARS)
        if not _is_num(entry.get("yearly_rate_dkk")) or not _is_num(entry.get("completion_bonus_dkk")):
            _fail("econ.taximeter entries need numeric yearly_rate_dkk and completion_bonus_dkk")
        _check_int("econ.taximeter", "years", entry["years"], lo=0)
    if ec["mvpf"] is not None:
        _check_keys("econ.mvpf", ec["mvpf"], {"delta_welfare", "net_govt_cost"})
        if not _is_num(ec["mvpf"].get("delta_welfare")) or not _is_num(ec["mvpf"].get("net_govt_cost")):
            _fail("econ.mvpf needs numeric delta_welfare and net_govt_cost")

    _check_int("explain", "n_sequences", cfg["explain"]["n_sequences"], lo=1)
    if cfg["match"]["year"] is not None:
        _check_int("match", "year", cfg["match"]["year"])
    return cfg


def load_config(path: str, overrides: dict | None = None) -> dict:
    """Load, validate, and resolve a run configuration file.

    ``overrides`` maps dotted config keys (``"seed"``, ``"evaluation.fractions"``)
    to values that replace the file's before validation, so an override is
    checked and hashed like any other entry.
    """
    if not os.path.exists(path):
        _fail(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            _fail(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        _fail("config must be a JSON object")
    for key, value in (overrides or {}).items():
        section, _, name = key.rpartition(".")
        node = raw.setdefault(section, {}) if section else raw
        # a section that is not an object is left for _validate to name
        if isinstance(node, dict):
            node[name] = value
    return _validate(raw)


def config_hash(cfg: dict) -> str:
    """Digest of the resolved configuration, ignoring the output directory."""
    hashed = {k: v for k, v in cfg.items() if k != "out_dir"}
    text = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# artifact plumbing


def _g(v) -> str:
    return format(float(v), ".17g")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _require(out: str, name: str, producer: str) -> str:
    path = os.path.join(out, name)
    if not os.path.exists(path):
        raise MissingArtifact(name, producer)
    return path


def _dump_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cell(v):
    """A CSV cell: a bool as 0/1, a float at full precision, anything else as is."""
    if isinstance(v, bool):
        return int(v)
    return _g(v) if isinstance(v, float) else v


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(out: str, command: str, cfg: dict, inputs, outputs, notes=None) -> str:
    manifest = {
        "command": command,
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "versions": {
            "admitsim": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "inputs": {name: _sha256(os.path.join(out, name)) for name in sorted(inputs)},
        "outputs": {name: _sha256(os.path.join(out, name)) for name in sorted(outputs)},
    }
    if notes:
        manifest["notes"] = list(notes)
    path = os.path.join(out, f"manifest_{command}.json")
    _dump_json(path, manifest)
    return path


def _ensure_out(cfg: dict) -> str:
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _load_splits(out: str) -> dict[str, list[str]]:
    return _load_json(_require(out, SPLITS_FILE, "encode"))


def _split_students(cohort: Cohort, ids: list[str]) -> list[Student]:
    by_id = {s.id: s for s in cohort.students}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise ValueError(f"split references unknown student id {missing[0]}")
    return [by_id[i] for i in ids]


def _check_family(found, family: str) -> None:
    if found != family:
        raise ConfigError(f"model file holds a {found} model but config asks for {family}")


def _load_sequence_model(out: str, family: str):
    model = load_checkpoint(_require(out, MODEL_BIN_FILE, "train"))
    _check_family(model.arch, family)
    return model


def _check_finite(arr, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"{what} contain non-finite values")


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg: dict, args) -> int:
    out = _ensure_out(cfg)
    cohort = generate_cohort(GeneratorConfig(**cfg["cohort"]), cfg["seed"])
    save_cohort(cohort, os.path.join(out, COHORT_FILE))
    _write_manifest(out, "generate", cfg, inputs=[], outputs=[COHORT_FILE])
    print(f"generated {len(cohort)} students across {len(cohort.programs)} programs")
    return 0


def cmd_encode(cfg: dict, args) -> int:
    out = _ensure_out(cfg)
    cohort = load_cohort(_require(out, COHORT_FILE, "generate"))
    train_all, test = temporal_split(cohort, cfg["holdout_year"])
    train, val = validation_split(train_all, cfg["val_fraction"], cfg["seed"])
    parts = dict(zip(SPLITS, (train, val, test)))
    _dump_json(os.path.join(out, SPLITS_FILE), {name: [s.id for s in part.students] for name, part in parts.items()})

    rules = fit_binning_rules(train)
    _dump_json(
        os.path.join(out, BINNING_FILE),
        {name: {"lo": r.lo, "hi": r.hi, "cuts": list(r.cuts)} for name, r in rules.items()},
    )
    vocab = build_vocabulary(train, cfg["variant"], min_count=cfg["min_count"], rules=rules)
    with open(os.path.join(out, VOCAB_FILE), "w", encoding="utf-8") as fh:
        fh.write(vocab.to_json())
    length = compute_L(sequence_lengths(train, cfg["variant"], rules))

    outputs = [SPLITS_FILE, BINNING_FILE, VOCAB_FILE, ENCODE_META_FILE]
    counts = {}
    for name, part in parts.items():
        batch = encode_cohort(part, vocab, rules, length)
        batch.save(os.path.join(out, _batch_file(name)))
        outputs.append(_batch_file(name))
        counts[f"n_{name}"] = len(part.students)

    meta = {
        "variant": cfg["variant"],
        "length": length,
        "vocab_size": len(vocab),
        "vocab_hash": vocab.vocab_hash(),
        **counts,
    }
    _dump_json(os.path.join(out, ENCODE_META_FILE), meta)
    _write_manifest(out, "encode", cfg, inputs=[COHORT_FILE], outputs=outputs)
    print(
        f"encoded {counts['n_train']}/{counts['n_val']}/{counts['n_test']} train/val/test students "
        f"at length {length} with {len(vocab)} tokens"
    )
    return 0


def _train_tabular(cfg: dict, out: str) -> tuple[list[str], list[str], list[str]]:
    family = cfg["model"]["family"]
    cohort = load_cohort(_require(out, COHORT_FILE, "generate"))
    splits = _load_splits(out)
    train = Cohort(_split_students(cohort, splits["train"]), cohort.programs, cohort.meta)

    schema = fit_feature_schema(train, cfg["variant"])
    _dump_json(os.path.join(out, SCHEMA_FILE), schema.to_dict())
    x, _, y = featurize(train, schema)

    params = dict(cfg["model"]["params"])
    notes = []
    outputs = [SCHEMA_FILE, MODEL_JSON_FILE]
    search = cfg["model"]["search"]
    if search is not None:
        params, best_auc, _ = random_search_cv(
            family, x, y, **search, seed=cfg["seed"], log_path=os.path.join(out, SEARCH_LOG_FILE)
        )
        outputs.append(SEARCH_LOG_FILE)
        notes.append(f"search selected {family} params with mean fold auc {best_auc:.6f}")

    model = fit_tabular(family, params, x, y, seed=cfg["seed"])
    if family == "logreg":
        _check_finite(model.weights, "fitted weights")
    else:
        _check_finite([model.base_margin], "fitted margins")
    _dump_json(os.path.join(out, MODEL_JSON_FILE), {"family": family, **model.to_dict()})
    return [COHORT_FILE, SPLITS_FILE], outputs, notes


def _train_sequence(cfg: dict, out: str) -> tuple[list[str], list[str], list[str]]:
    train_batch = TokenSequenceBatch.load(_require(out, _batch_file("train"), "encode"))
    val_batch = TokenSequenceBatch.load(_require(out, _batch_file("val"), "encode"))
    meta = _load_json(_require(out, ENCODE_META_FILE, "encode"))

    cls, cfg_cls = ARCHS[cfg["model"]["family"]]
    model_cfg = cfg_cls(dtype="float64" if cfg["float64"] else "float32", **cfg["model"]["params"])
    model = cls(meta["vocab_size"], model_cfg, seed=cfg["seed"], vocab_hash=meta["vocab_hash"])
    # the training section's keys are train_sequence_model's keywords
    history = train_sequence_model(model, train_batch, val_batch, seed=cfg["seed"], **cfg["training"])
    _check_finite(history["train_loss"], "training losses")
    _check_finite(history["val_loss"], "validation losses")
    save_checkpoint(model, os.path.join(out, MODEL_BIN_FILE))
    _dump_json(
        os.path.join(out, HISTORY_FILE),
        {k: [float(x) for x in v] if isinstance(v, list) else v for k, v in history.items()},
    )
    notes = [f"best epoch {history['best_epoch']} of {history['epochs_run']} run"]
    return [_batch_file("train"), _batch_file("val"), ENCODE_META_FILE], [MODEL_BIN_FILE, HISTORY_FILE], notes


def cmd_train(cfg: dict, args) -> int:
    out = _ensure_out(cfg)
    family = cfg["model"]["family"]
    if family in TABULAR:
        inputs, outputs, notes = _train_tabular(cfg, out)
    else:
        inputs, outputs, notes = _train_sequence(cfg, out)
    _write_manifest(out, "train", cfg, inputs=inputs, outputs=outputs, notes=notes)
    print(f"trained {family} model on the {cfg['variant']} variant")
    return 0


def cmd_predict(cfg: dict, args) -> int:
    out = _ensure_out(cfg)
    split = args.split
    family = cfg["model"]["family"]
    cohort = load_cohort(_require(out, COHORT_FILE, "generate"))
    splits = _load_splits(out)
    students = _split_students(cohort, splits[split])
    inputs = [COHORT_FILE, SPLITS_FILE]

    if family in TABULAR:
        schema = FeatureSchema.from_dict(_load_json(_require(out, SCHEMA_FILE, "train")))
        payload = _load_json(_require(out, MODEL_JSON_FILE, "train"))
        _check_family(payload.get("family"), family)
        _, model_cls = TABULAR[family]
        x, _, _ = featurize(students, schema)
        probs = model_cls.from_dict(payload).predict_proba(x)
        inputs += [SCHEMA_FILE, MODEL_JSON_FILE]
    else:
        model = _load_sequence_model(out, family)
        batch = TokenSequenceBatch.load(_require(out, _batch_file(split), "encode"))
        if not np.array_equal(batch.student_ids, [s.id for s in students]):
            raise ValueError(f"{_batch_file(split)} does not hold the {split} split's students in split order")
        probs = sequence_predict_proba(model, batch)
        inputs += [MODEL_BIN_FILE, _batch_file(split)]
    _check_finite(probs, "predictions")

    _write_csv(
        os.path.join(out, _predictions_file(split)),
        ["student_id", "p_hat"],
        ([student.id, _g(p)] for student, p in zip(students, probs)),
    )

    table = build_risk_table(students, probs)
    table.to_csv(os.path.join(out, _risk_file(split)))
    outputs = [_predictions_file(split), _risk_file(split)]
    _write_manifest(out, "predict", cfg, inputs=inputs, outputs=outputs)
    print(f"scored {len(students)} students on the {split} split")
    return 0


def cmd_evaluate(cfg: dict, args) -> int:
    out = _ensure_out(cfg)
    split = args.split
    table = RiskTable.from_csv(_require(out, _risk_file(split), "predict"))
    value, se = auc_se(table.p_hat, table.outcome)

    _write_csv(
        os.path.join(out, AUC_FILE),
        ["model", "variant", "split", "n", "auc", "se"],
        [[cfg["model"]["family"], cfg["variant"], split, len(table.p_hat), _g(value), _g(se)]],
    )
    corr = score_outcome_correlations(table)
    _write_csv(os.path.join(out, CORRELATIONS_FILE), ["metric", "value"], ([k, _g(corr[k])] for k in sorted(corr)))

    _write_manifest(
        out, "evaluate", cfg, inputs=[_risk_file(split)], outputs=[AUC_FILE, CORRELATIONS_FILE]
    )
    print(f"auc {value:.4f} (se {se:.4f}) on {len(table.p_hat)} {split} students")
    return 0


# ContractionReport attributes, in contraction_counterfactual.csv's column order
_COUNTERFACTUAL_COLUMNS = (
    "baseline",
    "fraction",
    "n_rejected",
    "model_graduates_rejected",
    "baseline_graduates_rejected",
    "model_rejected_rate",
    "baseline_rejected_rate",
    "dropout_reduction",
    "pp_difference",
)
# FairnessVerdict fields, in fairness_tests.csv's column order
_FAIRNESS_COLUMNS = ("attribute", "criterion", "z", "p_value", "alpha", "reject",
                     "rate_a", "rate_b", "n_a", "n_b", "computable", "note")


def cmd_contract(cfg: dict, args) -> int:
    out = _ensure_out(cfg)
    split = args.split
    table = RiskTable.from_csv(_require(out, _risk_file(split), "predict"))
    ev = cfg["evaluation"]
    groupings, fractions = ev["groupings"], ev["fractions"]

    curve_rows = []
    for grouping in groupings:
        curve = contraction_curve(table, grouping=grouping, n_bins=ev["n_bins"])
        for i in range(curve.n_bins):
            curve_rows.append([grouping, i + 1, int(curve.counts[i]), int(curve.graduates[i]), _g(curve.rates[i])])
    _write_csv(os.path.join(out, CURVE_FILE), ["grouping", "bin", "count", "graduates", "rate"], curve_rows)

    notes = []
    counter_rows = []
    for baseline in ev["baselines"]:
        for fraction in fractions:
            try:
                rep = contraction_counterfactual(table, baseline=baseline, fraction=fraction)
            except ValueError as exc:
                notes.append(f"baseline {baseline} at fraction {fraction:g} skipped: {exc}")
                continue
            counter_rows.append([_cell(getattr(rep, c)) for c in _COUNTERFACTUAL_COLUMNS])
    _write_csv(os.path.join(out, COUNTERFACTUAL_FILE), _COUNTERFACTUAL_COLUMNS, counter_rows)

    _write_manifest(
        out,
        "contract",
        cfg,
        inputs=[_risk_file(split)],
        outputs=[CURVE_FILE, COUNTERFACTUAL_FILE],
        notes=notes,
    )
    print(f"contraction tables written for {len(groupings)} grouping(s) and {len(fractions)} fraction(s)")
    return 0


def cmd_audit_fairness(cfg: dict, args) -> int:
    out = _ensure_out(cfg)
    split = args.split
    table = RiskTable.from_csv(_require(out, _risk_file(split), "predict"))
    attributes = cfg["fairness"]["attributes"]
    alpha = cfg["fairness"]["alpha"]

    test_rows = []
    for attribute in attributes:
        audit = audit_attribute(table, attribute, alpha=alpha)
        suff = audit["sufficiency"]
        verdicts = [audit["independence"], audit["separation_tpr"], audit["separation_fpr"], *suff.bins]
        test_rows.extend([_cell(getattr(v, c)) for c in _FAIRNESS_COLUMNS] for v in verdicts)
        summary = {"attribute": attribute, "criterion": "sufficiency", "alpha": suff.alpha_per_bin,
                   "reject": suff.reject, "computable": True, "note": f"{len(suff.bins)} bins"}
        test_rows.append([_cell(summary.get(c, "")) for c in _FAIRNESS_COLUMNS])
    _write_csv(os.path.join(out, FAIRNESS_FILE), _FAIRNESS_COLUMNS, test_rows)

    abroca_rows = []
    for attribute in attributes:
        try:
            wa = weighted_abroca(table, attribute)
        except ValueError as exc:
            abroca_rows.append([attribute, "", "", 0, 0, 0, str(exc)])
            continue
        abroca_rows.append([attribute, _g(wa.value), _g(wa.se), len(wa.per_program), len(wa.skipped), 1, ""])
    _write_csv(
        os.path.join(out, ABROCA_FILE),
        ["attribute", "value", "se", "n_programs", "n_skipped", "computable", "note"],
        abroca_rows,
    )

    _write_manifest(
        out,
        "audit-fairness",
        cfg,
        inputs=[_risk_file(split)],
        outputs=[FAIRNESS_FILE, ABROCA_FILE],
    )
    print(f"fairness audit written for {len(attributes)} attribute(s)")
    return 0


def cmd_explain(cfg: dict, args) -> int:
    out = _ensure_out(cfg)
    if cfg["model"]["family"] not in ARCHS:
        raise ConfigError("explain needs a sequence model (transformer or lstm)")
    split = args.split
    model = _load_sequence_model(out, cfg["model"]["family"])
    batch = TokenSequenceBatch.load(_require(out, _batch_file(split), "encode"))
    profile = saliency_profile(model, batch, n=cfg["explain"]["n_sequences"])
    profile.positions_to_csv(os.path.join(out, SALIENCY_POSITIONS_FILE))
    profile.channels_to_csv(os.path.join(out, SALIENCY_CHANNELS_FILE))
    _write_manifest(
        out,
        "explain",
        cfg,
        inputs=[MODEL_BIN_FILE, _batch_file(split)],
        outputs=[SALIENCY_POSITIONS_FILE, SALIENCY_CHANNELS_FILE],
    )
    print(f"saliency profiles written from {int(np.max(profile.forward_n))} sequences")
    return 0


def cmd_match(cfg: dict, args) -> int:
    out = _ensure_out(cfg)
    cohort = load_cohort(_require(out, COHORT_FILE, "generate"))
    year = cfg["match"]["year"]
    years = cohort.years()
    if year is None:
        year = max(years)
    if year not in years:
        raise ConfigError(f"match year {year} absent from cohort years {years[0]}..{years[-1]}")

    applicants = []
    for student in cohort.students:
        if student.cohort_year != year:
            continue
        apps = sorted(
            (ev for ev in student.events if isinstance(ev, ApplicationEvent)),
            key=lambda ev: ev.rank,
        )
        prefs = tuple(dict.fromkeys(ev.program_id for ev in apps))
        if not prefs:
            continue
        quota2 = {
            ev.program_id: ev.human_rank_decile
            for ev in apps
            if ev.quota2_opt_in and ev.human_rank_decile is not None
        }
        applicants.append(Applicant(id=student.id, gpa=student.gpa, prefs=prefs, quota2_ranks=quota2))

    programs = [
        ProgramSeats(p.program_id, p.seats_q1, p.seats_q2)
        for p in sorted(cohort.programs.values(), key=lambda p: p.program_id)
    ]
    instance = MatchInstance(applicants=applicants, programs=programs)
    outcome = david_q_match(instance)
    blocking = check_stability(instance, outcome)

    match_rows = []
    for applicant in applicants:
        assignment = outcome.assigned.get(applicant.id)
        if assignment is None:
            match_rows.append([applicant.id, "", ""])
        else:
            match_rows.append([applicant.id, assignment.program_id, assignment.quota])
    _write_csv(os.path.join(out, MATCHES_FILE), ["student_id", "program_id", "quota"], match_rows)

    notes = [
        f"year {year}: {len(applicants)} applicants, {len(outcome.unassigned)} unassigned, "
        f"{len(blocking)} blocking pairs"
    ]
    _write_manifest(out, "match", cfg, inputs=[COHORT_FILE], outputs=[MATCHES_FILE], notes=notes)
    print(notes[0])
    return 0


def cmd_econ(cfg: dict, args) -> int:
    out = _ensure_out(cfg)
    ec = cfg["econ"]
    results = scenario_grid(
        revenues=ec["revenues"],
        fixed_costs=ec["fixed_costs"],
        variable_costs=ec["variable_costs"],
        delays=ec["delays"],
    )
    write_scenario_csv(os.path.join(out, ECON_SCENARIOS_FILE), results)

    rows = [[f"graduate_revenue[{g:g}]", _g(graduate_revenue(g))] for g in ec["extra_graduates"]]
    total = 0.0
    for n in ec["n_overridden"]:
        cost = override_cost(n, rate=ec["override_rate"])
        total += cost
        rows.append([f"override_cost[{n:g}]", _g(cost)])
    rows.append(["override_cost_total", _g(total)])
    for entry in ec["taximeter"]:
        dkk, usd = taximeter_value(entry["yearly_rate_dkk"], entry["completion_bonus_dkk"], entry["years"])
        rows.append([f"taximeter[{entry['yearly_rate_dkk']:g}+{entry['completion_bonus_dkk']:g}]_dkk", _g(dkk)])
        rows.append([f"taximeter[{entry['yearly_rate_dkk']:g}+{entry['completion_bonus_dkk']:g}]_usd", _g(usd)])
    if ec["mvpf"] is not None:
        ratio = mvpf(ec["mvpf"]["delta_welfare"], ec["mvpf"]["net_govt_cost"])
        rows.append(["mvpf", "" if ratio is None else _g(ratio)])
    _write_csv(os.path.join(out, ECON_HEADLINE_FILE), ["label", "value"], rows)

    _write_manifest(
        out, "econ", cfg, inputs=[], outputs=[ECON_SCENARIOS_FILE, ECON_HEADLINE_FILE]
    )
    print(f"econ grid written with {len(results)} scenarios")
    return 0


_REPORT_SOURCES = [
    (AUC_FILE, "auc_grid.csv", "evaluate"),
    (CORRELATIONS_FILE, "correlations.csv", "evaluate"),
    (CURVE_FILE, "contraction_curves.csv", "contract"),
    (COUNTERFACTUAL_FILE, "contraction_counterfactuals.csv", "contract"),
    (FAIRNESS_FILE, "fairness_grid.csv", "audit-fairness"),
    (ABROCA_FILE, "abroca_grid.csv", "audit-fairness"),
    (ECON_SCENARIOS_FILE, "econ_grid.csv", "econ"),
    (ECON_HEADLINE_FILE, "econ_headline.csv", "econ"),
]


def cmd_report(cfg: dict, args) -> int:
    out = _ensure_out(cfg)
    runs = args.runs or [out]
    # rows are labelled by run directory basename, so two runs may not share one
    labels = [os.path.basename(os.path.normpath(run)) for run in runs]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"report --runs gives more than one run directory named {label!r}")
    report_dir = os.path.join(out, REPORT_DIR)
    os.makedirs(report_dir, exist_ok=True)

    for source, target, producer in _REPORT_SOURCES:
        header, rows = None, []
        for run, label in zip(runs, labels):
            path = os.path.join(run, source)
            if not os.path.exists(path):
                raise MissingArtifact(path, producer)
            with open(path, encoding="utf-8", newline="") as src:
                table = list(csv.reader(src))
            header = header or ["run"] + table[0]
            rows.extend([label] + row for row in table[1:])
        _write_csv(os.path.join(report_dir, target), header, rows)

    outputs = [os.path.join(REPORT_DIR, target) for _, target, _ in _REPORT_SOURCES]
    inputs = [src for src, _, _ in _REPORT_SOURCES] if runs == [out] else []
    _write_manifest(out, "report", cfg, inputs=inputs, outputs=outputs)
    print(f"report assembled from {len(runs)} run(s) into {report_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise ConfigError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to the JSON run configuration")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed (u64)")
    sub.add_argument("--out", default=None, help="override the config output directory")


# flag -> the config key it overrides; a flag for a list-valued key sets a one-entry list
_FLAG_KEYS = {
    "seed": "seed",
    "out": "out_dir",
    "fraction": "evaluation.fractions",
    "grouping": "evaluation.groupings",
    "attribute": "fairness.attributes",
    "year": "match.year",
}
_LIST_FLAGS = {"fraction", "grouping", "attribute"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="admitsim",
        description="Synthetic admission cohorts, dropout risk models, and policy evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    specs = [
        ("generate", cmd_generate, "generate a synthetic applicant cohort"),
        ("encode", cmd_encode, "split the cohort and encode token sequences"),
        ("train", cmd_train, "fit the configured risk model on the training split"),
        ("predict", cmd_predict, "score a split and write its risk table"),
        ("evaluate", cmd_evaluate, "compute discrimination metrics for a scored split"),
        ("contract", cmd_contract, "simulate intake contraction against ranking baselines"),
        ("audit-fairness", cmd_audit_fairness, "run group fairness tests on a scored split"),
        ("explain", cmd_explain, "write token saliency profiles for a sequence model"),
        ("match", cmd_match, "run the two-quota deferred acceptance match"),
        ("econ", cmd_econ, "evaluate the fiscal scenario grid"),
        ("report", cmd_report, "assemble evaluation artifacts into a report directory"),
    ]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text, description=help_text)
        _add_common(p)
        p.set_defaults(func=func)

    by_name = sub.choices
    for name in ("predict", "evaluate", "contract", "audit-fairness", "explain"):
        by_name[name].add_argument(
            "--split", choices=SPLITS, default="test", help="which cohort split to use"
        )
    by_name["contract"].add_argument(
        "--fraction", type=float, default=None, help="override the rejected intake fraction"
    )
    by_name["contract"].add_argument(
        "--grouping", choices=GROUPINGS, default=None, help="override the ranking pool grouping"
    )
    by_name["audit-fairness"].add_argument(
        "--attribute", choices=ATTRIBUTES, default=None, help="audit a single attribute"
    )
    by_name["match"].add_argument(
        "--year", type=int, default=None, help="admission year to match (default: latest)"
    )
    by_name["report"].add_argument(
        "--runs", nargs="+", default=None, help="run directories to assemble (default: the output directory)"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {
            key: [value] if flag in _LIST_FLAGS else value
            for flag, key in _FLAG_KEYS.items()
            if (value := getattr(args, flag, None)) is not None
        }
        return args.func(load_config(args.config, overrides), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MissingArtifact as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
