"""The benchmark's three workloads.

Each workload makes its inputs from a seed in ``setup`` (counted in
set-up time), runs one round of its chain in ``run`` (the timed part), and
checks that round's outputs in ``check`` (untimed).  ``run`` counts every
operation it attempts and every one that fails.
"""

from __future__ import annotations

import ctypes
import gc
import json
import math
import os
import shutil
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from admitsim import cli, explain, fairness, matching, policy, seqenc
from admitsim import cohort as cohorts
from admitsim.cohort import ApplicationEvent, Cohort, GeneratorConfig
from admitsim.models import adapters, features, gbt, logreg, sequence

import checks

GROUPINGS = ("within_program", "per_field", "ungrouped")
ATTRIBUTES = ("female", "danish_origin", "ses_high")
FRACTION = 0.10  # the paper's 10% cut of intake

# Calls go through module attributes (``cohorts.generate_cohort``), never
# names imported into this module, so that a traced run sees them.

# tabular-20k: the criterion-8 cohort with its tabular models
TABULAR_STUDENTS = 20_000
GBT_PARAMS = dict(n_estimators=10, learning_rate=0.12, max_depth=4, subsample=0.8, colsample_bytree=0.8)

# sequence-train: a four-year cohort so the held-out year is a quarter of it
SEQ_COHORT = GeneratorConfig(n_students=6000, start_year=2014)
SEQ_TRAIN_STUDENTS = 2800
SEQ_MIN_COUNT = 100
SEQ_EPOCHS = 2
SEQ_BATCH = 16
SEQ_SALIENCY_N = 100
SEQ_ARCHS = {
    "transformer": (sequence.TransformerClassifier, sequence.TransformerConfig(n_layers=1), 1e-3),
    "lstm": (sequence.LSTMClassifier, sequence.LSTMConfig(n_layers=1), 3e-3),
}

# cli-pipeline: three years, so the scored test year is a third of the
# cohort; small enough that a run holds several rounds, whose median
# averages over the host's speed swings
CLI_STUDENTS = 3000
CLI_START_YEAR = 2015
CLI_COMMANDS = ("generate", "encode", "train", "predict", "evaluate", "contract", "audit-fairness",
                "explain", "match", "econ", "report")


class Ops:
    """Counts the operations a round attempts and the ones that fail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)


@dataclass
class Round:
    ops: Ops
    outputs: dict = field(default_factory=dict)
    aucs: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# tabular-20k


def _applicant(student) -> matching.Applicant | None:
    apps = sorted((e for e in student.events if isinstance(e, ApplicationEvent)), key=lambda e: e.rank)
    prefs = tuple(dict.fromkeys(e.program_id for e in apps))
    if not prefs:
        return None
    quota2 = {e.program_id: e.human_rank_decile for e in apps if e.quota2_opt_in and e.human_rank_decile is not None}
    return matching.Applicant(id=student.id, gpa=student.gpa, prefs=prefs, quota2_ranks=quota2)


def year_instances(cohort: Cohort, share: float = 1.0 - FRACTION) -> list[matching.MatchInstance]:
    """One match per admission year, each program's seats cut to ``share``
    of its intake that year (at least one seat), 80/20 over the quotas."""
    by_year: dict[int, list] = {}
    for s in cohort.students:
        by_year.setdefault(s.cohort_year, []).append(s)
    instances = []
    for year in sorted(by_year):
        students = by_year[year]
        intake = Counter(s.enrolled_program for s in students)
        programs = []
        for pid in sorted(cohort.programs):
            total = max(1, math.floor(share * intake[pid]))
            q2 = round(0.2 * total)
            programs.append(matching.ProgramSeats(pid, total - q2, q2))
        applicants = [a for a in map(_applicant, students) if a is not None]
        instances.append(matching.MatchInstance(applicants=applicants, programs=programs))
    return instances


def policy_chain(ops: Ops, table, out: dict) -> None:
    """AUC, contraction, fairness audit for one risk table."""
    out["auc"] = ops(policy.auc_se, table.p_hat, table.outcome)[0]
    out["curves"] = [ops(policy.contraction_curve, table, grouping=g) for g in GROUPINGS]
    out["counterfactual"] = ops(policy.contraction_counterfactual, table, baseline="gpa", fraction=FRACTION)
    out["audits"] = [ops(fairness.audit_attribute, table, a) for a in ATTRIBUTES]
    out["abroca"] = [ops(fairness.weighted_abroca, table, a) for a in ATTRIBUTES]


def check_policy(out: dict, table, planted) -> None:
    checks.check_auc(out["auc"], table.p_hat, table.outcome, planted)
    for curve in out["curves"]:
        checks.check_curve(curve.counts, curve.graduates, table.outcome)
    checks.check_rejected(out["counterfactual"].n_rejected, table.program_id, FRACTION)
    for audit in out["audits"]:
        checks.check_audit(audit, table.outcome)
    for wa in out["abroca"]:
        checks.check_unit_interval(f"{wa.attribute} ABROCA", wa.value)


class Tabular:
    name = "tabular-20k"

    def __init__(self, seed: int, run_dir: str) -> None:
        self.seed = seed

    def setup(self) -> None:
        pass

    def run(self, tracer) -> Round:
        r = Round(Ops())
        ops, seed = r.ops, self.seed
        cohort = ops(cohorts.generate_cohort, GeneratorConfig(n_students=TABULAR_STUDENTS), seed)
        train_all, test = ops(cohorts.temporal_split, cohort)
        train, _ = ops(cohorts.validation_split, train_all, 0.05, seed)
        schema = ops(features.fit_feature_schema, train, "everything")
        x_train, _, y_train = ops(features.featurize, train, schema)
        x_test, _, _ = ops(features.featurize, test, schema)
        models = {
            "logreg": ops(logreg.train_logreg, x_train, y_train, C=1.0, penalty="l2"),
            "gbt": ops(gbt.train_gbt, x_train, y_train, seed=seed, **GBT_PARAMS),
        }
        for name, model in models.items():
            table = ops(adapters.build_risk_table, test.students, ops(model.predict_proba, x_test))
            out = r.outputs[name] = {"table": table}
            policy_chain(ops, table, out)
            r.aucs.append(out["auc"])
        r.outputs["matches"] = []
        for instance in year_instances(cohort):
            outcome = ops(matching.david_q_match, instance)
            blocking = ops(matching.check_stability, instance, outcome)
            r.outputs["matches"].append((instance, outcome, blocking))
        r.outputs["planted"] = np.array([s.planted_p for s in test.students])
        return r

    def check(self, r: Round) -> None:
        for name in ("logreg", "gbt"):
            out = r.outputs[name]
            check_policy(out, out["table"], r.outputs["planted"])
        check_matches(r.outputs["matches"])


def check_matches(matches) -> None:
    for instance, outcome, blocking in matches:
        if blocking:
            raise checks.CheckFailed(f"check_stability reports {len(blocking)} blocking pairs")
        seats = {p.program_id: (p.seats_q1, p.seats_q2) for p in instance.programs}
        assigned = checks.outcome_assignments(outcome)
        checks.check_match(instance.applicants, seats, assigned)
        if len(assigned) + len(outcome.unassigned) != len(instance.applicants):
            raise checks.CheckFailed("assigned and unassigned applicants do not add up")


# ---------------------------------------------------------------------------
# sequence-train


class SequenceTrain:
    name = "sequence-train"

    def __init__(self, seed: int, run_dir: str) -> None:
        self.seed = seed
        self.run_dir = run_dir

    def setup(self) -> None:
        pass

    def run(self, tracer) -> Round:
        # the cohort is made here rather than in set-up: two seconds of
        # CPU work timed once per run made setup_s too unsteady to compare
        r = Round(Ops())
        ops, seed = r.ops, self.seed
        cohort = ops(cohorts.generate_cohort, SEQ_COHORT, seed)
        train_all, self.test = ops(cohorts.temporal_split, cohort)
        fit, self.val = ops(cohorts.validation_split, train_all, 0.05, seed)
        self.train = Cohort(fit.students[:SEQ_TRAIN_STUDENTS], fit.programs, fit.meta)
        rules = ops(seqenc.fit_binning_rules, self.train)
        vocab = ops(seqenc.build_vocabulary, self.train, "everything", min_count=SEQ_MIN_COUNT, rules=rules)
        length = seqenc.compute_L(ops(seqenc.sequence_lengths, self.train, "everything", rules))
        batches = {name: ops(seqenc.encode_cohort, part, vocab, rules, length)
                   for name, part in (("train", self.train), ("val", self.val), ("test", self.test))}
        r.outputs["vocab_size"] = len(vocab)
        r.outputs["batches"] = batches
        steps = SEQ_EPOCHS * math.ceil(len(self.train) / SEQ_BATCH)
        for arch, (cls, config, peak_lr) in SEQ_ARCHS.items():
            model = cls(len(vocab), config, seed=seed, vocab_hash=vocab.vocab_hash())
            ops(sequence.train_sequence_model, model, batches["train"], batches["val"], seed=seed,
                epochs=SEQ_EPOCHS, patience=SEQ_EPOCHS, batch_size=SEQ_BATCH, peak_lr=peak_lr,
                warmup=max(1, steps // 10))
            p_hat = ops(sequence.predict_proba, model, batches["test"])
            auc = ops(policy.auc_se, p_hat, batches["test"].labels)[0]
            path = os.path.join(self.run_dir, f"{arch}.bin")
            ops(sequence.save_checkpoint, model, path)
            loaded = ops(sequence.load_checkpoint, path)
            p_loaded = ops(sequence.predict_proba, loaded, batches["test"])
            profile = ops(explain.saliency_profile, loaded, batches["test"], n=SEQ_SALIENCY_N)
            r.outputs[arch] = dict(model=loaded, p_hat=p_hat, p_loaded=p_loaded, auc=auc, profile=profile)
            r.aucs.append(auc)
        return r

    def check(self, r: Round) -> None:
        batches = r.outputs["batches"]
        for name, part in (("train", self.train), ("val", self.val), ("test", self.test)):
            checks.check_batch(batches[name], r.outputs["vocab_size"], [s.completed for s in part.students])
        test = batches["test"]
        planted = np.array([s.planted_p for s in self.test.students])
        for arch in SEQ_ARCHS:
            out = r.outputs[arch]
            checks.check_auc(out["auc"], out["p_hat"], test.labels, planted)
            checks.check_round_trip(out["p_hat"], out["p_loaded"])
            tokens, lengths = test.tokens[:SEQ_SALIENCY_N], test.lengths[:SEQ_SALIENCY_N]
            pos_attr, _ = explain.inputxgrad(out["model"], tokens, lengths)
            checks.check_saliency(pos_attr, lengths)
            if not np.array_equal(out["profile"].forward_n, (np.arange(test.length)[None, :] < lengths[:, None]).sum(0)):
                raise checks.CheckFailed("saliency profile counts differ from the students' lengths")


# ---------------------------------------------------------------------------
# cli-pipeline


try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):  # not glibc: freed heap stays with the process
    _malloc_trim = None


class CliPipeline:
    """The eleven commands in process, with the logreg family.

    ``explain`` refuses a tabular model, so it runs under a companion
    config that differs only in the model family (a one-layer LSTM trained
    for one epoch by an extra ``train`` just before it).

    After each command the round collects garbage and hands freed heap
    back to the OS, as a fresh process per command would start clean.
    Without that, peak RSS depended on how earlier commands had left the
    heap: the same seed peaked anywhere from 135 to 156 MiB.
    """

    name = "cli-pipeline"

    def __init__(self, seed: int, run_dir: str) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.out = os.path.join(run_dir, "run")

    def setup(self) -> None:
        config = {
            "version": 1,
            "seed": self.seed,
            "variant": "everything",
            "cohort": {"n_students": CLI_STUDENTS, "start_year": CLI_START_YEAR},
            "model": {"family": "logreg", "params": {"C": 1.0, "penalty": "l2"}},
            "evaluation": {"fractions": [FRACTION], "baselines": ["gpa", "human"]},
        }
        self.config = os.path.join(self.run_dir, "run.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        config["model"] = {"family": "lstm", "params": {"n_layers": 1, "hidden": 16}}
        config["training"] = {"epochs": 1, "warmup": 5, "batch_size": 64}
        self.seq_config = os.path.join(self.run_dir, "explain.json")
        with open(self.seq_config, "w", encoding="utf-8") as fh:
            json.dump(config, fh)

    def _command(self, ops: Ops, tracer, span: str, argv: list[str]) -> None:
        with tracer.span(span, "cli"):
            code = ops(cli.main, argv + ["--out", self.out])
        gc.collect()
        if _malloc_trim is not None:
            _malloc_trim(0)
        if code != 0:
            raise checks.CheckFailed(f"`admitsim {' '.join(argv)}` exited {code}")

    def run(self, tracer) -> Round:
        shutil.rmtree(self.out, ignore_errors=True)
        r = Round(Ops())
        for command in CLI_COMMANDS:
            if command == "explain":
                self._command(r.ops, tracer, "cli.train_lstm", ["train", "--config", self.seq_config])
            config = self.seq_config if command == "explain" else self.config
            self._command(r.ops, tracer, f"cli.{command}", [command, "--config", config])
        # each requested baseline row is an operation of `contract`
        r.ops.attempted += 2
        return r

    def check(self, r: Round) -> None:
        written = checks.check_run_dir(self.out, FRACTION, len(GROUPINGS))
        r.ops.failed += 2 - written
        rows = checks.read_csv(os.path.join(self.out, "auc.csv"))
        r.aucs.append(float(rows[0]["auc"]))


WORKLOADS = {w.name: w for w in (Tabular, SequenceTrain, CliPipeline)}
