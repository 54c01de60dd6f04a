"""The benchmark's output checks pass on real outputs at small sizes and
fail on deliberately corrupted ones.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from admitsim import cli, explain, policy, seqenc  # noqa: E402
from admitsim.cohort import GeneratorConfig, generate_cohort, temporal_split  # noqa: E402
from admitsim.matching import david_q_match  # noqa: E402
from admitsim.models import adapters, features, logreg, sequence  # noqa: E402


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(GeneratorConfig(n_students=1500, start_year=2014), seed=3)


@pytest.fixture(scope="module")
def scored(cohort):
    train, test = temporal_split(cohort)
    schema = features.fit_feature_schema(train, "everything")
    x_train, _, y_train = features.featurize(train, schema)
    x_test, _, _ = features.featurize(test, schema)
    model = logreg.train_logreg(x_train, y_train, C=1.0, penalty="l2")
    table = adapters.build_risk_table(test.students, model.predict_proba(x_test))
    planted = np.array([s.planted_p for s in test.students])
    return table, planted


def test_auc_check_accepts_the_program_and_rejects_a_shift(scored):
    table, planted = scored
    value, _ = policy.auc_se(table.p_hat, table.outcome)
    checks.check_auc(value, table.p_hat, table.outcome, planted)
    with pytest.raises(checks.CheckFailed):
        checks.check_auc(value + 1e-9, table.p_hat, table.outcome, planted)
    # an AUC above the planted probability's own AUC cannot be right
    with pytest.raises(checks.CheckFailed, match="planted"):
        checks.check_auc(policy.auc(planted, table.outcome), planted, table.outcome, table.p_hat)


def test_pairwise_auc_counts_ties_as_half():
    assert checks.pairwise_auc([0.2, 0.2, 0.9, 0.1], [1, 0, 1, 0]) == pytest.approx(0.875, abs=0)


def test_curve_check_rejects_a_lost_row(scored):
    table, _ = scored
    for grouping in workloads.GROUPINGS:
        curve = policy.contraction_curve(table, grouping=grouping)
        checks.check_curve(curve.counts, curve.graduates, table.outcome)
    counts = curve.counts.copy()
    counts[0] -= 1
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_curve(counts, curve.graduates, table.outcome)


def test_rejected_count_check(scored):
    table, _ = scored
    rep = policy.contraction_counterfactual(table, baseline="gpa", fraction=0.1)
    checks.check_rejected(rep.n_rejected, table.program_id, 0.1)
    with pytest.raises(checks.CheckFailed):
        checks.check_rejected(rep.n_rejected - 1, table.program_id, 0.1)


def test_match_check_rejects_over_capacity_and_blocking(cohort):
    instance = workloads.year_instances(cohort)[-1]
    outcome = david_q_match(instance)
    seats = {p.program_id: (p.seats_q1, p.seats_q2) for p in instance.programs}
    assigned = checks.outcome_assignments(outcome)
    checks.check_match(instance.applicants, seats, assigned)

    # move one applicant into a listed GPA slot that is already full
    full = {slot for slot in set(assigned.values()) if slot[1] == "gpa"
            and sum(v == slot for v in assigned.values()) == seats[slot[0]][0]}
    mover = next(a for a in instance.applicants
                 if a.id in assigned and assigned[a.id] not in full and any((p, "gpa") in full for p in a.prefs))
    target = next((p, "gpa") for p in mover.prefs if (p, "gpa") in full)
    with pytest.raises(checks.CheckFailed, match="seats"):
        checks.check_match(instance.applicants, seats, {**assigned, mover.id: target})

    # leaving a seat empty that an unplaced applicant wants is a blocking pair
    dropped = {k: v for k, v in assigned.items() if k != mover.id}
    with pytest.raises(checks.CheckFailed, match="blocking"):
        checks.check_match(instance.applicants, seats, dropped)


def test_match_check_rejects_a_placement_off_the_list(cohort):
    instance = workloads.year_instances(cohort)[-1]
    seats = {p.program_id: (p.seats_q1, p.seats_q2) for p in instance.programs}
    assigned = checks.outcome_assignments(david_q_match(instance))
    a = next(a for a in instance.applicants if a.id in assigned)
    elsewhere = next(pid for pid in seats if pid not in a.prefs)
    with pytest.raises(checks.CheckFailed, match="off their list"):
        checks.check_match(instance.applicants, seats, {**assigned, a.id: (elsewhere, "gpa")})


@pytest.fixture(scope="module")
def encoded(cohort):
    train, test = temporal_split(cohort)
    rules = seqenc.fit_binning_rules(train)
    vocab = seqenc.build_vocabulary(train, "everything", min_count=20, rules=rules)
    length = seqenc.compute_L(seqenc.sequence_lengths(train, "everything", rules))
    batch = seqenc.encode_cohort(test, vocab, rules, length)
    model = sequence.TransformerClassifier(len(vocab), sequence.TransformerConfig(n_layers=1, hidden=8, n_heads=2),
                                           seed=0, vocab_hash=vocab.vocab_hash())
    return test, vocab, batch, model


def test_batch_check_rejects_a_token_past_the_length(encoded):
    test, vocab, batch, _ = encoded
    completed = [s.completed for s in test.students]
    checks.check_batch(batch, len(vocab), completed)
    short = int(np.argmin(batch.lengths))
    bad = batch.subset(np.arange(len(batch)))
    bad.tokens = bad.tokens.copy()
    bad.tokens[short, 1, batch.lengths[short]] = len(vocab) - 1
    with pytest.raises(checks.CheckFailed, match="PAD"):
        checks.check_batch(bad, len(vocab), completed)
    with pytest.raises(checks.CheckFailed, match="labels"):
        checks.check_batch(batch, len(vocab), [not c for c in completed])


def test_saliency_check_rejects_attribution_past_the_length(encoded):
    _, _, batch, model = encoded
    tokens, lengths = batch.tokens[:20], batch.lengths[:20]
    pos_attr, _ = explain.inputxgrad(model, tokens, lengths)
    checks.check_saliency(pos_attr, lengths)
    short = int(np.argmin(lengths))
    pos_attr[short, lengths[short]] = 1e-30
    with pytest.raises(checks.CheckFailed, match="saliency"):
        checks.check_saliency(pos_attr, lengths)


def test_round_trip_check(encoded, tmp_path):
    _, _, batch, model = encoded
    path = tmp_path / "model.bin"
    sequence.save_checkpoint(model, path)
    before = sequence.predict_proba(model, batch)
    after = sequence.predict_proba(sequence.load_checkpoint(path), batch)
    checks.check_round_trip(before, after)
    after[0] = np.nextafter(after[0], 1.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_round_trip(before, after)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    config = out / "run.json"
    config.write_text(json.dumps({
        "version": 1, "seed": 5, "cohort": {"n_students": 1200},
        "model": {"family": "logreg", "params": {"C": 1.0, "penalty": "l2"}},
    }))
    for command in ("generate", "encode", "train", "predict", "evaluate", "contract", "audit-fairness", "match"):
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    return out


def _rewrite(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_run_dir_check_passes_and_counts_the_missing_human_row(run_dir):
    # the human baseline needs a decile for every test row, which only
    # quota-2 applicants carry, so only the GPA row is written
    assert checks.check_run_dir(str(run_dir), 0.1, len(workloads.GROUPINGS)) == 1


@pytest.mark.parametrize("name, edit, message", [
    ("auc.csv", lambda rows: rows[0].update(auc=str(float(rows[0]["auc"]) + 1e-6)), "pairwise"),
    ("contraction_curve.csv", lambda rows: rows[0].update(count=str(int(rows[0]["count"]) - 1)), "rows"),
])
def test_run_dir_check_rejects_corrupted_files(run_dir, tmp_path, name, edit, message):
    copy = tmp_path / "run"
    os.makedirs(copy)
    for f in os.listdir(run_dir):
        if os.path.isfile(run_dir / f):
            (copy / f).write_bytes((run_dir / f).read_bytes())
    _rewrite(copy / name, edit)
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_run_dir(str(copy), 0.1, len(workloads.GROUPINGS))


def test_cli_match_check_rejects_over_capacity(run_dir):
    seats, students = checks.read_cohort_file(run_dir / "cohort.jsonl")
    rows = checks.read_csv(run_dir / "matches.csv")
    checks.check_cli_matches(rows, seats, students)
    placed = next(r for r in rows if r["program_id"] and r["quota"] == "gpa")
    cap = seats[placed["program_id"]][0]
    extra = []
    for sid, s in students.items():
        listed = {e["program_id"] for e in s["events"] if e["kind"] == "application"}
        if placed["program_id"] in listed and all(int(r["student_id"]) != sid for r in rows):
            extra.append({"student_id": str(sid), "program_id": placed["program_id"], "quota": "gpa"})
        if len(extra) > cap:
            break
    with pytest.raises(checks.CheckFailed, match="seats"):
        checks.check_cli_matches(rows + extra, seats, students)
