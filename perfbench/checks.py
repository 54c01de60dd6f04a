"""Independent checks of the program's outputs.

Each check recomputes what it can from the inputs by a different route
than the program takes (pairwise counting instead of ranks, a direct
blocking-pair scan instead of the package's own) and raises
``CheckFailed`` on the first disagreement.  The checks run outside the
timed region.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter

import numpy as np

PAD = 0  # the reserved [PAD] token id of admitsim.seqenc


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own count."""


def _fail(msg: str) -> None:
    raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# discrimination


def pairwise_auc(scores, labels) -> float:
    """AUC by counting every (positive, negative) pair: O(n^2)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    pos, neg = s[y], s[~y]
    if pos.size == 0 or neg.size == 0:
        _fail("AUC needs both outcome classes")
    wins = 0
    ties = 0
    for start in range(0, pos.size, 512):
        block = pos[start : start + 512, None]
        wins += int(np.count_nonzero(block > neg[None, :]))
        ties += int(np.count_nonzero(block == neg[None, :]))
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def check_auc(reported: float, scores, labels, planted_p) -> None:
    """The reported AUC equals the pairwise count to 1e-12 and lies
    between chance and the AUC of the planted completion probability."""
    counted = pairwise_auc(scores, labels)
    if abs(reported - counted) > 1e-12:
        _fail(f"reported AUC {reported!r} but pairwise count gives {counted!r}")
    ceiling = pairwise_auc(planted_p, labels)
    if not 0.5 < reported < ceiling:
        _fail(f"AUC {reported:.6f} outside (0.5, planted AUC {ceiling:.6f})")


# ---------------------------------------------------------------------------
# contraction


def check_curve(counts, graduates, outcome) -> None:
    """Curve bins account for every row and every graduate once."""
    outcome = np.asarray(outcome)
    if int(np.sum(counts)) != outcome.size:
        _fail(f"curve counts sum to {int(np.sum(counts))}, table has {outcome.size} rows")
    if int(np.sum(graduates)) != int(outcome.sum()):
        _fail(f"curve graduates sum to {int(np.sum(graduates))}, outcomes sum to {int(outcome.sum())}")


def check_rejected(n_rejected: int, program_ids, fraction: float) -> None:
    """n_rejected equals the sum over programs of ceil(fraction * intake)."""
    expected = sum(math.ceil(fraction * m) for m in Counter(program_ids).values())
    if n_rejected != expected:
        _fail(f"counterfactual rejects {n_rejected}, programs' intakes give {expected}")


# ---------------------------------------------------------------------------
# fairness


def check_independence(verdict, outcome) -> None:
    """Both groups cover the table; the rule flags exactly sum(outcome)."""
    outcome = np.asarray(outcome)
    if verdict.n_a + verdict.n_b != outcome.size:
        _fail(f"independence groups hold {verdict.n_a + verdict.n_b} of {outcome.size} rows")
    flagged = round(verdict.rate_a * verdict.n_a + verdict.rate_b * verdict.n_b)
    if flagged != int(outcome.sum()):
        _fail(f"independence rule flags {flagged}, outcomes sum to {int(outcome.sum())}")


def check_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        _fail(f"{name} = {value!r} lies outside [0, 1]")


def check_audit(audit, outcome) -> None:
    check_independence(audit["independence"], outcome)
    verdicts = [audit["independence"], audit["separation_tpr"], audit["separation_fpr"], *audit["sufficiency"].bins]
    for v in verdicts:
        if v.computable:
            check_unit_interval(f"{v.criterion} p-value", v.p_value)


# ---------------------------------------------------------------------------
# matching


def _slots(applicant, seats) -> list[tuple[str, str]]:
    """Expanded preference order: a program's GPA seat before its human seat."""
    out = []
    for pid in applicant.prefs:
        q1, q2 = seats[pid]
        if q1 > 0:
            out.append((pid, "gpa"))
        if q2 > 0 and pid in applicant.quota2_ranks:
            out.append((pid, "human"))
    return out


def _priority(applicant, index: int, slot) -> tuple:
    """Larger is stronger: GPA for quota 1, best human decile for quota 2;
    earlier applicants win ties."""
    pid, quota = slot
    if quota == "gpa":
        return (applicant.gpa, -index)
    return (-applicant.quota2_ranks[pid], -index)


def check_match(applicants, seats: dict[str, tuple[int, int]], assigned: dict) -> None:
    """No slot over capacity, nobody placed twice or off their list, and a
    direct scan finds no blocking pair.

    ``seats`` maps program id to (quota-1 seats, quota-2 seats);
    ``assigned`` maps applicant id to (program id, quota).
    """
    by_id = {a.id: (i, a) for i, a in enumerate(applicants)}
    if len(by_id) != len(applicants):
        _fail("duplicate applicant ids in the match input")
    holders: dict[tuple[str, str], list[tuple]] = {}
    for aid, slot in assigned.items():
        if aid not in by_id:
            _fail(f"match places unknown applicant {aid!r}")
        i, a = by_id[aid]
        if slot not in _slots(a, seats):
            _fail(f"applicant {aid!r} placed at {slot}, which is off their list")
        holders.setdefault(slot, []).append(_priority(a, i, slot))
    for (pid, quota), held in holders.items():
        cap = seats[pid][0 if quota == "gpa" else 1]
        if len(held) > cap:
            _fail(f"{pid}/{quota} holds {len(held)} applicants for {cap} seats")
    for i, a in enumerate(applicants):
        slots = _slots(a, seats)
        mine = assigned.get(a.id)
        better = slots if mine is None else slots[: slots.index(mine)]
        for slot in better:
            held = holders.get(slot, [])
            cap = seats[slot[0]][0 if slot[1] == "gpa" else 1]
            if len(held) < cap or _priority(a, i, slot) > min(held):
                _fail(f"applicant {a.id!r} and {slot} form a blocking pair")


def outcome_assignments(outcome) -> dict:
    """Applicant id -> (program, quota) from a MatchOutcome's admitted lists,
    failing on an applicant admitted twice."""
    out: dict = {}
    for pid, by_quota in outcome.admitted.items():
        for quota, ids in by_quota.items():
            for aid in ids:
                if aid in out:
                    _fail(f"applicant {aid!r} admitted twice")
                out[aid] = (pid, quota)
    return out


# ---------------------------------------------------------------------------
# token sequences and saliency


def check_batch(batch, vocab_size: int, completed) -> None:
    """Padding, id range and labels of an encoded batch."""
    tokens = batch.tokens
    n, _, length = tokens.shape
    if n != len(completed):
        _fail(f"batch holds {n} rows for {len(completed)} students")
    past = np.arange(length)[None, :] >= np.asarray(batch.lengths)[:, None]  # (N, L)
    if np.any(np.moveaxis(tokens, 1, 0)[:, past] != PAD):
        _fail("a position at or past a student's length is not [PAD]")
    if tokens.min() < 0 or tokens.max() >= vocab_size:
        _fail(f"token ids span [{tokens.min()}, {tokens.max()}] for a vocabulary of {vocab_size}")
    if not np.array_equal(np.asarray(batch.labels).astype(bool), np.asarray(completed, dtype=bool)):
        _fail("batch labels differ from the students' completed flags")


def check_saliency(pos_attr, lengths) -> None:
    """Attribution is exactly zero past each student's length."""
    past = np.arange(pos_attr.shape[1])[None, :] >= np.asarray(lengths)[:, None]
    if np.any(pos_attr[past] != 0.0):
        _fail("non-zero saliency at a position past a student's length")


def check_round_trip(before, after) -> None:
    if not np.array_equal(before, after):
        _fail("checkpoint round trip changed predict_proba")


# ---------------------------------------------------------------------------
# command-line run directory


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_cohort_file(path) -> tuple[dict, dict]:
    """(seats by program, student record by id) parsed straight from
    cohort.jsonl, without the package's loader."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        head = json.loads(fh.readline())
        students = {}
        for line in fh:
            if line.strip():
                d = json.loads(line)
                students[d["id"]] = d
    seats = {p["program_id"]: (p["seats_q1"], p["seats_q2"]) for p in head["programs"]}
    return seats, students


def check_run_dir(out: str, fraction: float, n_groupings: int) -> int:
    """Check a command-line run directory; return the number of
    counterfactual baseline rows written."""
    risk = read_csv(f"{out}/risk_test.csv")
    p_hat = np.array([float(r["p_hat"]) for r in risk])
    outcome = np.array([int(r["outcome"]) for r in risk])
    seats, students = read_cohort_file(f"{out}/cohort.jsonl")
    planted = np.array([students[int(r["student_id"])]["planted_p"] for r in risk])

    auc_rows = read_csv(f"{out}/auc.csv")
    if len(auc_rows) != 1 or int(auc_rows[0]["n"]) != len(risk):
        _fail("auc.csv does not describe the scored test split")
    check_auc(float(auc_rows[0]["auc"]), p_hat, outcome, planted)

    curves: dict[str, list[dict]] = {}
    for r in read_csv(f"{out}/contraction_curve.csv"):
        curves.setdefault(r["grouping"], []).append(r)
    if len(curves) != n_groupings:
        _fail(f"contraction_curve.csv holds {len(curves)} groupings, expected {n_groupings}")
    for rows in curves.values():
        check_curve([int(r["count"]) for r in rows], [int(r["graduates"]) for r in rows], outcome)

    baselines = read_csv(f"{out}/contraction_counterfactual.csv")
    for r in baselines:
        check_rejected(int(r["n_rejected"]), [x["program_id"] for x in risk], fraction)

    for r in read_csv(f"{out}/fairness_tests.csv"):
        if r["p_value"] not in ("", "nan"):
            check_unit_interval(f"{r['attribute']} {r['criterion']} p-value", float(r["p_value"]))
    for r in read_csv(f"{out}/abroca.csv"):
        if r["value"]:
            check_unit_interval(f"{r['attribute']} ABROCA", float(r["value"]))

    check_cli_matches(read_csv(f"{out}/matches.csv"), seats, students)
    return len(baselines)


def check_cli_matches(rows: list[dict], seats: dict, students: dict) -> None:
    """matches.csv respects the seats and application lists in cohort.jsonl."""
    taken: Counter = Counter()
    seen = set()
    for r in rows:
        sid = int(r["student_id"])
        if sid in seen:
            _fail(f"student {sid} appears twice in matches.csv")
        seen.add(sid)
        if not r["program_id"]:
            continue
        apps = [e for e in students[sid]["events"] if e["kind"] == "application"]
        listed = {e["program_id"] for e in apps}
        human = {e["program_id"] for e in apps if e["human_rank_decile"] is not None}
        if r["program_id"] not in listed or (r["quota"] == "human" and r["program_id"] not in human):
            _fail(f"student {sid} placed at {r['program_id']}/{r['quota']}, off their list")
        taken[(r["program_id"], r["quota"])] += 1
    for (pid, quota), k in taken.items():
        cap = seats[pid][0 if quota == "gpa" else 1]
        if k > cap:
            _fail(f"matches.csv puts {k} students in {pid}/{quota} with {cap} seats")
