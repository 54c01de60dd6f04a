from __future__ import annotations

import math

import numpy as np
import pytest

from admitsim import fairness
from admitsim.risk import RiskTable
from oracles import riemann_abroca


def _table(p_hat, outcome, member, program=None):
    n = len(p_hat)
    return RiskTable(
        student_id=np.array([f"s{i:05d}" for i in range(n)]),
        program_id=np.array(["P0"] * n if program is None else program),
        quota=np.array(["gpa"] * n),
        p_hat=np.asarray(p_hat, dtype=float),
        outcome=np.asarray(outcome),
        attributes={"g": np.asarray(member, dtype=bool)},
    )


# ---------------------------------------------------------------------------
# ABROCA


def test_abroca_zero_for_identical_groups():
    rng = np.random.default_rng(1)
    scores = rng.random(40)
    labels = rng.integers(0, 2, 40)
    labels[:2] = [0, 1]
    s = np.concatenate([scores, scores])
    y = np.concatenate([labels, labels])
    g = np.array([True] * 40 + [False] * 40)
    assert fairness.abroca(s, y, g) == 0.0


def test_abroca_maximal_for_opposed_rankings():
    # group A ranks perfectly, group B perfectly backwards
    s = np.array([0.1, 0.9, 0.9, 0.1])
    y = np.array([0, 1, 0, 1])
    g = np.array([True, True, False, False])
    assert fairness.abroca(s, y, g) == pytest.approx(1.0)


def test_abroca_between_zero_and_one_and_vs_auc_gap():
    from admitsim.policy import auc

    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(20, 80))
        s = rng.normal(size=n)  # continuous scores: no ties
        y = rng.integers(0, 2, n)
        g = rng.random(n) < 0.5
        # ensure both classes in both groups
        y[np.nonzero(g)[0][:2]] = [0, 1]
        y[np.nonzero(~g)[0][:2]] = [0, 1]
        val = fairness.abroca(s, y, g)
        assert 0.0 <= val <= 1.0
        gap = abs(auc(s[g], y[g]) - auc(s[~g], y[~g]))
        assert val >= gap - 1e-12


def test_abroca_matches_fine_grid_oracle():
    rng = np.random.default_rng(13)
    for trial in range(200):
        n = int(rng.integers(12, 60))
        # mix of tied and continuous scores
        if trial % 3 == 0:
            s = rng.integers(0, 6, n).astype(float)
        else:
            s = rng.normal(size=n)
        y = rng.integers(0, 2, n)
        g = rng.random(n) < 0.5
        if g.sum() < 2 or (~g).sum() < 2:
            continue
        y[np.nonzero(g)[0][:2]] = [0, 1]
        y[np.nonzero(~g)[0][:2]] = [0, 1]
        exact = fairness.abroca(s, y, g)
        approx = riemann_abroca(s, y, g, n_grid=1_000_000)
        assert abs(exact - approx) < 1e-6, f"trial {trial}"


def test_abroca_rank_invariance():
    rng = np.random.default_rng(3)
    s = rng.normal(size=60)
    y = rng.integers(0, 2, 60)
    g = rng.random(60) < 0.5
    y[np.nonzero(g)[0][:2]] = [0, 1]
    y[np.nonzero(~g)[0][:2]] = [0, 1]
    a1 = fairness.abroca(s, y, g)
    a2 = fairness.abroca(np.exp(2.0 * s), y, g)  # strictly monotone transform
    assert a1 == a2


def test_abroca_requires_both_classes_per_group():
    s = np.array([0.1, 0.2, 0.3, 0.4])
    y = np.array([1, 1, 0, 1])
    g = np.array([True, True, False, False])
    with pytest.raises(ValueError):
        fairness.abroca(s, y, g)


def test_weighted_abroca_skips_and_renormalizes():
    rng = np.random.default_rng(5)
    n_big = 60
    p_big = rng.random(n_big)
    y_big = rng.integers(0, 2, n_big)
    g_big = np.arange(n_big) % 2 == 0
    y_big[np.nonzero(g_big)[0][:2]] = [0, 1]
    y_big[np.nonzero(~g_big)[0][:2]] = [0, 1]
    # second program has a group below the privacy floor
    n_small = 12
    p_small = rng.random(n_small)
    y_small = rng.integers(0, 2, n_small)
    g_small = np.zeros(n_small, dtype=bool)
    g_small[:3] = True
    table = _table(
        np.concatenate([p_big, p_small]),
        np.concatenate([y_big, y_small]),
        np.concatenate([g_big, g_small]),
        program=np.array(["A"] * n_big + ["B"] * n_small),
    )
    res = fairness.weighted_abroca(table, "g")
    assert res.skipped == ["B"]
    assert set(res.per_program) == {"A"}
    assert res.weights["A"] == pytest.approx(1.0)
    assert res.value == pytest.approx(res.per_program["A"])


def test_weighted_abroca_weights_by_intake():
    rng = np.random.default_rng(8)

    def block(n, shift):
        p = rng.random(n)
        g = np.arange(n) % 2 == 0
        y = (rng.random(n) < np.clip(p + shift * g, 0.05, 0.95)).astype(int)
        y[np.nonzero(g)[0][:2]] = [0, 1]
        y[np.nonzero(~g)[0][:2]] = [0, 1]
        return p, y, g

    p1, y1, g1 = block(80, 0.0)
    p2, y2, g2 = block(40, 0.4)
    table = _table(
        np.concatenate([p1, p2]),
        np.concatenate([y1, y2]),
        np.concatenate([g1, g2]),
        program=np.array(["A"] * 80 + ["B"] * 40),
    )
    res = fairness.weighted_abroca(table, "g")
    w = res.weights
    assert w["A"] == pytest.approx(80 / 120)
    expect = w["A"] * res.per_program["A"] + w["B"] * res.per_program["B"]
    assert res.value == pytest.approx(expect)
    assert res.se >= 0.0


# ---------------------------------------------------------------------------
# z-tests


def test_two_proportion_z_hand_value():
    # rates 0.6 vs 0.5 with n=1000 each
    z, p = fairness.two_proportion_z(600, 1000, 500, 1000)
    assert z == pytest.approx(4.4947, abs=1e-3)
    assert p < 0.05


def test_two_proportion_z_degenerate():
    z, p = fairness.two_proportion_z(0, 10, 0, 10)
    assert math.isnan(z) and math.isnan(p)


def test_quantile_rule_marks_top_k():
    scores = np.array([0.1, 0.5, 0.3, 0.9])
    labels = fairness.quantile_rule_labels(scores, 2)
    assert labels.tolist() == [0, 1, 0, 1]
    assert fairness.quantile_rule_labels(scores, 0).sum() == 0


def test_independence_detects_planted_shift():
    rng = np.random.default_rng(17)
    n = 5000
    member = rng.random(n) < 0.5
    scores = rng.normal(size=n) + 0.3 * member
    outcome = (rng.random(n) < 0.5).astype(int)
    verdict = fairness.independence_test(_table(np.clip((scores + 4) / 8, 0, 1), outcome, member), "g")
    assert verdict.reject
    assert verdict.rate_a > verdict.rate_b


def test_independence_null_rejection_rate_calibrated():
    rng = np.random.default_rng(23)
    rejects = 0
    trials = 1000
    for _ in range(trials):
        n = 400
        member = rng.random(n) < 0.5
        scores = rng.random(n)
        outcome = (rng.random(n) < 0.4).astype(int)
        v = fairness.independence_test(_table(scores, outcome, member), "g")
        rejects += int(v.reject)
    assert 0.03 <= rejects / trials <= 0.07


def test_separation_tests_null_and_shift():
    rng = np.random.default_rng(29)
    n = 4000
    member = rng.random(n) < 0.5
    p = rng.random(n)
    outcome = (rng.random(n) < p).astype(int)
    tpr, fpr = fairness.separation_tests(_table(p, outcome, member), "g")
    assert tpr.criterion == "separation_tpr" and fpr.criterion == "separation_fpr"
    assert not tpr.reject and not fpr.reject
    # shift scores for one group: its TPR under the common cut rises
    shifted = np.clip(p + 0.25 * member, 0, 1)
    tpr2, fpr2 = fairness.separation_tests(_table(shifted, outcome, member), "g")
    assert tpr2.reject and fpr2.reject


def test_sufficiency_not_rejected_for_true_probabilities():
    # scores ARE the outcome probabilities: sufficiency holds by construction
    rng = np.random.default_rng(31)
    rejects = 0
    trials = 300
    for _ in range(trials):
        n = 1000
        member = rng.random(n) < 0.5
        p = 0.2 + 0.6 * rng.random(n)
        outcome = (rng.random(n) < p).astype(int)
        v = fairness.sufficiency_test(_table(p, outcome, member), "g")
        rejects += int(v.reject)
    assert rejects / trials <= 0.07


def test_sufficiency_detects_group_conditional_shift():
    rng = np.random.default_rng(37)
    n = 8000
    member = rng.random(n) < 0.5
    p = rng.random(n) * 0.6 + 0.2
    real = np.clip(p + 0.15 * member, 0, 1)  # scores understate one group
    outcome = (rng.random(n) < real).astype(int)
    v = fairness.sufficiency_test(_table(p, outcome, member), "g")
    assert v.reject


def test_sufficiency_empty_cell_not_computable():
    p = np.linspace(0, 1, 20)
    member = p < 0.5  # upper bins contain only non-members
    outcome = np.ones(20, dtype=int)
    outcome[::2] = 0
    v = fairness.sufficiency_test(_table(p, outcome, member), "g")
    assert any(not b.computable for b in v.bins)
    assert not v.reject


def test_audit_attribute_bundle():
    rng = np.random.default_rng(41)
    n = 500
    member = rng.random(n) < 0.5
    p = rng.random(n)
    outcome = (rng.random(n) < p).astype(int)
    out = fairness.audit_attribute(_table(p, outcome, member), "g")
    assert set(out) == {"independence", "separation_tpr", "separation_fpr", "sufficiency"}


@pytest.mark.parametrize("alpha", [0.05, 0.2])
def test_audit_sufficiency_uses_configured_alpha(alpha):
    rng = np.random.default_rng(42)
    n = 500
    member = rng.random(n) < 0.5
    p = rng.random(n)
    outcome = (rng.random(n) < p).astype(int)
    suff = fairness.audit_attribute(_table(p, outcome, member), "g", alpha=alpha)["sufficiency"]
    assert suff.alpha_per_bin == pytest.approx(alpha / 5)
    assert all(b.alpha == pytest.approx(alpha / 5) for b in suff.bins)
