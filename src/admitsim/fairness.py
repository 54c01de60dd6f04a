"""Group-fairness audits: ABROCA and classification-parity z-tests.

ABROCA is the exact area between two empirical ROC step curves placed on a
merged false-positive-rate grid, so no quadrature error enters.  The parity
tests compare rates between two groups with the pooled two-proportion
statistic z = (pa - pb) / sqrt(p(1-p)(1/na + 1/nb)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .risk import RiskTable, group_rows

__all__ = [
    "roc_steps",
    "abroca",
    "WeightedAbroca",
    "weighted_abroca",
    "two_proportion_z",
    "quantile_rule_labels",
    "FairnessVerdict",
    "SufficiencyVerdict",
    "independence_test",
    "separation_tests",
    "sufficiency_test",
    "audit_attribute",
    "PRIVACY_FLOOR",
]

PRIVACY_FLOOR = 5


def roc_steps(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Empirical ROC as a right-continuous step function.

    Returns (fpr, tpr) arrays starting at (0, 0); tied scores move both
    coordinates in one step.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(np.int64)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC requires both classes present")
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    y_sorted = y[order]
    block_end = np.nonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))[0]
    tp = np.cumsum(y_sorted)[block_end]
    fp = np.cumsum(1 - y_sorted)[block_end]
    fpr = np.concatenate(([0.0], fp / n_neg))
    tpr = np.concatenate(([0.0], tp / n_pos))
    return fpr, tpr


def _step_at(fpr: np.ndarray, tpr: np.ndarray, grid: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(fpr, grid, side="right") - 1
    return tpr[np.maximum(idx, 0)]


def abroca(scores, labels, group) -> float:
    """Area between the two group ROC curves, in [0, 1].

    ``group`` is a boolean membership vector; both groups must contain both
    outcome classes.  The integral is computed exactly on the union of the
    two step grids.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(np.int64)
    g = np.asarray(group).astype(bool)
    if not (len(s) == len(y) == len(g)):
        raise ValueError("inputs must have equal length")
    fpr_a, tpr_a = roc_steps(s[g], y[g])
    fpr_b, tpr_b = roc_steps(s[~g], y[~g])
    grid = np.unique(np.concatenate([fpr_a, fpr_b, [1.0]]))
    heights = np.abs(_step_at(fpr_a, tpr_a, grid[:-1]) - _step_at(fpr_b, tpr_b, grid[:-1]))
    return float(np.dot(heights, np.diff(grid)))


@dataclass
class WeightedAbroca:
    attribute: str
    value: float
    se: float
    per_program: dict[str, float]
    weights: dict[str, float]
    skipped: list[str]


def weighted_abroca(
    table: RiskTable,
    attribute: str,
    min_group: int = PRIVACY_FLOOR,
) -> WeightedAbroca:
    """Intake-weighted mean of per-program ABROCA for one attribute.

    Programs where either group falls below ``min_group`` members or lacks
    an outcome class are skipped and the intake weights renormalized over
    the rest.  The standard error is the plug-in weighted SE treating
    per-program values as independent observations.
    """
    if attribute not in table.attributes:
        raise KeyError(f"attribute {attribute!r} not in table")
    member = table.attributes[attribute]
    per_program: dict[str, float] = {}
    weights: dict[str, float] = {}
    skipped: list[str] = []
    for pid, rows in group_rows(table.program_id):
        g = member[rows]
        y = table.outcome[rows]
        n_in, n_out = int(g.sum()), int((~g).sum())
        if n_in < min_group or n_out < min_group:
            skipped.append(str(pid))
            continue
        if len(np.unique(y[g])) < 2 or len(np.unique(y[~g])) < 2:
            skipped.append(str(pid))
            continue
        per_program[str(pid)] = abroca(table.p_hat[rows], y, g)
        weights[str(pid)] = float(len(rows))
    if not per_program:
        raise ValueError("no program is computable under the privacy floor")
    total = sum(weights.values())
    weights = {k: w / total for k, w in weights.items()}
    value = sum(weights[k] * per_program[k] for k in per_program)
    se = math.sqrt(sum(weights[k] ** 2 * (per_program[k] - value) ** 2 for k in per_program))
    return WeightedAbroca(
        attribute=attribute,
        value=value,
        se=se,
        per_program=per_program,
        weights=weights,
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# classification-parity z-tests


def two_proportion_z(success_a: int, n_a: int, success_b: int, n_b: int) -> tuple[float, float]:
    """Pooled two-proportion z statistic and its two-sided normal p-value."""
    if n_a <= 0 or n_b <= 0:
        raise ValueError("both groups must be non-empty")
    p_a = success_a / n_a
    p_b = success_b / n_b
    pooled = (success_a + success_b) / (n_a + n_b)
    var = pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b)
    if var == 0.0:
        return math.nan, math.nan
    z = (p_a - p_b) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return z, p


def quantile_rule_labels(scores, n_positive: int) -> np.ndarray:
    """Binary decision labels marking the top ``n_positive`` scores.

    The cut count equals the number of observed positives, i.e. the decision
    rule admits at the base rate.  Score ties are resolved by stable input
    order.
    """
    s = np.asarray(scores, dtype=np.float64)
    if not 0 <= n_positive <= len(s):
        raise ValueError("n_positive outside [0, n]")
    order = np.argsort(-s, kind="mergesort")
    labels = np.zeros(len(s), dtype=np.int64)
    labels[order[:n_positive]] = 1
    return labels


@dataclass
class FairnessVerdict:
    criterion: str
    attribute: str
    z: float
    p_value: float
    alpha: float
    reject: bool
    rate_a: float
    rate_b: float
    n_a: int
    n_b: int
    computable: bool = True
    note: str = ""


@dataclass
class SufficiencyVerdict:
    attribute: str
    alpha_per_bin: float
    bins: list[FairnessVerdict] = field(default_factory=list)

    @property
    def reject(self) -> bool:
        return any(b.reject for b in self.bins if b.computable)


def _rate_test(criterion: str, attribute: str, labels, member, alpha: float) -> FairnessVerdict:
    labels = np.asarray(labels).astype(np.int64)
    member = np.asarray(member).astype(bool)
    n_a, n_b = int(member.sum()), int((~member).sum())
    if n_a == 0 or n_b == 0:
        return FairnessVerdict(
            criterion, attribute, math.nan, math.nan, alpha, False,
            math.nan, math.nan, n_a, n_b, computable=False, note="empty group",
        )
    s_a = int(labels[member].sum())
    s_b = int(labels[~member].sum())
    z, p = two_proportion_z(s_a, n_a, s_b, n_b)
    if math.isnan(z):
        return FairnessVerdict(
            criterion, attribute, z, p, alpha, False,
            s_a / n_a, s_b / n_b, n_a, n_b, computable=False, note="degenerate pooled rate",
        )
    return FairnessVerdict(criterion, attribute, z, p, alpha, bool(p < alpha), s_a / n_a, s_b / n_b, n_a, n_b)


def independence_test(table: RiskTable, attribute: str, alpha: float = 0.05) -> FairnessVerdict:
    """Test whether the decision rule admits both groups at the same rate."""
    member = table.attributes[attribute]
    y_hat = quantile_rule_labels(table.p_hat, int(table.outcome.sum()))
    return _rate_test("independence", attribute, y_hat, member, alpha)


def separation_tests(
    table: RiskTable, attribute: str, alpha: float = 0.05
) -> tuple[FairnessVerdict, FairnessVerdict]:
    """Equal-TPR and equal-FPR tests for the decision rule."""
    member = table.attributes[attribute]
    y_hat = quantile_rule_labels(table.p_hat, int(table.outcome.sum()))
    pos = table.outcome == 1
    neg = ~pos
    tpr = _rate_test("separation_tpr", attribute, y_hat[pos], member[pos], alpha)
    fpr = _rate_test("separation_fpr", attribute, y_hat[neg], member[neg], alpha)
    return tpr, fpr


_SUFFICIENCY_BINS = 5


def sufficiency_test(
    table: RiskTable,
    attribute: str,
    alpha_per_bin: float = 0.01,
    n_bins: int = _SUFFICIENCY_BINS,
) -> SufficiencyVerdict:
    """Test whether outcomes given the score are group-independent.

    Rows are cut into score-quantile bins (stable rank rule); within each
    bin the realized completion rates of the two groups are compared.  The
    audit rejects when any bin rejects at ``alpha_per_bin``, a Bonferroni
    allowance for the ``n_bins`` looks.
    """
    member = table.attributes[attribute]
    order = np.argsort(table.p_hat, kind="mergesort")
    bins = np.empty(len(table), dtype=np.int64)
    bins[order] = np.arange(len(table), dtype=np.int64) * n_bins // len(table)
    verdict = SufficiencyVerdict(attribute=attribute, alpha_per_bin=alpha_per_bin)
    for b in range(n_bins):
        mask = bins == b
        if not mask.any():
            verdict.bins.append(
                FairnessVerdict(
                    f"sufficiency_bin_{b}", attribute, math.nan, math.nan, alpha_per_bin,
                    False, math.nan, math.nan, 0, 0, computable=False, note="empty bin",
                )
            )
            continue
        verdict.bins.append(
            _rate_test(f"sufficiency_bin_{b}", attribute, table.outcome[mask], member[mask], alpha_per_bin)
        )
    return verdict


def audit_attribute(table: RiskTable, attribute: str, alpha: float = 0.05) -> dict:
    """Run the full battery for one attribute.

    Sufficiency tests each of its score bins at ``alpha`` over the number of bins.
    """
    tpr, fpr = separation_tests(table, attribute, alpha)
    return {
        "independence": independence_test(table, attribute, alpha),
        "separation_tpr": tpr,
        "separation_fpr": fpr,
        "sufficiency": sufficiency_test(table, attribute, alpha_per_bin=alpha / _SUFFICIENCY_BINS),
    }
