"""Ranking quality, contraction policies and decomposition of predictions.

The AUC here is the tie-aware ranking probability P(score+ > score-) +
0.5 P(tie), computed as the Mann-Whitney U of the positives' midranks.
Midranks are half-integers, so their float sums are exact and the result is
exactly what a pairwise count would give.  Standard errors come from the
DeLong structural-component decomposition over the same midranks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .risk import RiskTable, group_rows

__all__ = [
    "GROUPINGS",
    "BASELINES",
    "auc",
    "auc_se",
    "ContractionCurve",
    "contraction_curve",
    "ContractionReport",
    "contraction_counterfactual",
    "pearson",
    "spearman",
    "score_outcome_correlations",
    "within_program_rank_corr",
    "FEResult",
    "fit_two_way_fe",
    "residual_matrix",
]

GROUPINGS = ("within_program", "per_field", "ungrouped")
BASELINES = ("gpa", "human")


def _classes(scores, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores as float64 with the positive and negative row masks."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    pos = y == 1
    neg = y == 0
    if not pos.any() or not neg.any():
        raise ValueError("AUC requires both classes present")
    return s, pos, neg


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing their mean rank.

    NaN ranks above every number; NaN never equals NaN, so each NaN takes its
    own rank, in input order.
    """
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], len(xs))
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def _mann_whitney(pos_ranks: np.ndarray, n_neg: int) -> float:
    m = len(pos_ranks)
    return float(pos_ranks.sum() - 0.5 * m * (m + 1)) / (m * n_neg)


def auc(scores, labels) -> float:
    """Tie-aware AUC from the midranks of the positives."""
    s, pos, neg = _classes(scores, labels)
    return _mann_whitney(_midranks(s)[pos], int(neg.sum()))


def auc_se(scores, labels) -> tuple[float, float]:
    """AUC and its DeLong standard error.

    Returns NaN for the standard error when either class has fewer than two
    members, since the component variances are then undefined.
    """
    s, pos, neg = _classes(scores, labels)
    m, n = int(pos.sum()), int(neg.sum())
    r_all = _midranks(s)
    value = _mann_whitney(r_all[pos], n)
    if m < 2 or n < 2:
        return value, math.nan
    v10 = (r_all[pos] - _midranks(s[pos])) / n
    v01 = 1.0 - (r_all[neg] - _midranks(s[neg])) / m
    var = np.var(v10, ddof=1) / m + np.var(v01, ddof=1) / n
    return value, math.sqrt(max(var, 0.0))


# ---------------------------------------------------------------------------
# contraction


@dataclass
class ContractionCurve:
    grouping: str
    n_bins: int
    counts: np.ndarray
    graduates: np.ndarray

    @property
    def rates(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(self.counts > 0, self.graduates / np.maximum(self.counts, 1), np.nan)


def _group_keys(table: RiskTable, grouping: str) -> np.ndarray:
    if grouping == "within_program":
        return table.program_id
    if grouping == "per_field":
        if table.isced_field is None:
            raise ValueError("per_field grouping needs the isced_field column")
        return table.isced_field
    if grouping == "ungrouped":
        return np.zeros(len(table), dtype=np.int64)
    raise ValueError(f"unknown grouping {grouping!r}; expected one of {GROUPINGS}")


def contraction_curve(table: RiskTable, grouping: str = "within_program", n_bins: int = 10) -> ContractionCurve:
    """Mean completion by ascending-score bin, pooled over groups.

    Within each group students are sorted by score (ties broken by table
    order, i.e. stable student order) and split into ``n_bins`` rank bins;
    per-bin totals are pooled across groups weighted by membership, so the
    bin means average back to the overall completion rate.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    counts = np.zeros(n_bins, dtype=np.int64)
    grads = np.zeros(n_bins, dtype=np.int64)
    for key, rows in group_rows(_group_keys(table, grouping)):
        m = len(rows)
        if m < n_bins:
            warnings.warn(
                f"group {str(key)!r} has {m} students for {n_bins} bins; assigning by rank index",
                stacklevel=2,
            )
        order = np.argsort(table.p_hat[rows], kind="mergesort")
        bins = np.arange(m, dtype=np.int64) * n_bins // m
        outcome = table.outcome[rows][order]
        counts += np.bincount(bins, minlength=n_bins)
        grads += np.bincount(bins, weights=outcome, minlength=n_bins).astype(np.int64)
    return ContractionCurve(grouping=grouping, n_bins=n_bins, counts=counts, graduates=grads)


@dataclass
class ContractionReport:
    """Outcome of rejecting the bottom score fraction per program."""

    fraction: float
    baseline: str
    n_rejected: int
    model_graduates_rejected: int
    baseline_graduates_rejected: int
    model_rejected_rate: float
    baseline_rejected_rate: float

    @property
    def dropout_reduction(self) -> int:
        return self.baseline_graduates_rejected - self.model_graduates_rejected

    @property
    def pp_difference(self) -> float:
        return 100.0 * (self.baseline_rejected_rate - self.model_rejected_rate)


def contraction_counterfactual(
    table: RiskTable,
    baseline: str = "gpa",
    fraction: float = 0.10,
) -> ContractionReport:
    """Compare model-guided and baseline-guided intake contraction.

    Per program, the ceil(fraction * intake) lowest-ranked students are
    rejected, once by ascending model score and once by the baseline
    ranking: ascending GPA, or descending human-assessment decile (decile 1
    is best).  Reported counts are graduates among the rejected; fewer is
    better for the rejecting ranking.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    if baseline == "gpa":
        if table.gpa is None:
            raise ValueError("gpa baseline needs the gpa column")
        base_key = np.asarray(table.gpa, dtype=np.float64)
    elif baseline == "human":
        if table.human_decile is None:
            raise ValueError("human baseline needs the human_decile column")
        base_key = -np.asarray(table.human_decile, dtype=np.float64)
        if np.any(np.isnan(base_key)):
            raise ValueError("human baseline requires a decile for every row")
    else:
        raise ValueError(f"unknown baseline {baseline!r}; expected one of {BASELINES}")

    n_rejected = 0
    model_grads = 0
    base_grads = 0
    for _, rows in group_rows(table.program_id):
        k = math.ceil(fraction * len(rows))
        outcome = table.outcome[rows]
        model_order = np.argsort(table.p_hat[rows], kind="mergesort")
        base_order = np.argsort(base_key[rows], kind="mergesort")
        n_rejected += k
        model_grads += int(outcome[model_order[:k]].sum())
        base_grads += int(outcome[base_order[:k]].sum())
    return ContractionReport(
        fraction=fraction,
        baseline=baseline,
        n_rejected=n_rejected,
        model_graduates_rejected=model_grads,
        baseline_graduates_rejected=base_grads,
        model_rejected_rate=model_grads / n_rejected,
        baseline_rejected_rate=base_grads / n_rejected,
    )


# ---------------------------------------------------------------------------
# correlations


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if len(x) < 3:
        raise ValueError("correlation needs at least 3 pairs")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise ValueError("zero variance input")
    return float(xc @ yc) / denom


def spearman(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if len(x) < 3:
        raise ValueError("correlation needs at least 3 pairs")
    return pearson(_midranks(x), _midranks(y))


def score_outcome_correlations(table: RiskTable) -> dict[str, float]:
    """Pearson correlations of the score with realized outcomes."""
    out = {"p_hat_vs_outcome": pearson(table.p_hat, table.outcome.astype(np.float64))}
    if table.first_year_gpa is not None:
        ok = ~np.isnan(np.asarray(table.first_year_gpa, dtype=np.float64))
        out["p_hat_vs_first_year_gpa"] = pearson(
            table.p_hat[ok], np.asarray(table.first_year_gpa, dtype=np.float64)[ok]
        )
    return out


def within_program_rank_corr(table: RiskTable, other, min_size: int = 3) -> float:
    """Intake-weighted mean Spearman correlation of p_hat with ``other``.

    Computed within each program; programs with fewer than ``min_size``
    students (or no rank variation) are skipped.
    """
    other = np.asarray(other, dtype=np.float64)
    if other.shape != table.p_hat.shape:
        raise ValueError("other must match the table length")
    total_w = 0.0
    acc = 0.0
    for _, rows in group_rows(table.program_id):
        if len(rows) < min_size:
            continue
        a = table.p_hat[rows]
        b = other[rows]
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        acc += len(rows) * spearman(a, b)
        total_w += len(rows)
    if total_w == 0.0:
        raise ValueError("no program large enough for a rank correlation")
    return acc / total_w


# ---------------------------------------------------------------------------
# two-way fixed effects


FE_SPECS = ("student_only", "program_only", "both", "both_same_field")


@dataclass
class FEResult:
    spec: str
    alpha: float
    gamma: dict
    delta: dict
    beta: float | None
    beta_se: float | None
    residuals: np.ndarray
    converged: bool
    n_iter: int
    degenerate: bool = False


def _group_mean(values: np.ndarray, idx: np.ndarray, size: int) -> np.ndarray:
    sums = np.bincount(idx, weights=values, minlength=size)
    counts = np.bincount(idx, minlength=size)
    return sums / np.maximum(counts, 1)


def _within(y: np.ndarray, si: np.ndarray, pj: np.ndarray, n_i: int, n_j: int,
            use_i: bool, use_j: bool, tol: float, max_iter: int):
    """Residualize ``y`` on the requested fixed effects by alternating means."""
    gamma = np.zeros(n_i)
    delta = np.zeros(n_j)
    mu = float(y.mean())
    r = y - mu
    it = 0
    converged = not (use_i or use_j)
    for it in range(1, max_iter + 1):
        change = 0.0
        if use_i:
            g_new = _group_mean(r - (delta[pj] if use_j else 0.0), si, n_i)
            change = max(change, float(np.max(np.abs(g_new - gamma))) if n_i else 0.0)
            gamma = g_new
        if use_j:
            d_new = _group_mean(r - (gamma[si] if use_i else 0.0), pj, n_j)
            change = max(change, float(np.max(np.abs(d_new - delta))) if n_j else 0.0)
            delta = d_new
        if change < tol:
            converged = True
            break
    resid = r - (gamma[si] if use_i else 0.0) - (delta[pj] if use_j else 0.0)
    return resid, gamma, delta, mu, converged, it


def fit_two_way_fe(
    student_ids,
    program_ids,
    y,
    spec: str = "both",
    same_field=None,
    tol: float = 1e-10,
    max_iter: int = 2000,
) -> FEResult:
    """Decompose predictions into student effects, program effects and an
    optional same-field shift.

    ``spec`` selects which effects enter.  Effects are estimated by
    alternating within-group demeaning until the largest coefficient change
    falls below ``tol``; the same-field coefficient comes from the
    within-transformed regression (covariate residualized the same way),
    with a homoskedastic OLS standard error.
    """
    if spec not in FE_SPECS:
        raise ValueError(f"unknown spec {spec!r}; expected one of {FE_SPECS}")
    y = np.asarray(y, dtype=np.float64)
    sid = np.asarray(student_ids)
    pid = np.asarray(program_ids)
    if not (len(y) == len(sid) == len(pid)):
        raise ValueError("inputs must have equal length")
    uniq_i, si = np.unique(sid, return_inverse=True)
    uniq_j, pj = np.unique(pid, return_inverse=True)
    n_i, n_j = len(uniq_i), len(uniq_j)
    use_i = spec in ("student_only", "both", "both_same_field")
    use_j = spec in ("program_only", "both", "both_same_field")
    use_x = spec == "both_same_field"
    if use_x and same_field is None:
        raise ValueError("spec both_same_field needs the same_field covariate")

    beta = None
    beta_se = None
    degenerate = False

    if use_x:
        x = np.asarray(same_field, dtype=np.float64)
        if x.shape != y.shape:
            raise ValueError("same_field must match y")
        y_t, _, _, _, conv_y, it_y = _within(y, si, pj, n_i, n_j, use_i, use_j, tol, max_iter)
        x_t, _, _, _, conv_x, it_x = _within(x, si, pj, n_i, n_j, use_i, use_j, tol, max_iter)
        sxx = float(x_t @ x_t)
        if sxx < 1e-12 * max(1.0, float(x @ x)):
            # covariate absorbed by the fixed effects (e.g. single-program fields)
            degenerate = True
            beta = math.nan
            beta_se = math.nan
            work = y
        else:
            beta = float(x_t @ y_t) / sxx
            resid = y_t - beta * x_t
            n_params = 1 + (n_i - 1 if use_i else 0) + (n_j - 1 if use_j else 0) + 1
            dof = max(len(y) - n_params, 1)
            sigma2 = float(resid @ resid) / dof
            beta_se = math.sqrt(sigma2 / sxx)
            work = y - beta * x
        resid_w, gamma, delta, alpha, converged, n_iter = _within(
            work, si, pj, n_i, n_j, use_i, use_j, tol, max_iter
        )
        converged = converged and conv_y and conv_x
        n_iter = max(n_iter, it_y, it_x)
    else:
        resid_w, gamma, delta, alpha, converged, n_iter = _within(
            y, si, pj, n_i, n_j, use_i, use_j, tol, max_iter
        )

    # normalize effects to mean zero, folding shifts into the intercept
    if use_i and n_i:
        shift = float(gamma.mean())
        gamma = gamma - shift
        alpha += shift
    if use_j and n_j:
        shift = float(delta.mean())
        delta = delta - shift
        alpha += shift

    return FEResult(
        spec=spec,
        alpha=alpha,
        gamma={k: float(v) for k, v in zip(uniq_i.tolist(), gamma)} if use_i else {},
        delta={k: float(v) for k, v in zip(uniq_j.tolist(), delta)} if use_j else {},
        beta=beta,
        beta_se=beta_se,
        residuals=resid_w,
        converged=converged,
        n_iter=n_iter,
        degenerate=degenerate,
    )


def residual_matrix(residuals, row_keys, col_keys) -> dict:
    """Mean residual by (row key, column key) cell; empty cells omitted."""
    residuals = np.asarray(residuals, dtype=np.float64)
    row_keys = np.asarray(row_keys)
    col_keys = np.asarray(col_keys)
    out: dict = {}
    for rk in np.unique(row_keys):
        row: dict = {}
        rmask = row_keys == rk
        for ck in np.unique(col_keys[rmask]):
            cell = residuals[rmask & (col_keys == ck)]
            row[ck] = float(cell.mean())
        out[rk] = row
    return out
