"""Random hyperparameter search with k-fold cross-validated AUC.

Candidates are drawn once up front from fixed distributions, so a seed
pins the whole search.  Folds with a single outcome class are skipped
with a warning rather than failing the candidate.  Ties on mean AUC keep
the earliest candidate.
"""

from __future__ import annotations

import csv
import json
import math
import warnings

import numpy as np

from .._seeds import substream, substream_seed
from ..policy import auc
from .gbt import train_gbt
from .logreg import train_logreg

__all__ = ["draw_candidates", "fit_tabular", "random_search_cv"]

_PENALTY_CHOICES = (None, "l2", "l1", "elasticnet")


def draw_candidates(family: str, n_candidates: int, rng: np.random.Generator) -> list[dict]:
    out = []
    for _ in range(n_candidates):
        if family == "gbt":
            out.append(
                {
                    "learning_rate": rng.uniform(0.01, 0.99),
                    "max_depth": int(rng.integers(2, 13)),
                    "subsample": rng.uniform(0.01, 0.99),
                    "colsample_bytree": rng.uniform(0.01, 0.99),
                    "reg_lambda": rng.uniform(1e-9, 100.0),
                    "reg_alpha": rng.uniform(1e-9, 100.0),
                    "n_estimators": int(rng.integers(50, 5001)),
                }
            )
        elif family == "logreg":
            out.append(
                {
                    "C": math.exp(rng.uniform(math.log(1e-6), math.log(1e6))),
                    "penalty": _PENALTY_CHOICES[rng.integers(0, len(_PENALTY_CHOICES))],
                    "l1_ratio": rng.uniform(0.01, 0.99),
                }
            )
        else:
            raise ValueError(f"unknown model family {family!r}")
    return out


def fit_tabular(family: str, params: dict, x, y, seed: int = 0):
    """Fit a ``family`` model with its trainer's keyword ``params``; gbt draws from ``seed``."""
    if family == "logreg":
        return train_logreg(x, y, **params)
    if family == "gbt":
        return train_gbt(x, y, seed=seed, **params)
    raise ValueError(f"unknown model family {family!r}")


def random_search_cv(
    family: str,
    x: np.ndarray,
    y: np.ndarray,
    n_candidates: int = 30,
    k_folds: int = 3,
    seed: int = 0,
    log_path=None,
) -> tuple[dict, float, list[dict]]:
    """Returns (best_params, best_mean_auc, per_candidate_results)."""
    if k_folds < 2:
        raise ValueError("need at least two folds")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if len(x) < k_folds:
        raise ValueError("fewer rows than folds")
    rng = substream(seed, "search")
    candidates = draw_candidates(family, n_candidates, rng)
    folds = np.array_split(rng.permutation(len(x)), k_folds)

    results = []
    best_params: dict | None = None
    best_score = -np.inf
    for ci, params in enumerate(candidates):
        fold_aucs: list[float] = []
        for fi, val_idx in enumerate(folds):
            if len(np.unique(y[val_idx])) < 2:
                warnings.warn(f"candidate {ci}: fold {fi} has one outcome class, skipping", stacklevel=2)
                fold_aucs.append(float("nan"))
                continue
            tr_idx = np.setdiff1d(np.arange(len(x)), val_idx, assume_unique=True)
            if len(np.unique(y[tr_idx])) < 2:
                warnings.warn(f"candidate {ci}: fold {fi} training split has one outcome class, skipping", stacklevel=2)
                fold_aucs.append(float("nan"))
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # non-convergence at extreme penalties is expected
                model = fit_tabular(family, params, x[tr_idx], y[tr_idx], substream_seed(seed, f"fit-{ci}-{fi}"))
                probs = model.predict_proba(x[val_idx])
            fold_aucs.append(auc(probs, y[val_idx]))
        scored = [a for a in fold_aucs if not math.isnan(a)]
        mean_auc = float(np.mean(scored)) if scored else float("nan")
        results.append({"candidate": ci, "params": dict(params), "fold_aucs": fold_aucs, "mean_auc": mean_auc})
        if not math.isnan(mean_auc) and mean_auc > best_score:
            best_score = mean_auc
            best_params = dict(params)
    if best_params is None:
        raise ValueError("no candidate could be scored")

    if log_path is not None:
        with open(log_path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["candidate", "family", "params", *[f"auc_fold{i}" for i in range(k_folds)], "mean_auc"])
            for row in results:
                folds_out = ["" if math.isnan(a) else f"{a:.17g}" for a in row["fold_aucs"]]
                writer.writerow(
                    [row["candidate"], family, json.dumps(row["params"], sort_keys=True), *folds_out,
                     "" if math.isnan(row["mean_auc"]) else f"{row['mean_auc']:.17g}"]
                )
    return best_params, best_score, results
