"""L1/L2/elastic-net logistic regression via FISTA proximal gradient.

One solver covers every penalty: the smooth part holds the log-loss plus
the ridge component, the proximal step soft-thresholds the lasso
component.  C follows the usual inverse-regularization convention
(total loss = sum of per-row log-losses + penalty(w) / C); the intercept
is never penalized.  Median imputation and column standardization are fit
with the model and replayed at prediction time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["LogisticModel", "train_logreg"]

_PENALTIES = (None, "none", "l2", "l1", "elasticnet")


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float
    medians: np.ndarray
    mu: np.ndarray
    sd: np.ndarray
    converged: bool
    n_iter: int

    def _prepare(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).copy()
        nan = np.isnan(x)
        if nan.any():
            x[nan] = np.broadcast_to(self.medians, x.shape)[nan]
        return (x - self.mu) / self.sd

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        return self._prepare(x) @ self.weights + self.intercept

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        z = self.decision_function(x)
        return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))

    def to_dict(self) -> dict:
        """JSON-ready fields; ``from_dict`` restores the model exactly."""
        return {
            "weights": self.weights.tolist(),
            "intercept": float(self.intercept),
            "medians": self.medians.tolist(),
            "mu": self.mu.tolist(),
            "sd": self.sd.tolist(),
            "converged": bool(self.converged),
            "n_iter": int(self.n_iter),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LogisticModel":
        return cls(
            weights=np.asarray(payload["weights"], dtype=np.float64),
            intercept=float(payload["intercept"]),
            medians=np.asarray(payload["medians"], dtype=np.float64),
            mu=np.asarray(payload["mu"], dtype=np.float64),
            sd=np.asarray(payload["sd"], dtype=np.float64),
            converged=bool(payload["converged"]),
            n_iter=int(payload["n_iter"]),
        )


def _log_loss(z: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))


def train_logreg(
    x: np.ndarray,
    y: np.ndarray,
    C: float = 1.0,
    penalty: str | None = "l2",
    l1_ratio: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> LogisticModel:
    if penalty not in _PENALTIES:
        raise ValueError(f"penalty must be one of {_PENALTIES}")
    if penalty == "elasticnet" and l1_ratio is None:
        raise ValueError("elasticnet requires l1_ratio")
    if C <= 0:
        raise ValueError("C must be positive")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape

    # median imputation, then standardization
    medians = np.zeros(d)
    for j in range(d):
        col = x[:, j]
        finite = col[~np.isnan(col)]
        medians[j] = np.median(finite) if finite.size else 0.0
    work = x.copy()
    nan = np.isnan(work)
    if nan.any():
        work[nan] = np.broadcast_to(medians, work.shape)[nan]
    mu = work.mean(axis=0)
    sd = work.std(axis=0)
    sd[sd == 0] = 1.0
    xs = (work - mu) / sd

    if penalty in (None, "none"):
        ridge, lasso = 0.0, 0.0
    elif penalty == "l2":
        ridge, lasso = 1.0 / C, 0.0
    elif penalty == "l1":
        ridge, lasso = 0.0, 1.0 / C
    else:
        ridge, lasso = (1.0 - l1_ratio) / C, l1_ratio / C

    # Lipschitz constant of the smooth part: ||X~||^2/4 + ridge
    aug = np.hstack([xs, np.ones((n, 1))])
    v = np.ones(d + 1) / np.sqrt(d + 1)
    for _ in range(60):
        v = aug.T @ (aug @ v)
        v /= np.linalg.norm(v)
    sigma2 = float(v @ (aug.T @ (aug @ v)))
    step = 1.0 / (0.25 * sigma2 + ridge + 1e-12)

    w = np.zeros(d)
    b = 0.0
    wy, by = w.copy(), b
    t_mom = 1.0
    prev_obj = np.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        z = xs @ wy + by
        p = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        r = p - y
        grad_w = xs.T @ r + ridge * wy
        grad_b = float(r.sum())
        w_new = wy - step * grad_w
        if lasso:
            thr = step * lasso
            w_new = np.sign(w_new) * np.maximum(np.abs(w_new) - thr, 0.0)
        b_new = by - step * grad_b

        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom**2))
        wy = w_new + ((t_mom - 1.0) / t_new) * (w_new - w)
        by = b_new + ((t_mom - 1.0) / t_new) * (b_new - b)
        w, b, t_mom = w_new, b_new, t_new

        obj = _log_loss(xs @ w + b, y) + 0.5 * ridge * float(w @ w) + lasso * float(np.abs(w).sum())
        if abs(prev_obj - obj) <= tol * max(1.0, abs(obj)):
            converged = True
            break
        if obj > prev_obj:
            # momentum overshoot: restart
            wy, by, t_mom = w.copy(), b, 1.0
        prev_obj = obj

    if not converged:
        warnings.warn(f"logistic regression did not converge in {it} iterations", stacklevel=2)
    return LogisticModel(weights=w, intercept=float(b), medians=medians, mu=mu, sd=sd, converged=converged, n_iter=it)
