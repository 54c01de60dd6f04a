"""Slow reference implementations used to cross-check the fast paths.

Everything here is written for clarity over speed and stays independent of
the fast paths it checks: direct series summation, pairwise concordance counts,
fine-grid quadrature, brute-force scans, and an LSTM unrolled into one
autograd node per elementary operation and time step.
"""

from __future__ import annotations

import numpy as np


def pv_series(a: float, k: int, r1: float, r2: float, r3: float, last_year: int = 2000) -> float:
    """Present value by summing the yearly series term by term."""
    total = 0.0
    for t in range(k, last_year + 1):
        if t <= 35:
            factor = r1**t
        elif t <= 70:
            factor = r1**35 * r2 ** (t - 35)
        else:
            factor = r1**35 * r2**35 * r3 ** (t - 70)
        total += a * factor
    return total


def pairwise_auc(scores, labels) -> float:
    """O(n^2) concordance count: P(s+ > s-) + 0.5 P(tie)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def bootstrap_auc_se(scores, labels, n_rep: int = 2000, seed: int = 0) -> float:
    """Nonparametric bootstrap SE of the AUC (resampling rows)."""
    from admitsim.policy import auc

    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    n = len(scores)
    values = []
    while len(values) < n_rep:
        idx = rng.integers(0, n, size=n)
        y = labels[idx]
        if y.sum() in (0, n):
            continue
        values.append(auc(scores[idx], y))
    return float(np.std(values, ddof=1))


def riemann_abroca(scores, labels, group, n_grid: int = 1_000_000) -> float:
    """ABROCA by fine-grid Riemann sum over right-continuous step ROCs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    group = np.asarray(group).astype(bool)

    def roc_fn(s, y):
        order = np.argsort(-s, kind="mergesort")
        ss, yy = s[order], y[order]
        n_pos = int(yy.sum())
        n_neg = len(yy) - n_pos
        ends = np.nonzero(np.append(ss[1:] != ss[:-1], True))[0]
        fpr = np.concatenate(([0.0], np.cumsum(1 - yy)[ends] / n_neg))
        tpr = np.concatenate(([0.0], np.cumsum(yy)[ends] / n_pos))

        def at(f):
            idx = np.searchsorted(fpr, f, side="right") - 1
            return tpr[np.maximum(idx, 0)]

        return at

    roc_a = roc_fn(scores[group], labels[group])
    roc_b = roc_fn(scores[~group], labels[~group])
    # midpoint evaluation on a uniform grid
    grid = (np.arange(n_grid) + 0.5) / n_grid
    return float(np.mean(np.abs(roc_a(grid) - roc_b(grid))))


def numeric_gradient(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, in float64."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = fn(x)
        flat[i] = orig - h
        f_minus = fn(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def lstm_per_step(x, layers, lengths):
    """Stacked LSTM built as one autograd node per elementary op and step.

    ``x`` is a (B, L, D) tensor and ``layers`` a list of (wx, wh, bias)
    tensors with gates laid out [input, forget, candidate, output].  Returns
    the (B, H) top-layer state at each row's last real position, held
    through the padded tail by masking; a zero-length row returns zeros.
    """
    import admitsim.autograd as ag

    b, l, d = x.shape
    lengths = np.asarray(lengths)
    dtype = x.data.dtype
    real = (np.arange(l)[None, :] < lengths[:, None]).astype(dtype)
    hidden = [ag.tensor(np.zeros((b, wh.shape[0]), dtype=dtype)) for _, wh, _ in layers]
    cell = [ag.tensor(np.zeros((b, wh.shape[0]), dtype=dtype)) for _, wh, _ in layers]
    last = ag.tensor(np.zeros((b, layers[-1][1].shape[0]), dtype=dtype))
    for t in range(l):
        inp = ag.reshape(ag.narrow(x, 1, t, 1), (b, d))
        for i, (wx, wh, bias) in enumerate(layers):
            h = wh.shape[0]
            z = ag.add(ag.add(ag.matmul(inp, wx), ag.matmul(hidden[i], wh)), bias)
            gate_i = ag.sigmoid(ag.narrow(z, 1, 0, h))
            gate_f = ag.sigmoid(ag.narrow(z, 1, h, h))
            gate_g = ag.tanh(ag.narrow(z, 1, 2 * h, h))
            gate_o = ag.sigmoid(ag.narrow(z, 1, 3 * h, h))
            cell[i] = ag.add(ag.mul(gate_f, cell[i]), ag.mul(gate_i, gate_g))
            hidden[i] = ag.mul(gate_o, ag.tanh(cell[i]))
            inp = hidden[i]
        m = real[:, t : t + 1]
        last = ag.add(ag.mul(last, ag.tensor(1.0 - m)), ag.mul(hidden[-1], ag.tensor(m)))
    return last
