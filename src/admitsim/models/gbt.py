"""Gradient-boosted trees for binary outcomes.

Second-order boosting on the logistic loss with exact greedy splits.
Split quality uses L1-thresholded gradient sums, so `reg_alpha` shrinks
leaves the same way it does in the usual boosting libraries:

    T(G)  = sign(G) * max(|G| - alpha, 0)
    score = T(G)^2 / (H + lambda)
    gain  = (score_left + score_right - score_parent) / 2
    leaf  = -T(G) / (H + lambda)

Split finding is exact greedy with sparsity-aware missing values (Chen &
Guestrin 2016).  ``train_gbt`` codes each column once per fit: a value's
code is its index among the column's sorted distinct values, and NaN gets
the code after the last.  At each depth, per column, the (frontier node,
code) pairs present among the rows are listed in order, by a table over
all pairs while it is small and by a sort of the rows' pairs once it is
not, and ``np.bincount`` gives each pair's gradient and hessian sums.  A
cumulative sum over a node's present codes then scores every cut between
two adjacent present values, exactly the partitions a sort of the node's
rows would give.  The threshold is the midpoint of the two values, and rows
are routed with the same ``value < threshold`` comparison that prediction
uses.

Missing values learn a default direction per split by trying both sides.
Tie-breaking is deterministic: the lowest feature index wins, then the
lowest threshold, and a missing-direction tie goes left.  A node with no
NaN in a column has an empty NaN bin whose sums are exactly 0, so both
directions gain the same and NaN goes left.  Two features that cut a node
into the same two row sets (or, in the first tree, where every row has the
same hessian, into sets with the same label counts) tie in exact
arithmetic; their sums are added in different orders, so rounding, not the
feature index, decides between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._seeds import substream

__all__ = ["GBTModel", "train_gbt"]


@dataclass
class _Tree:
    feature: np.ndarray   # global column index, -1 for leaves
    threshold: np.ndarray
    nan_left: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        idx = np.zeros(x.shape[0], dtype=np.int64)
        for _ in range(self.depth):
            feat = self.feature[idx]
            live = np.flatnonzero(feat >= 0)
            if live.size == 0:
                break
            v = x[live, feat[live]]
            at = idx[live]
            go_left = np.where(np.isnan(v), self.nan_left[at], v < self.threshold[at])
            idx[live] = np.where(go_left, self.left[at], self.right[at])
        return self.value[idx]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "nan_left": self.nan_left.astype(int).tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "depth": int(self.depth),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "_Tree":
        return cls(
            feature=np.asarray(payload["feature"], dtype=np.int64),
            threshold=np.asarray(payload["threshold"], dtype=np.float64),
            nan_left=np.asarray(payload["nan_left"], dtype=bool),
            left=np.asarray(payload["left"], dtype=np.int64),
            right=np.asarray(payload["right"], dtype=np.int64),
            value=np.asarray(payload["value"], dtype=np.float64),
            depth=int(payload["depth"]),
        )


def _t(g: np.ndarray | float, alpha: float):
    return np.sign(g) * np.maximum(np.abs(g) - alpha, 0.0)


@dataclass
class GBTModel:
    trees: list[_Tree] = field(default_factory=list)
    base_margin: float = 0.0
    n_features: int = 0

    def predict_margin(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {x.shape[1]}")
        z = np.full(x.shape[0], self.base_margin)
        for tree in self.trees:
            z += tree.predict(x)
        return z

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        z = self.predict_margin(x)
        return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))

    def to_dict(self) -> dict:
        """JSON-ready fields (``nan_left`` as 0/1); ``from_dict`` restores the model exactly."""
        return {
            "base_margin": float(self.base_margin),
            "n_features": int(self.n_features),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GBTModel":
        return cls(
            trees=[_Tree.from_dict(t) for t in payload["trees"]],
            base_margin=float(payload["base_margin"]),
            n_features=int(payload["n_features"]),
        )


# A table over every (frontier node, code) pair of a column is filled only
# while it has at most this many cells per live row; otherwise the rows'
# pairs are sorted.  Either way the work stays proportional to the rows.
_DENSE_PAIRS_PER_ROW = 2


def _value_codes(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per column, each row's index among the column's sorted distinct values.

    Returns the (d, n) codes and, per column, its K sorted distinct finite
    values; NaN gets code K.
    """
    codes = np.empty((x.shape[1], x.shape[0]), dtype=np.int32)
    values = []
    for j in range(x.shape[1]):
        uniq, codes[j] = np.unique(x[:, j], return_inverse=True, equal_nan=True)  # NaN sorts last
        values.append(uniq[~np.isnan(uniq)])
    return codes, values


def _build_tree(
    x: np.ndarray,
    codes: np.ndarray,
    values: list[np.ndarray],
    rows: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    cols: np.ndarray,
    max_depth: int,
    lam: float,
    alpha: float,
    learning_rate: float,
) -> _Tree:
    """One tree on the training ``rows`` and candidate ``cols`` of ``x``.

    ``codes`` and ``values`` come from ``_value_codes(x)``; ``g`` and ``h``
    are indexed like the rows of ``x``.
    """
    g = g[rows]
    h = h[rows]
    feature = [-1]
    threshold = [np.nan]
    nan_left = [False]
    left = [0]
    right = [0]
    node_g = [float(g.sum())]
    node_h = [float(h.sum())]

    node_of = np.zeros(rows.size, dtype=np.int64)
    frontier = [0]
    for _depth in range(max_depth):
        nf = len(frontier)
        fpos = np.full(len(feature), -1, dtype=np.int64)
        fpos[frontier] = np.arange(nf)
        par_g = np.array([node_g[n] for n in frontier])
        par_h = np.array([node_h[n] for n in frontier])
        par_score = _t(par_g, alpha) ** 2 / (par_h + lam)

        best_gain = np.full(nf, 1e-12)
        best_feat = np.full(nf, -1, dtype=np.int64)
        best_thr = np.zeros(nf)
        best_nl = np.zeros(nf, dtype=bool)
        best_gl = np.zeros(nf)
        best_hl = np.zeros(nf)

        live = np.flatnonzero(fpos[node_of] >= 0)
        k = fpos[node_of[live]]
        g_live, h_live, rows_live = g[live], h[live], rows[live]
        for j, col in enumerate(cols):
            u = values[col]
            width = u.size + 1
            key = k * width + codes[col, rows_live]
            # the (node, code) pairs present, in order, and each row's pair
            if nf * width <= _DENSE_PAIRS_PER_ROW * key.size:
                seen = np.bincount(key, minlength=nf * width) > 0
                pair = np.flatnonzero(seen)
                of_row = (np.cumsum(seen) - 1)[key]
            else:
                pair, of_row = np.unique(key, return_inverse=True)
            sum_g = np.bincount(of_row, g_live)
            sum_h = np.bincount(of_row, h_live)
            pn, pc = np.divmod(pair, width)
            nan = pc == u.size
            nan_g = np.zeros(nf)
            nan_h = np.zeros(nf)
            nan_g[pn[nan]] = sum_g[nan]
            nan_h[pn[nan]] = sum_h[nan]
            fin = ~nan
            pn, pc, cg, ch = pn[fin], pc[fin], np.cumsum(sum_g[fin]), np.cumsum(sum_h[fin])
            # a candidate cuts between one and the next present value of a node
            cand = np.flatnonzero(pn[:-1] == pn[1:])
            if cand.size == 0:
                continue
            cn = pn[cand]
            before = np.searchsorted(pn, cn) - 1  # last entry of the nodes before
            gl_fin = cg[cand] - np.where(before >= 0, cg[before], 0.0)
            hl_fin = ch[cand] - np.where(before >= 0, ch[before], 0.0)
            nan_g = nan_g[cn]
            nan_h = nan_h[cn]
            pg = par_g[cn]
            ph = par_h[cn]

            def gain_of(gl, hl):
                gr = pg - gl
                hr = ph - hl
                return _t(gl, alpha) ** 2 / (hl + lam) + _t(gr, alpha) ** 2 / (hr + lam)

            sc_l = gain_of(gl_fin + nan_g, hl_fin + nan_h)
            sc_r = gain_of(gl_fin, hl_fin)
            to_left = sc_l >= sc_r  # an empty NaN bin sums to exactly 0, so its tie goes left
            gain = 0.5 * (np.maximum(sc_l, sc_r) - par_score[cn])

            # first index of the per-node maximum keeps the lowest threshold
            top = np.full(nf, -np.inf)
            np.maximum.at(top, cn, gain)
            hit = np.flatnonzero(gain == top[cn])
            picks = hit[np.unique(cn[hit], return_index=True)[1]]
            picks = picks[gain[picks] > best_gain[cn[picks]]]
            node = cn[picks]
            best_gain[node] = gain[picks]
            best_feat[node] = j
            best_thr[node] = 0.5 * (u[pc[cand[picks]]] + u[pc[cand[picks] + 1]])
            best_nl[node] = to_left[picks]
            best_gl[node] = gl_fin[picks] + np.where(to_left[picks], nan_g[picks], 0.0)
            best_hl[node] = hl_fin[picks] + np.where(to_left[picks], nan_h[picks], 0.0)

        split = best_feat >= 0
        if not split.any():
            break
        child = np.zeros(nf, dtype=np.int64)
        next_frontier = []
        for pos in np.flatnonzero(split):
            node = frontier[pos]
            lid = len(feature)
            child[pos] = lid
            feature[node] = best_feat[pos]
            threshold[node] = best_thr[pos]
            nan_left[node] = bool(best_nl[pos])
            left[node] = lid
            right[node] = lid + 1
            for gg, hh in ((best_gl[pos], best_hl[pos]), (par_g[pos] - best_gl[pos], par_h[pos] - best_hl[pos])):
                feature.append(-1)
                threshold.append(np.nan)
                nan_left.append(False)
                left.append(len(feature) - 1)
                right.append(len(feature) - 1)
                node_g.append(float(gg))
                node_h.append(float(hh))
            next_frontier.extend([lid, lid + 1])
        # route rows with the comparison `_Tree.predict` makes
        moving = split[k]
        at = k[moving]
        v = x[rows_live[moving], cols[best_feat[at]]]
        go_left = np.where(np.isnan(v), best_nl[at], v < best_thr[at])
        node_of[live[moving]] = child[at] + ~go_left
        frontier = next_frontier

    value = np.array(
        [
            -learning_rate * _t(gg, alpha) / (hh + lam) if f < 0 else 0.0
            for f, gg, hh in zip(feature, node_g, node_h)
        ]
    )
    feat_global = np.array([cols[f] if f >= 0 else -1 for f in feature], dtype=np.int64)
    return _Tree(
        feature=feat_global,
        threshold=np.array(threshold),
        nan_left=np.array(nan_left, dtype=bool),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=value,
        depth=max_depth,
    )


def train_gbt(
    x: np.ndarray,
    y: np.ndarray,
    n_estimators: int = 200,
    learning_rate: float = 0.1,
    max_depth: int = 4,
    subsample: float = 1.0,
    colsample_bytree: float = 1.0,
    reg_lambda: float = 1.0,
    reg_alpha: float = 0.0,
    seed: int = 0,
) -> GBTModel:
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if not 0 < subsample <= 1 or not 0 < colsample_bytree <= 1:
        raise ValueError("subsample and colsample_bytree must lie in (0, 1]")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape
    rng = substream(seed, "gbt")
    codes, values = _value_codes(x)

    rate = float(np.clip(y.mean(), 1e-12, 1.0 - 1e-12))
    base = float(np.log(rate / (1.0 - rate)))
    model = GBTModel(base_margin=base, n_features=d)
    margin = np.full(n, base)
    for _ in range(n_estimators):
        p = np.where(margin >= 0, 1.0 / (1.0 + np.exp(-margin)), np.exp(margin) / (1.0 + np.exp(margin)))
        g = p - y
        h = p * (1.0 - p)
        rows = np.arange(n)
        if subsample < 1.0:
            rows = np.sort(rng.choice(n, size=max(1, round(subsample * n)), replace=False))
        cols = np.arange(d)
        if colsample_bytree < 1.0:
            cols = np.sort(rng.choice(d, size=max(1, round(colsample_bytree * d)), replace=False))
        tree = _build_tree(x, codes, values, rows, g, h, cols, max_depth, reg_lambda, reg_alpha, learning_rate)
        model.trees.append(tree)
        margin += tree.predict(x)
    return model
