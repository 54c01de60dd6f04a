"""Gradient-boosted trees for binary outcomes.

Second-order boosting on the logistic loss with exact greedy splits.
Split quality uses L1-thresholded gradient sums, so `reg_alpha` shrinks
leaves the same way it does in the usual boosting libraries:

    T(G)  = sign(G) * max(|G| - alpha, 0)
    score = T(G)^2 / (H + lambda)
    gain  = (score_left + score_right - score_parent) / 2
    leaf  = -T(G) / (H + lambda)

Missing values learn a default direction per split by trying both sides.
Tie-breaking is deterministic: the lowest feature index wins, then the
lowest threshold, and a missing-direction tie goes left.
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


def _build_tree(
    xs: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    cols: np.ndarray,
    max_depth: int,
    lam: float,
    alpha: float,
    learning_rate: float,
) -> _Tree:
    m = xs.shape[0]
    orders = []
    for j in range(xs.shape[1]):
        col = xs[:, j]
        finite = np.flatnonzero(~np.isnan(col))
        orders.append(finite[np.argsort(col[finite], kind="stable")])

    feature = [-1]
    threshold = [np.nan]
    nan_left = [False]
    left = [0]
    right = [0]
    node_g = [float(g.sum())]
    node_h = [float(h.sum())]

    node_of = np.zeros(m, dtype=np.int64)
    frontier = [0]
    for _depth in range(max_depth):
        if not frontier:
            break
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

        for j in range(xs.shape[1]):
            ord_j = orders[j]
            k = fpos[node_of[ord_j]]
            ord_j = ord_j[k >= 0]
            if ord_j.size < 2:
                continue
            k = k[k >= 0]
            grp = np.argsort(k, kind="stable")
            k = k[grp]
            rows = ord_j[grp]
            v = xs[rows, j]
            cg = np.cumsum(g[rows])
            ch = np.cumsum(h[rows])
            starts = np.flatnonzero(np.diff(k)) + 1
            starts = np.concatenate([[0], starts])
            ends = np.concatenate([starts[1:], [k.size]])
            gids = k[starts]
            base_g = np.where(starts > 0, cg[starts - 1], 0.0)
            base_h = np.where(starts > 0, ch[starts - 1], 0.0)
            tot_g = cg[ends - 1] - base_g
            tot_h = ch[ends - 1] - base_h

            seg = np.repeat(np.arange(starts.size), ends - starts)
            cand = np.flatnonzero((seg[:-1] == seg[1:]) & (v[:-1] < v[1:]))
            if cand.size == 0:
                continue
            cseg = seg[cand]
            gl_fin = cg[cand] - base_g[cseg]
            hl_fin = ch[cand] - base_h[cseg]
            pg = par_g[gids[cseg]]
            ph = par_h[gids[cseg]]
            nan_g = pg - tot_g[cseg]
            nan_h = ph - tot_h[cseg]

            def gain_of(gl, hl):
                gr = pg - gl
                hr = ph - hl
                return _t(gl, alpha) ** 2 / (hl + lam) + _t(gr, alpha) ** 2 / (hr + lam)

            sc_l = gain_of(gl_fin + nan_g, hl_fin + nan_h)
            sc_r = gain_of(gl_fin, hl_fin)
            to_left = sc_l >= sc_r
            gain = 0.5 * (np.maximum(sc_l, sc_r) - par_score[gids[cseg]])

            # first index of the per-group maximum keeps the lowest threshold
            starts_c = np.flatnonzero(np.diff(np.concatenate([[-1], cseg])))
            sizes_c = np.diff(np.concatenate([starts_c, [cseg.size]]))
            grp_max = np.maximum.reduceat(gain, starts_c)
            hit = np.flatnonzero(gain == np.repeat(grp_max, sizes_c))
            pick_seg, pick_first = np.unique(cseg[hit], return_index=True)
            picks = hit[pick_first]
            for s, i in zip(pick_seg, picks):
                node = gids[s]
                if gain[i] > best_gain[node]:
                    best_gain[node] = gain[i]
                    best_feat[node] = j
                    best_thr[node] = 0.5 * (v[cand[i]] + v[cand[i] + 1])
                    best_nl[node] = bool(to_left[i])
                    best_gl[node] = gl_fin[i] + (nan_g[i] if to_left[i] else 0.0)
                    best_hl[node] = hl_fin[i] + (nan_h[i] if to_left[i] else 0.0)

        made_split = False
        next_frontier = []
        for pos, node in enumerate(frontier):
            if best_feat[pos] < 0:
                continue
            made_split = True
            lid, rid = len(feature), len(feature) + 1
            feature[node] = best_feat[pos]
            threshold[node] = best_thr[pos]
            nan_left[node] = bool(best_nl[pos])
            left[node] = lid
            right[node] = rid
            for gg, hh in ((best_gl[pos], best_hl[pos]), (par_g[pos] - best_gl[pos], par_h[pos] - best_hl[pos])):
                feature.append(-1)
                threshold.append(np.nan)
                nan_left.append(False)
                left.append(len(feature) - 1)
                right.append(len(feature) - 1)
                node_g.append(float(gg))
                node_h.append(float(hh))
            next_frontier.extend([lid, rid])
        if not made_split:
            break
        split_nodes = np.array(frontier)[best_feat >= 0]
        moving = np.flatnonzero(np.isin(node_of, split_nodes))
        feat_arr = np.array(feature, dtype=np.int64)
        at = node_of[moving]
        v = xs[moving, feat_arr[at]]
        thr_arr = np.array(threshold)
        nl_arr = np.array(nan_left, dtype=bool)
        go_left = np.where(np.isnan(v), nl_arr[at], v < thr_arr[at])
        l_arr = np.array(left, dtype=np.int64)
        r_arr = np.array(right, dtype=np.int64)
        node_of[moving] = np.where(go_left, l_arr[at], r_arr[at])
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
        tree = _build_tree(
            x[np.ix_(rows, cols)], g[rows], h[rows], cols, max_depth, reg_lambda, reg_alpha, learning_rate
        )
        model.trees.append(tree)
        margin += tree.predict(x)
    return model
