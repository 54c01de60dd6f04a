"""Slow reference implementations used to cross-check the fast paths.

Everything here is written for clarity over speed and stays independent of
the fast paths it checks: direct series summation, pairwise concordance counts,
fine-grid quadrature, brute-force scans, an LSTM unrolled into one
autograd node per elementary operation and time step, a transformer whose
every block runs on every position, a split finder that
tries every cut of one node, the numpy-reduction feature extractor, a
token grid written one cell at a time, and a grade-event generator that
draws and builds one student and one event at a time.
"""

from __future__ import annotations

import math

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


def transformer_full_sequence(model, emb, lengths, training=False, rng=None):
    """A ``TransformerClassifier``'s logits with every block on every position.

    Each block, the last included, computes queries, attention, the
    feed-forward layer and dropout for all L positions, and the final layer
    norm runs over all of them before position 0 is read as the pooled
    summary.  Dropout masks come from ``ag.dropout`` on full shapes, in the
    order attention, attention residual, feed-forward residual per block.
    """
    import admitsim.autograd as ag
    from admitsim.models.sequence import _MASK_OFF

    cfg = model.config
    p = model._params
    b, l, h = emb.shape
    nh = cfg.n_heads
    hd = h // nh
    scale = 1.0 / math.sqrt(hd)
    lengths = np.asarray(lengths)
    key_off = np.where(np.arange(l)[None, :] >= lengths[:, None], _MASK_OFF, 0.0)
    mask = ag.tensor(key_off[:, None, None, :].astype(model.dtype))

    x = emb
    for i in range(cfg.n_layers):
        blk = f"block{i}."
        a = ag.layer_norm(x, p[blk + "ln1.gain"], p[blk + "ln1.bias"])

        def heads(name):
            proj = ag.add(ag.matmul(a, p[blk + name]), p[blk + name.replace("w", "b")])
            return ag.transpose(ag.reshape(proj, (b, l, nh, hd)), (0, 2, 1, 3))

        q, k, v = heads("wq"), heads("wk"), heads("wv")
        scores = ag.mul(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), scale)
        att = ag.softmax(ag.add(scores, mask), axis=-1)
        att = ag.dropout(att, cfg.dropout, rng, training)
        ctx = ag.reshape(ag.transpose(ag.matmul(att, v), (0, 2, 1, 3)), (b, l, h))
        proj = ag.add(ag.matmul(ctx, p[blk + "wo"]), p[blk + "bo"])
        x = ag.add(x, ag.dropout(proj, cfg.dropout, rng, training))

        a2 = ag.layer_norm(x, p[blk + "ln2.gain"], p[blk + "ln2.bias"])
        f = ag.gelu(ag.add(ag.matmul(a2, p[blk + "ff1.weight"]), p[blk + "ff1.bias"]))
        f = ag.add(ag.matmul(f, p[blk + "ff2.weight"]), p[blk + "ff2.bias"])
        x = ag.add(x, ag.dropout(f, cfg.dropout, rng, training))

    x = ag.layer_norm(x, p["final_ln.gain"], p["final_ln.bias"])
    pooled = ag.select_positions(x, np.zeros(b, dtype=np.int64))
    logits = ag.add(ag.matmul(pooled, p["head.weight"]), p["head.bias"])
    return ag.reshape(logits, (b,))


def split_candidates(x, g, h, lam: float, alpha: float):
    """Every exact-greedy split of one node, as (gain, feature, threshold, nan_left).

    Per feature, each midpoint between adjacent distinct finite values is a
    threshold; rows go left when ``value < threshold``, as at prediction time,
    and the NaN rows try the left side, then the right.  Candidates come in
    tie-break order: feature, then threshold, then NaN-left first.
    """
    x = np.asarray(x, dtype=np.float64)

    def score(gs, hs):
        total_g = sum(gs)
        t = math.copysign(max(abs(total_g) - alpha, 0.0), total_g)
        return t * t / (sum(hs) + lam)

    parent = score(g, h)
    out = []
    for j in range(x.shape[1]):
        col = x[:, j]
        missing = [i for i in range(len(col)) if math.isnan(col[i])]
        distinct = sorted({v for v in col.tolist() if not math.isnan(v)})
        for a, b in zip(distinct, distinct[1:]):
            thr = 0.5 * (a + b)
            below = [i for i in range(len(col)) if col[i] < thr]
            above = [i for i in range(len(col)) if col[i] >= thr]
            for nan_left in (True, False):
                lo = below + missing if nan_left else below
                hi = above if nan_left else above + missing
                sc = score([g[i] for i in lo], [h[i] for i in lo]) + score([g[i] for i in hi], [h[i] for i in hi])
                out.append((0.5 * (sc - parent), j, thr, nan_left))
    return out


def best_split(x, g, h, lam: float, alpha: float, min_gain: float = 1e-12):
    """The first candidate of highest gain, or None when none gains more than ``min_gain``."""
    best = None
    for cand in split_candidates(x, g, h, lam, alpha):
        if cand[0] > (best[0] if best else min_gain):
            best = cand
    return best


def raw_features(student) -> dict:
    """Untyped feature dict with numpy means and standard deviations."""
    from admitsim.cohort import COURSE_CATALOG, ApplicationEvent, EnrollmentEvent, GradeEvent
    from admitsim.models.features import _FIELDS, _STAGES, _mode

    grades = [e for e in student.events if isinstance(e, GradeEvent)]
    apps = [e for e in student.events if isinstance(e, ApplicationEvent)]
    enrollment = next((e for e in student.events if isinstance(e, EnrollmentEvent)), None)
    enrolled_app = next((a for a in apps if a.program_id == student.enrolled_program), None)
    socio = student.sociodemo

    out: dict = {"gpa": student.gpa}
    per_course: dict[str, list[int]] = {}
    per_cell: dict[tuple[str, str], list[int]] = {}
    for e in grades:
        per_course.setdefault(e.course, []).append(e.grade)
        per_cell.setdefault((COURSE_CATALOG.get(e.course, "other"), e.school_stage), []).append(e.grade)
    for course, vals in per_course.items():
        out[f"course_mean:{course}"] = float(np.mean(vals))
    for f in _FIELDS:
        for st in _STAGES:
            vals = per_cell.get((f, st), [])
            out[f"{f}_{st}_count"] = float(len(vals))
            out[f"{f}_{st}_mean"] = float(np.mean(vals)) if vals else math.nan
            out[f"{f}_{st}_std"] = float(np.std(vals)) if vals else math.nan

    out["education_type"] = _mode(e.education_type for e in grades)
    out["study_line"] = _mode(e.study_line for e in grades)
    out["hs_institution"] = _mode(e.institution_id for e in grades if e.school_stage == "high_school")
    out["program"] = student.enrolled_program
    out["enroll_isced"] = enrollment.isced_field if enrollment else None
    out["cutoff_gpa"] = enrollment.cutoff_gpa if enrollment and enrollment.cutoff_gpa is not None else math.nan
    out["rank"] = float(enrolled_app.rank) if enrolled_app else math.nan
    out["quota2_applied"] = float(any(a.quota2_opt_in for a in apps)) if apps else 0.0
    out["human_decile"] = float(enrolled_app.human_rank_decile) if enrolled_app and enrolled_app.human_rank_decile else math.nan

    out["age"] = socio.age if socio.age is not None else math.nan
    out["female"] = float(socio.female)
    out["danish_origin"] = float(socio.danish_origin)
    for slot in (0, 1):
        out[f"income{slot + 1}"] = socio.income[slot] if socio.income[slot] is not None else math.nan
        out[f"wealth{slot + 1}"] = socio.wealth[slot] if socio.wealth[slot] is not None else math.nan
        out[f"edu_months{slot + 1}"] = socio.edu_months[slot] if socio.edu_months[slot] is not None else math.nan
        out[f"edu_isced{slot + 1}"] = str(socio.edu_isced[slot]) if socio.edu_isced[slot] is not None else None
    return out


def encode_student(student, vocab, rules, L: int) -> np.ndarray:
    """(C, L) grid of vocabulary indices for one student, one cell at a time."""
    import warnings

    from admitsim.seqenc import CLS, NULL, PAD, event_tokens

    channels = vocab.channels
    rows = event_tokens(student, vocab.variant, rules)
    if not rows:
        warnings.warn(f"student {student.id}: no events after variant filtering", stacklevel=2)

    n_socio = sum(1 for r in rows if "sociodemo" in r)
    body = L - 1
    if len(rows) > body:
        # drop the oldest non-sociodemographic events
        non_socio = rows[n_socio:]
        keep = body - n_socio
        if keep < 0:
            rows = rows[:body]
        else:
            rows = rows[:n_socio] + (non_socio[len(non_socio) - keep :] if keep else [])

    grid = np.full((len(channels), L), PAD, dtype=np.int32)
    for c, ch in enumerate(channels):
        grid[c, 0] = CLS if ch == "cls" else NULL
    for pos, row in enumerate(rows, start=1):
        for c, ch in enumerate(channels):
            if ch == "cls":
                grid[c, pos] = NULL
            else:
                tok = row.get(ch)
                grid[c, pos] = NULL if tok is None else vocab.id_for(ch, tok)
    return grid


def grade_events_per_student(rng, gpa_mean, years, ability, stem_tilt, diligence, lines, edu_types, n_hs, n_prim):
    """Grade events and profiles with one student and one event at a time.

    Draws with ``rng.choice`` over the course probabilities and a scalar
    ``rng.integers(3)`` per pick, and takes numpy means and standard
    deviations of each student's own grade array.
    """
    from admitsim.cohort import (
        _LINE_FIELD_WEIGHTS,
        COURSE_CATALOG,
        COURSE_LEVELS,
        EDUCATION_TYPES,
        GRADE_STEPS,
        STUDY_LINES,
        TEST_TYPES,
        GradeEvent,
    )

    courses_all = tuple(COURSE_CATALOG)
    field_of = np.array([("stem", "language", "other").index(COURSE_CATALOG[c]) for c in courses_all])
    steps = np.array(GRADE_STEPS, dtype=float)
    mids = (steps[1:] + steps[:-1]) / 2.0
    probs = {}
    for line in STUDY_LINES:
        w = _LINE_FIELD_WEIGHTS[line]
        per_course = np.array([w[f] for f in field_of], dtype=float)
        per_course /= np.bincount(field_of, minlength=3)[field_of]
        probs[line] = per_course / per_course.sum()

    n = len(years)
    hs_institutions = max(2, n // 400)
    prim_institutions = max(2, n // 250)
    all_events, gpa, stem_gap, dispersion, trend = [], np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    center = gpa_mean + 0.08
    for i in range(n):
        line = STUDY_LINES[lines[i]]
        edu = EDUCATION_TYPES[edu_types[i]]
        k_hs, k_pr = int(n_hs[i]), int(n_prim[i])
        k = k_hs + k_pr
        courses = rng.choice(len(courses_all), size=k, p=probs[line])
        fields_drawn = field_of[courses]
        tilt_dir = np.where(fields_drawn == 0, 1.0, np.where(fields_drawn == 1, -0.7, 0.1))
        hs_years = np.sort(rng.integers(years[i] - 3, years[i], size=k_hs))
        ev_years = np.concatenate([np.full(k_pr, years[i] - 5), hs_years])
        rel = ev_years - ev_years.min()
        raw = center + 2.05 * ability[i] + 1.5 * tilt_dir * stem_tilt[i] + 0.35 * diligence[i] * rel + rng.normal(0.0, 1.9, size=k)
        grades = steps[np.searchsorted(mids, raw)]
        hs_inst = f"hs{rng.integers(hs_institutions):03d}"
        pr_inst = f"ps{rng.integers(prim_institutions):03d}"
        events = []
        for j in range(k):
            primary = j < k_pr
            events.append(
                GradeEvent(
                    year=int(ev_years[j]),
                    course=courses_all[courses[j]],
                    course_level=COURSE_LEVELS[int(rng.integers(3))] if not primary else "C",
                    test_type=TEST_TYPES[int(rng.integers(3))],
                    education_type=edu,
                    study_line=line,
                    school_stage="primary" if primary else "high_school",
                    institution_id=pr_inst if primary else hs_inst,
                    grade=int(grades[j]),
                )
            )
        events.sort(key=lambda e: (e.year, e.course))
        all_events.append(events)
        gpa[i] = round(float(grades[k_pr:].mean()), 2)
        stem_vals = grades[fields_drawn == 0]
        stem_gap[i] = (stem_vals.mean() - grades.mean()) if stem_vals.size else 0.0
        dispersion[i] = grades.std()
        first, last = ev_years.min(), ev_years.max()
        trend[i] = grades[ev_years == last].mean() - grades[ev_years == first].mean() if first != last else 0.0
    return all_events, gpa, stem_gap, dispersion, trend
