import csv
import json
import math
import warnings

import numpy as np
import pytest

from admitsim.cohort import (
    ApplicationEvent,
    EnrollmentEvent,
    GeneratorConfig,
    GradeEvent,
    SocioRecord,
    Student,
    generate_cohort,
    temporal_split,
)
from admitsim.models import (
    SequencePredictor,
    TabularPredictor,
    TransformerClassifier,
    TransformerConfig,
    build_risk_table,
    draw_candidates,
    features,
    featurize,
    fit_feature_schema,
    random_search_cv,
    train_gbt,
    train_logreg,
)
from admitsim.models import gbt as gbt_module
from admitsim.models.gbt import _build_tree, _value_codes
from admitsim.models.search import fit_tabular
from admitsim.policy import auc
from admitsim.seqenc import VARIANTS, build_vocabulary, compute_L, fit_binning_rules, sequence_lengths
from admitsim._seeds import substream

import oracles


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(GeneratorConfig(n_students=1500, n_programs=12), seed=11)


def _grade(year=2010, course="danish", grade=7, stage="high_school", inst="hs000", line="science"):
    return GradeEvent(
        year=year,
        course=course,
        course_level="B",
        test_type="year_grade",
        education_type="stx",
        study_line=line,
        school_stage=stage,
        institution_id=inst,
        grade=grade,
    )


def _socio(**kw):
    base = dict(
        age=20.0,
        female=True,
        danish_origin=True,
        income=(300000.0, 240000.0),
        wealth=(50000.0, 20000.0),
        edu_isced=(4, 6),
        edu_months=(160.0, 200.0),
        ses_high=True,
    )
    base.update(kw)
    return SocioRecord(**base)


def _student(sid=1, gpa=8.0, events=None, program="p000", quota="gpa", completed=True, socio=None):
    return Student(
        id=sid,
        gpa=gpa,
        events=list(events or []),
        sociodemo=socio or _socio(),
        enrolled_program=program,
        admission_quota=quota,
        cohort_year=2014,
        completed=completed,
    )


# ---------------------------------------------------------------------------
# featurization


def test_baseline_schema_is_gpa_plus_program(cohort):
    schema = fit_feature_schema(cohort, "gpa_baseline")
    cols = schema.column_names
    assert cols[0] == "gpa"
    assert all(c.startswith("program=") for c in cols[1:])
    assert len(cols) == 1 + len({s.enrolled_program for s in cohort.students})


def _schema_from(students, variant="academic"):
    from admitsim.cohort import Cohort

    return fit_feature_schema(Cohort(students=list(students), programs={}, meta={}), variant)


def test_missing_field_stats_stay_nan():
    events = [_grade(course="danish", grade=7), _grade(course="english", grade=10)]
    s = _student(events=events)
    schema = _schema_from([s])
    x, _, _ = featurize([s], schema)
    names = schema.column_names
    assert x[0, names.index("stem_high_school_count")] == 0.0
    assert math.isnan(x[0, names.index("stem_high_school_mean")])
    assert math.isnan(x[0, names.index("stem_high_school_std")])
    assert x[0, names.index("language_high_school_count")] == 2.0
    assert x[0, names.index("language_high_school_mean")] == 8.5


def test_course_mean_column():
    events = [_grade(course="mathematics", grade=7), _grade(course="mathematics", grade=12)]
    s = _student(events=events)
    schema = _schema_from([s])
    x, _, _ = featurize([s], schema)
    assert x[0, schema.column_names.index("course_mean:mathematics")] == 9.5


def test_features_match_the_numpy_reference(cohort, monkeypatch):
    # nine grades in one field/stage cell take numpy's pairwise standard deviation,
    # which for these grades differs in the last bit from an in-order sum
    many = [_grade(course="mathematics", grade=g) for g in (2, 0, 10, 0, 12, 4, 2, -3, 4)]
    # eight grades, where numpy switches from an in-order sum to partial sums
    eight = [_grade(course="danish", grade=g) for g in (7, 2, 12, 0, 10, -3, 4, 7)]
    students = list(cohort.students[:300]) + [
        _student(sid=99_999, events=many + [_grade(grade=4)]),
        _student(sid=99_998, events=eight + [_grade(course="danish", stage="primary", grade=4)]),
    ]
    schema = _schema_from(students, "everything")
    x, ids, y = featurize(students, schema)
    monkeypatch.setattr(features, "raw_features", oracles.raw_features)
    ref_schema = _schema_from(students, "everything")
    ref_x, ref_ids, ref_y = featurize(students, ref_schema)
    assert schema == ref_schema
    assert np.array_equal(x, ref_x, equal_nan=True)
    assert np.array_equal(ids, ref_ids) and np.array_equal(y, ref_y)
    assert x[-2, schema.column_names.index("stem_high_school_count")] == 9.0
    assert x[-1, schema.column_names.index("language_high_school_count")] == 8.0


def test_unseen_nominal_gives_zero_block(cohort):
    schema = fit_feature_schema(cohort, "gpa_baseline")
    stranger = _student(program="never_seen")
    x, _, _ = featurize([stranger], schema)
    assert x[0, 1:].sum() == 0.0


def test_ordinal_expansion_toggle(cohort):
    wide = fit_feature_schema(cohort, "everything", expand_ordinals=True)
    slim = fit_feature_schema(cohort, "everything", expand_ordinals=False)
    n_rank = len(wide.ordinals["rank"]) + len(wide.ordinals["human_decile"])
    assert wide.n_columns == slim.n_columns + n_rank - 2
    x, _, _ = featurize(cohort.students[:5], slim)
    col = slim.column_names.index("rank")
    ranks = x[:, col]
    assert set(ranks[~np.isnan(ranks)]) <= set(wide.ordinals["rank"])


def test_featurize_alignment(cohort):
    schema = fit_feature_schema(cohort, "academic")
    students = cohort.students[:40]
    x, ids, y = featurize(students, schema)
    assert x.shape == (40, schema.n_columns)
    assert list(ids) == [s.id for s in students]
    assert list(y) == [int(s.completed) for s in students]


def test_unknown_variant_rejected(cohort):
    with pytest.raises(ValueError):
        fit_feature_schema(cohort, "bogus")


_FIELD_STATS = [
    f"{f}_{stage}_{stat}"
    for f in ("stem", "language", "other")
    for stage in ("primary", "high_school")
    for stat in ("mean", "std", "count")
]
_SOCIO_CONTINUOUS = ["cutoff_gpa", "age", "income1", "income2", "wealth1", "wealth2", "edu_months1", "edu_months2"]
_ACADEMIC_NOMINALS = ["program", "education_type", "study_line", "enroll_isced"]
_SOCIO_NOMINALS = _ACADEMIC_NOMINALS + ["hs_institution", "edu_isced1", "edu_isced2"]
# variant -> (continuous names other than course means, binary, ordinal keys, nominal keys)
_SCHEMA_BY_VARIANT = {
    "gpa_baseline": (["gpa"], [], [], ["program"]),
    "academic": (["gpa"] + _FIELD_STATS, [], [], _ACADEMIC_NOMINALS),
    "application": (["gpa"] + _FIELD_STATS, ["quota2_applied"], ["rank"], _ACADEMIC_NOMINALS),
    "human": (["gpa"] + _FIELD_STATS, [], ["human_decile"], _ACADEMIC_NOMINALS),
    "sociodemo": (["gpa"] + _FIELD_STATS + _SOCIO_CONTINUOUS, ["female", "danish_origin"], ["rank"], _SOCIO_NOMINALS),
    "everything": (
        ["gpa"] + _FIELD_STATS + _SOCIO_CONTINUOUS,
        ["quota2_applied", "female", "danish_origin"],
        ["rank", "human_decile"],
        _SOCIO_NOMINALS,
    ),
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_feature_schema_blocks_per_variant(cohort, variant):
    # the feature variants are exactly the token variants
    assert set(_SCHEMA_BY_VARIANT) == set(VARIANTS)
    continuous, binary, ordinals, nominals = _SCHEMA_BY_VARIANT[variant]
    schema = fit_feature_schema(cohort, variant)
    assert [c for c in schema.continuous if not c.startswith("course_mean:")] == continuous
    assert list(schema.binary) == binary
    assert list(schema.ordinals) == ordinals
    assert list(schema.nominals) == nominals
    has_courses = any(c.startswith("course_mean:") for c in schema.continuous)
    assert has_courses == (variant != "gpa_baseline")


# ---------------------------------------------------------------------------
# logistic regression


def _blob(n=240, d=4, seed=5, informative=(1.4, -0.9)):
    rng = substream(seed, "test-blob")
    x = rng.standard_normal((n, d))
    z = sum(w * x[:, j] for j, w in enumerate(informative)) - 0.2
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(np.int64)
    return x, y


def test_separable_saturates():
    x = np.array([[0.0], [1.0]] * 30)
    y = np.array([0, 1] * 30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = train_logreg(x, y, penalty=None, max_iter=20000)
    p = model.predict_proba(x)
    assert p[y == 0].max() < 1e-2
    assert p[y == 1].min() > 1 - 1e-2


def test_heavy_ridge_recovers_base_rate():
    rng = substream(7, "base-rate")
    x = rng.standard_normal((200, 2))
    y = (rng.random(200) < 0.7).astype(np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = train_logreg(x, y, C=1e-6, penalty="l2")
    assert np.abs(model.predict_proba(x) - y.mean()).max() < 1e-2
    assert np.abs(model.weights).max() < 1e-3


def test_l2_stationarity():
    x, y = _blob()
    model = train_logreg(x, y, C=0.5, penalty="l2", tol=1e-12)
    xs = (np.asarray(x) - model.mu) / model.sd
    p = model.predict_proba(x)
    grad_w = xs.T @ (p - y) + model.weights / 0.5
    grad_b = (p - y).sum()
    assert np.abs(grad_w).max() < 1e-2
    assert abs(grad_b) < 1e-2


def test_l1_subgradient_conditions():
    x, y = _blob(d=6, informative=(1.4, -0.9, 0.0, 0.0, 0.0, 0.0))
    c = 0.05
    model = train_logreg(x, y, C=c, penalty="l1", tol=1e-12)
    xs = (np.asarray(x) - model.mu) / model.sd
    score = xs.T @ (model.predict_proba(x) - y)
    lam = 1.0 / c
    for j, w in enumerate(model.weights):
        if w == 0.0:
            assert abs(score[j]) <= lam + 1e-2
        else:
            assert abs(score[j] + np.sign(w) * lam) < 1e-2
    assert (model.weights == 0.0).sum() >= 2  # noise columns drop out


def test_elasticnet_ratio_one_equals_l1():
    x, y = _blob()
    a = train_logreg(x, y, C=0.2, penalty="l1", tol=1e-12)
    b = train_logreg(x, y, C=0.2, penalty="elasticnet", l1_ratio=1.0, tol=1e-12)
    np.testing.assert_allclose(a.weights, b.weights, atol=1e-6)
    assert abs(a.intercept - b.intercept) < 1e-6


def test_nan_imputation_matches_median():
    x, y = _blob(n=101)
    x = x.copy()
    x[0, 0] = np.nan
    model = train_logreg(x, y, C=1.0)
    assert model.medians[0] == np.median(x[1:, 0])
    probe_nan = np.array([[np.nan, 0.5, -0.5, 0.1]])
    probe_med = probe_nan.copy()
    probe_med[0, 0] = model.medians[0]
    assert model.predict_proba(probe_nan) == model.predict_proba(probe_med)


def test_logreg_validation():
    x, y = _blob(n=40)
    with pytest.raises(ValueError):
        train_logreg(x, y, penalty="ridge")
    with pytest.raises(ValueError):
        train_logreg(x, y, penalty="elasticnet")
    with pytest.raises(ValueError):
        train_logreg(x, y, C=0.0)


def test_nonconvergence_warns():
    x, y = _blob()
    with pytest.warns(UserWarning, match="did not converge"):
        model = train_logreg(x, y, max_iter=3)
    assert not model.converged
    assert model.n_iter == 3


# ---------------------------------------------------------------------------
# boosted trees


def test_leaf_value_formula():
    xs = np.zeros((2, 1))
    g = np.array([2.0, 2.0])
    h = np.array([1.0, 1.0])
    codes, values = _value_codes(xs)
    tree = _build_tree(
        xs, codes, values, np.arange(2), g, h, np.array([0]), max_depth=2, lam=1.0, alpha=1.0, learning_rate=1.0
    )
    leaf = tree.value[0]
    assert leaf == pytest.approx(-1.0)
    # the analytic leaf minimizes g*v + (h + lam) v^2 / 2 + alpha |v|
    grid = np.linspace(-3, 3, 200001)
    obj = 4.0 * grid + 0.5 * 3.0 * grid**2 + 1.0 * np.abs(grid)
    assert abs(grid[np.argmin(obj)] - leaf) < 1e-4


def test_one_split_separates():
    x = np.array([[0.0]] * 40 + [[1.0]] * 40)
    y = np.array([0] * 40 + [1] * 40)
    model = train_gbt(x, y, n_estimators=1, learning_rate=1.0, max_depth=1, reg_lambda=1e-9)
    p = model.predict_proba(x)
    assert ((p > 0.5) == y).all()


def test_zero_learning_rate_is_base_rate():
    x, y = _blob(n=150)
    model = train_gbt(x, y, n_estimators=20, learning_rate=0.0, max_depth=3)
    expected = y.mean()
    np.testing.assert_allclose(model.predict_proba(x), expected, atol=1e-12)


def test_missing_values_learn_a_direction():
    x = np.array([[0.0]] * 50 + [[1.0]] * 50 + [[np.nan]] * 50)
    y = np.array([0] * 50 + [1] * 50 + [1] * 50)
    model = train_gbt(x, y, n_estimators=25, learning_rate=0.4, max_depth=2)
    assert model.predict_proba(np.array([[np.nan]]))[0] > 0.85
    assert model.predict_proba(np.array([[0.0]]))[0] < 0.15


def test_tie_breaks_to_lowest_feature_and_threshold():
    rng = substream(3, "ties")
    base = rng.standard_normal(120)
    x = np.column_stack([base, base])  # identical columns
    y = (base > 0).astype(np.int64)
    model = train_gbt(x, y, n_estimators=1, max_depth=1)
    assert model.trees[0].feature[0] == 0


def test_missing_direction_tie_goes_left():
    # with no NaN in a node both directions gain the same, and the tie goes left
    x, y = _blob(n=400, d=5, informative=(1.0, -0.7, 0.5, 0.3, 0.0))
    model = train_gbt(x, y, n_estimators=10, learning_rate=0.3, max_depth=3)
    for tree in model.trees:
        internal = tree.feature >= 0
        assert internal.sum() > 1
        assert tree.nan_left[internal].all()
        node = 0
        while tree.feature[node] >= 0:
            node = tree.left[node]
        assert tree.predict(np.full((1, 5), np.nan))[0] == tree.value[node]


def _split_matrix(seed):
    """16 rows: tied small integers, NaNs, a binary and a constant column, balanced labels."""
    rng = substream(seed, "split-oracle")
    n = 16
    with_nan = rng.integers(0, 5, n).astype(np.float64)
    with_nan[rng.random(n) < 0.3] = np.nan
    x = np.column_stack(
        [
            rng.integers(0, 4, n),
            with_nan,
            rng.integers(0, 2, n),
            np.full(n, 3.0),
            rng.integers(0, 8, n) * 0.25,
        ]
    ).astype(np.float64)
    y = rng.permutation(np.repeat([0, 1], n // 2))
    return x, y


def _oracle_node(x, g, h, lam, alpha):
    # well separated: every candidate ties the best exactly or trails it clearly
    cands = oracles.split_candidates(x, g, h, lam, alpha)
    best = oracles.best_split(x, g, h, lam, alpha)
    if best is not None:
        assert all(c[0] == best[0] or c[0] < best[0] - 1e-9 for c in cands)
    return best


def _check_against_oracle(x, y, depth, alpha):
    model = train_gbt(x, y, n_estimators=1, learning_rate=1.0, max_depth=depth, reg_lambda=1.0, reg_alpha=alpha)
    tree = model.trees[0]
    # balanced labels start every row at p = 0.5, so g = 0.5 - y and h = 0.25 sum exactly
    g = 0.5 - y
    h = np.full(len(y), 0.25)
    nodes = [(0, np.arange(len(y)), depth)]
    while nodes:
        node, rows, left_depth = nodes.pop()
        best = _oracle_node(x[rows], g[rows], h[rows], 1.0, alpha) if left_depth else None
        if best is None:
            assert tree.feature[node] == -1
            continue
        _, feat, thr, nan_left = best
        assert (tree.feature[node], tree.threshold[node], bool(tree.nan_left[node])) == (feat, thr, nan_left)
        v = x[rows, feat]
        go_left = np.where(np.isnan(v), nan_left, v < thr)
        nodes.append((tree.left[node], rows[go_left], left_depth - 1))
        nodes.append((tree.right[node], rows[~go_left], left_depth - 1))


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("seed", range(6))
def test_split_choice_matches_brute_force(seed, alpha, depth):
    x, y = _split_matrix(seed)
    _check_against_oracle(x, y, depth, alpha)


def test_threshold_tie_goes_to_the_lowest():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1, 0, 0, 1])
    cands = oracles.split_candidates(x, 0.5 - y, np.full(4, 0.25), 1.0, 0.0)
    top = max(c[0] for c in cands)
    assert sorted({c[2] for c in cands if c[0] == top}) == [0.5, 2.5]
    _check_against_oracle(x, y, 1, 0.0)


def test_pair_table_and_pair_sort_grow_the_same_trees(monkeypatch):
    # the split search lists a column's (node, code) pairs from a table or by a sort
    x, y = _blob(n=300, d=5, informative=(1.0, -0.7, 0.5, 0.3, 0.0))
    x[::7, 1] = np.nan
    x[:, 2] = np.round(x[:, 2])
    fits = []
    for per_row in (0, 10**12):
        monkeypatch.setattr(gbt_module, "_DENSE_PAIRS_PER_ROW", per_row)
        fits.append(train_gbt(x, y, n_estimators=5, max_depth=6, subsample=0.7, seed=3).to_dict())
    assert json.dumps(fits[0]) == json.dumps(fits[1])  # leaf thresholds are NaN
    assert max(t["feature"].count(-1) for t in fits[0]["trees"]) > 16  # deep enough for large tables


def test_deeper_fits_interactions():
    rng = substream(9, "xor")
    x = rng.integers(0, 2, size=(400, 2)).astype(np.float64)
    y = (x[:, 0] != x[:, 1]).astype(np.int64)
    gbt = train_gbt(x, y, n_estimators=30, learning_rate=0.3, max_depth=2)
    assert auc(gbt.predict_proba(x), y) > 0.95
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        linear = train_logreg(x, y, C=1.0)
    assert auc(linear.predict_proba(x), y) < 0.65


def test_more_trees_reduce_training_loss():
    x, y = _blob(n=300, d=5, informative=(1.0, -0.7, 0.5, 0.0, 0.0))

    def loss(model):
        p = np.clip(model.predict_proba(x), 1e-12, 1 - 1e-12)
        return -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))

    small = train_gbt(x, y, n_estimators=5, learning_rate=0.2, max_depth=3)
    big = train_gbt(x, y, n_estimators=80, learning_rate=0.2, max_depth=3)
    assert loss(big) < loss(small)


def test_gbt_sampling_is_seeded():
    x, y = _blob(n=200, d=5, informative=(1.0, -0.7, 0.5, 0.0, 0.0))
    kw = dict(n_estimators=12, max_depth=3, subsample=0.7, colsample_bytree=0.6)
    a = train_gbt(x, y, seed=4, **kw).predict_proba(x)
    b = train_gbt(x, y, seed=4, **kw).predict_proba(x)
    c = train_gbt(x, y, seed=5, **kw).predict_proba(x)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gbt_validation():
    x, y = _blob(n=40)
    with pytest.raises(ValueError):
        train_gbt(x, y, max_depth=0)
    with pytest.raises(ValueError):
        train_gbt(x, y, subsample=0.0)
    with pytest.raises(ValueError):
        train_gbt(x, y, colsample_bytree=1.5)


# ---------------------------------------------------------------------------
# random search


def test_candidate_ranges():
    rng = substream(0, "ranges")
    for params in draw_candidates("gbt", 300, rng):
        assert 0.01 <= params["learning_rate"] <= 0.99
        assert 2 <= params["max_depth"] <= 12
        assert 0.01 <= params["subsample"] <= 0.99
        assert 0.01 <= params["colsample_bytree"] <= 0.99
        assert 1e-9 <= params["reg_lambda"] <= 100.0
        assert 1e-9 <= params["reg_alpha"] <= 100.0
        assert 50 <= params["n_estimators"] <= 5000
        assert isinstance(params["max_depth"], int)
        assert isinstance(params["n_estimators"], int)
    seen = set()
    for params in draw_candidates("logreg", 300, rng):
        assert 1e-6 <= params["C"] <= 1e6
        assert params["penalty"] in (None, "l2", "l1", "elasticnet")
        assert 0.01 <= params["l1_ratio"] <= 0.99
        seen.add(params["penalty"])
    assert seen == {None, "l2", "l1", "elasticnet"}
    with pytest.raises(ValueError):
        draw_candidates("svm", 1, rng)


def test_gbt_params_wire_through():
    x, y = _blob(n=60)
    params = {
        "learning_rate": 0.3,
        "max_depth": 2,
        "subsample": 0.9,
        "colsample_bytree": 0.9,
        "reg_lambda": 1.0,
        "reg_alpha": 0.1,
        "n_estimators": 5,
    }
    probs = fit_tabular("gbt", params, x[:40], y[:40], seed=1).predict_proba(x[40:])
    assert probs.shape == (20,)
    assert ((0 <= probs) & (probs <= 1)).all()


def test_search_finds_signal_and_logs(tmp_path):
    x, y = _blob(n=240, d=4, seed=13)
    log = tmp_path / "search.csv"
    best, score, results = random_search_cv("logreg", x, y, n_candidates=8, k_folds=3, seed=21, log_path=log)
    assert score > 0.7
    assert len(results) == 8
    assert best in [r["params"] for r in results]
    with open(log, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 9
    assert rows[0][:4] == ["candidate", "family", "params", "auc_fold0"]
    assert json.loads(rows[1][2]) == results[0]["params"]


def test_search_is_deterministic():
    x, y = _blob(n=150, d=3, seed=2, informative=(1.2, 0.0, 0.0))
    a = random_search_cv("logreg", x, y, n_candidates=5, seed=33)
    b = random_search_cv("logreg", x, y, n_candidates=5, seed=33)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_search_with_no_scorable_fold_raises():
    x = substream(1, "ones").standard_normal((30, 2))
    y = np.ones(30, dtype=np.int64)
    with pytest.warns(UserWarning, match="one outcome class"):
        with pytest.raises(ValueError, match="no candidate"):
            random_search_cv("logreg", x, y, n_candidates=2, seed=0)


def test_search_skips_single_class_folds():
    rng = substream(6, "sparse-zeros")
    x = rng.standard_normal((30, 2))
    y = np.ones(30, dtype=np.int64)
    y[:2] = 0  # two zeros across three folds: at least one fold lacks them
    with pytest.warns(UserWarning, match="skipping"):
        _, score, results = random_search_cv("logreg", x, y, n_candidates=2, k_folds=3, seed=0)
    assert not math.isnan(score)
    for row in results:
        assert any(math.isnan(a) for a in row["fold_aucs"])
        assert not math.isnan(row["mean_auc"])


# ---------------------------------------------------------------------------
# adapters


def test_tabular_predictor_matches_manual_path(cohort):
    schema = fit_feature_schema(cohort, "gpa_baseline")
    x, _, y = featurize(cohort, schema)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = train_logreg(x, y, C=1.0)
    pred = TabularPredictor(model=model, schema=schema)
    got = pred.predict_students(cohort.students[:25])
    want = model.predict_proba(x[:25])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_sequence_predictor_encodes_and_predicts(cohort):
    rules = fit_binning_rules(cohort)
    vocab = build_vocabulary(cohort, "academic", min_count=5, rules=rules)
    L = compute_L(sequence_lengths(cohort, "academic", rules))
    model = TransformerClassifier(
        len(vocab), TransformerConfig(n_layers=1, hidden=16, n_heads=2), seed=0, vocab_hash=vocab.vocab_hash()
    )
    pred = SequencePredictor(model=model, vocab=vocab, rules=rules, length=L)
    students = cohort.students[:30]
    batch = pred.encode(students)
    assert batch.tokens.shape == (30, 13, L)
    assert batch.vocab_hash == vocab.vocab_hash()
    assert (batch.lengths >= 1).all() and (batch.lengths <= L).all()
    probs = pred.predict_students(students)
    assert probs.shape == (30,)
    assert ((0 < probs) & (probs < 1)).all()


def test_risk_table_fields(cohort):
    students = cohort.students[:200]
    probs = np.linspace(0.1, 0.9, 200)
    table = build_risk_table(students, probs)
    assert len(table.student_id) == 200
    np.testing.assert_array_equal(table.p_hat, probs)
    assert set(table.attributes) == {"female", "danish_origin", "ses_high"}
    assert set(table.quota) <= {"gpa", "human"}
    for s, decile in zip(students, table.human_decile):
        app = next((e for e in s.events if isinstance(e, ApplicationEvent) and e.program_id == s.enrolled_program), None)
        want = app.human_rank_decile if app is not None else None
        if want is None:
            assert math.isnan(decile)
        else:
            assert decile == want
    with pytest.raises(ValueError):
        build_risk_table(students, probs[:10])


# ---------------------------------------------------------------------------
# planted-signal smoke test (the full-scale version lives in the acceptance suite)


def test_models_recover_planted_signal(cohort):
    train, test = temporal_split(cohort)
    base_schema = fit_feature_schema(train, "gpa_baseline")
    xb_tr, _, yb_tr = featurize(train, base_schema)
    xb_te, _, yb_te = featurize(test, base_schema)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        baseline = train_logreg(xb_tr, yb_tr, C=1.0)
    auc_base = auc(baseline.predict_proba(xb_te), yb_te)

    rich_schema = fit_feature_schema(train, "everything", expand_ordinals=False)
    xr_tr, _, yr_tr = featurize(train, rich_schema)
    xr_te, _, yr_te = featurize(test, rich_schema)
    gbt = train_gbt(xr_tr, yr_tr, n_estimators=120, learning_rate=0.1, max_depth=3, seed=1)
    auc_rich = auc(gbt.predict_proba(xr_te), yr_te)

    assert auc_base > 0.55
    assert auc_rich > auc_base
