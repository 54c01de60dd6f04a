"""Encoder tests: binning, vocabulary thresholds, grid layout, alignment fuzz."""

import math
import warnings

import numpy as np
import pytest

from admitsim.cohort import (
    ApplicationEvent,
    Cohort,
    EnrollmentEvent,
    GeneratorConfig,
    GradeEvent,
    SocioRecord,
    Student,
    generate_cohort,
)
from admitsim.seqenc import (
    CLS,
    NULL,
    PAD,
    UNK,
    SPECIALS,
    VARIANTS,
    BinningRule,
    TokenSequenceBatch,
    Vocabulary,
    apply_binning,
    build_vocabulary,
    compute_L,
    encode_cohort,
    encode_student,
    event_tokens,
    fit_binning,
    fit_binning_rules,
    sequence_lengths,
)
from oracles import encode_student as encode_student_by_cell


def make_socio():
    return SocioRecord(
        age=20.0,
        female=True,
        danish_origin=True,
        income=(None, None),
        wealth=(None, None),
        edu_isced=(None, None),
        edu_months=(None, None),
    )


def make_grade(year, course="mathematics", grade=7):
    return GradeEvent(
        year=year,
        course=course,
        course_level="B",
        test_type="oral_exam",
        education_type="stx",
        study_line="science",
        school_stage="high_school",
        institution_id="hs001",
        grade=grade,
    )


def make_student(events, student_id=0, enrolled="p000", year=2012):
    return Student(
        id=student_id,
        gpa=7.0,
        events=events,
        sociodemo=make_socio(),
        enrolled_program=enrolled,
        admission_quota="gpa",
        cohort_year=year,
        completed=True,
    )


def test_variant_channel_counts():
    want = {
        "gpa_baseline": 5,
        "academic": 13,
        "human": 14,
        "application": 16,
        "sociodemo": 17,
        "everything": 21,
    }
    for variant, count in want.items():
        assert len(VARIANTS[variant]) == count, variant
        assert VARIANTS[variant][0] == "cls"


def test_binning_percentile_examples():
    rule = fit_binning(np.arange(1, 101))
    assert apply_binning(rule, 50) == 50
    assert apply_binning(rule, 1000) == 99
    assert apply_binning(rule, -50) == apply_binning(rule, rule.lo)


def test_binning_occupancy_near_uniform():
    rng = np.random.default_rng(0)
    values = rng.normal(size=5000)
    rule = fit_binning(values)
    bins = np.array([apply_binning(rule, v) for v in values])
    occupied = np.bincount(bins, minlength=100)
    interior = occupied[6:94]
    assert interior.min() > 0
    assert interior.max() < 5 * interior.mean()


def test_binning_constant_and_short():
    with pytest.warns(UserWarning, match="single bin"):
        rule = fit_binning(np.full(50, 3.3))
    assert apply_binning(rule, -10) == apply_binning(rule, 99) == 0
    with pytest.raises(ValueError):
        fit_binning(np.arange(10))


def test_binning_matches_searchsorted():
    rng = np.random.default_rng(3)
    # one decimal place repeats cut values; lognormal draws do not
    repeated = fit_binning(np.round(rng.normal(7.0, 2.3, size=600), 1))
    assert len(set(repeated.cuts)) < len(repeated.cuts)
    rules = (repeated, fit_binning(rng.lognormal(12.0, 1.0, size=600)), BinningRule(lo=3.3, hi=3.3, cuts=()))
    for rule in rules:
        cuts = np.asarray(rule.cuts, dtype=float)
        probes = [rule.lo, rule.hi, rule.lo - 1.0, rule.hi + 1.0, -math.inf, math.inf]
        for c in rule.cuts:
            probes += [c, float(np.nextafter(c, -math.inf)), float(np.nextafter(c, math.inf))]
        for v in probes:
            want = int(np.searchsorted(cuts, min(max(v, rule.lo), rule.hi), side="right"))
            assert apply_binning(rule, v) == want, (rule.n_bins, v)


def test_compute_l():
    assert compute_L([10] * 40) == 11
    assert compute_L(list(range(1, 101))) == 96
    with pytest.raises(ValueError):
        compute_L([])


def build_counted_cohort(n_math, n_phys):
    students = []
    sid = 0
    for count, course in ((n_math, "mathematics"), (n_phys, "physics")):
        for _ in range(count):
            events = [make_grade(2010, course=course), EnrollmentEvent(2012, "p000", "ict", None)]
            students.append(make_student(events, student_id=sid))
            sid += 1
    return Cohort(students=students, programs={}, meta={})


def test_min_count_threshold_boundary():
    cohort = build_counted_cohort(250, 249)
    vocab = build_vocabulary(cohort, "academic", min_count=250, rules={})
    assert vocab.id_for("course", "mathematics") != UNK
    assert vocab.id_for("course", "physics") == UNK


def test_small_min_count_covers_all_tokens():
    cohort = build_counted_cohort(2, 1)
    vocab = build_vocabulary(cohort, "academic", min_count=1, rules={})
    distinct = set()
    for s in cohort.students:
        for row in event_tokens(s, "academic", {}):
            distinct.update(f"{ch}:{t}" for ch, t in row.items())
    assert len(vocab) == len(distinct) + len(SPECIALS)


def test_vocabulary_errors():
    with pytest.raises(ValueError, match="empty"):
        build_vocabulary(Cohort([], {}, {}), "academic", rules={})
    with pytest.raises(ValueError, match="variant"):
        build_vocabulary(build_counted_cohort(1, 1), "nope", rules={})


def test_vocabulary_json_round_trip():
    vocab = build_vocabulary(build_counted_cohort(3, 2), "academic", min_count=1, rules={})
    again = Vocabulary.from_json(vocab.to_json())
    assert again.index == vocab.index
    assert again.vocab_hash() == vocab.vocab_hash()
    with pytest.raises(ValueError, match="hash"):
        Vocabulary.from_json(vocab.to_json().replace(vocab.vocab_hash()[:8], "deadbeef"))


def test_padding_layout_three_events():
    student = make_student([make_grade(2009), make_grade(2010, "danish"), make_grade(2011, "physics")])
    vocab = build_vocabulary(Cohort([student], {}, {}), "academic", min_count=1, rules={})
    grid = encode_student(student, vocab, {}, L=6)
    channels = vocab.channels
    cls_row = grid[channels.index("cls")]
    assert cls_row[0] == CLS
    assert list(cls_row[1:4]) == [NULL] * 3
    assert list(cls_row[4:]) == [PAD] * 2
    grade_row = grid[channels.index("grade")]
    assert grade_row[0] == NULL
    assert all(g not in (PAD, NULL, CLS) for g in grade_row[1:4])
    assert list(grade_row[4:]) == [PAD] * 2


def test_enrollment_position_nulls_grade_channels():
    events = [make_grade(2010), EnrollmentEvent(2012, "p000", "ict", 6.5)]
    student = make_student(events)
    cohort = Cohort([student], {}, {})
    rules = {}
    vocab = build_vocabulary(cohort, "academic", min_count=1, rules=rules)
    grid = encode_student(student, vocab, rules, L=4)
    ch = vocab.channels
    # position 2 is the enrollment event
    assert grid[ch.index("grade"), 2] == NULL
    assert grid[ch.index("course"), 2] == NULL
    assert grid[ch.index("program"), 2] not in (PAD, NULL, CLS, UNK)
    # and the grade position has no program token
    assert grid[ch.index("program"), 1] == NULL


def test_trimming_drops_oldest():
    grades = [make_grade(2000 + i, course="mathematics", grade=7) for i in range(12)]
    events = grades + [EnrollmentEvent(2012, "p000", "ict", None)]
    student = make_student(events)
    vocab = build_vocabulary(Cohort([student], {}, {}), "academic", min_count=1, rules={})
    grid = encode_student(student, vocab, {}, L=6)
    ch = vocab.channels
    rel = grid[ch.index("relative_year")]
    inv = {v: k for k, v in vocab.index.items()}
    kept = [inv[int(t)].split(":", 1)[1] for t in rel[1:6]]
    # newest four grades (2008..2011 -> y-4..y-1) then enrollment (y0)
    assert kept == ["y-4", "y-3", "y-2", "y-1", "y0"]


def test_zero_event_warning():
    student = make_student([])
    vocab = build_vocabulary(build_counted_cohort(1, 1), "academic", min_count=1, rules={})
    with pytest.warns(UserWarning, match="no events"):
        grid = encode_student(student, vocab, {}, L=4)
    assert grid[vocab.channels.index("cls"), 0] == CLS
    assert (grid[:, 1:] == PAD).all()


def test_unknown_category_maps_to_unk():
    train = build_counted_cohort(5, 5)
    vocab = build_vocabulary(train, "academic", min_count=1, rules={})
    novel = make_student([make_grade(2011, course="quantum_basketweaving")])
    grid = encode_student(novel, vocab, {}, L=4)
    assert grid[vocab.channels.index("course"), 1] == UNK


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_grid_matches_cell_by_cell_oracle(variant):
    cohort = generate_cohort(GeneratorConfig(n_students=150), seed=29)
    rules = fit_binning_rules(cohort)
    vocab = build_vocabulary(cohort, variant, min_count=20, rules=rules)
    L = compute_L(sequence_lengths(cohort, variant, rules))
    novel = make_student(
        [
            make_grade(2011, course="quantum_basketweaving"),
            ApplicationEvent("p999", "space", rank=1, quota2_opt_in=False),
            EnrollmentEvent(2012, "p999", "space", 6.5),
        ],
        enrolled="p999",
    )
    empty = make_student([])
    truncated = unknown = no_rows = 0
    for s in cohort.students + [novel, empty]:
        n_rows = len(event_tokens(s, variant, rules))
        for length in (L, 4, 2):
            with warnings.catch_warnings(record=True) as got_warned:
                warnings.simplefilter("always")
                got = encode_student(s, vocab, rules, length)
            with warnings.catch_warnings(record=True) as want_warned:
                warnings.simplefilter("always")
                want = encode_student_by_cell(s, vocab, rules, length)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert [str(w.message) for w in got_warned] == [str(w.message) for w in want_warned]
            truncated += n_rows > length - 1
            unknown += bool((want == UNK).any())
        no_rows += n_rows == 0
    assert truncated and unknown
    # sociodemographic rows and the baseline's GPA row are never empty
    assert no_rows == (variant in ("academic", "human", "application"))


@pytest.fixture(scope="module")
def fuzz_setup():
    cohort = generate_cohort(GeneratorConfig(n_students=500), seed=23)
    rules = fit_binning_rules(cohort)
    vocab = build_vocabulary(cohort, "everything", min_count=1, rules=rules)
    L = compute_L(sequence_lengths(cohort, "everything", rules))
    batch = encode_cohort(cohort, vocab, rules, L)
    return cohort, rules, vocab, L, batch


def test_fuzz_lengths_and_alignment(fuzz_setup):
    cohort, rules, vocab, L, batch = fuzz_setup
    channels = vocab.channels
    assert batch.tokens.shape == (500, len(channels), L)
    cls_idx = channels.index("cls")
    for i, s in enumerate(cohort.students):
        grid = batch.tokens[i]
        rows = event_tokens(s, "everything", rules)
        n_socio = sum(1 for r in rows if "sociodemo" in r)
        if len(rows) > L - 1:
            keep = L - 1 - n_socio
            rows = rows[:n_socio] + (rows[n_socio:][len(rows) - n_socio - keep :] if keep > 0 else [])
            rows = rows[: L - 1]
        assert batch.lengths[i] == 1 + len(rows)
        assert grid[cls_idx, 0] == CLS
        assert all(grid[c, 0] == NULL for c in range(len(channels)) if c != cls_idx)
        for pos, row in enumerate(rows, start=1):
            non_null = {channels[c] for c in range(len(channels)) if grid[c, pos] != NULL}
            assert non_null == set(row), f"student {s.id} position {pos}"
        assert (grid[:, 1 + len(rows) :] == PAD).all()
    assert batch.tokens.max() < len(vocab)


def test_fuzz_socio_rows_survive_trimming(fuzz_setup):
    cohort, rules, vocab, _, _ = fuzz_setup
    tight = 12
    socio_idx = vocab.channels.index("sociodemo")
    for s in cohort.students[:100]:
        rows = event_tokens(s, "everything", rules)
        n_socio = sum(1 for r in rows if "sociodemo" in r)
        grid = encode_student(s, vocab, rules, tight)
        got_socio = int(((grid[socio_idx] != NULL) & (grid[socio_idx] != PAD)).sum())
        assert got_socio == min(n_socio, tight - 1)


def test_encoding_is_pure_and_permutable(fuzz_setup):
    cohort, rules, vocab, L, batch = fuzz_setup
    again = encode_cohort(cohort, vocab, rules, L)
    np.testing.assert_array_equal(again.tokens, batch.tokens)
    perm = np.random.default_rng(1).permutation(len(cohort.students))
    shuffled = Cohort([cohort.students[j] for j in perm], cohort.programs, cohort.meta)
    enc = encode_cohort(shuffled, vocab, rules, L)
    np.testing.assert_array_equal(enc.tokens, batch.tokens[perm])


def test_container_round_trip(tmp_path, fuzz_setup):
    _, _, _, _, batch = fuzz_setup
    path = tmp_path / "batch.aseq"
    batch.save(path)
    loaded = TokenSequenceBatch.load(path)
    np.testing.assert_array_equal(loaded.tokens, batch.tokens)
    np.testing.assert_array_equal(loaded.lengths, batch.lengths)
    np.testing.assert_array_equal(loaded.student_ids, batch.student_ids)
    np.testing.assert_array_equal(loaded.labels, batch.labels)
    assert loaded.vocab_hash == batch.vocab_hash
    bad = tmp_path / "bad.aseq"
    bad.write_bytes(b"NOTASEQ" + b"\x00" * 20)
    with pytest.raises(ValueError, match="magic"):
        TokenSequenceBatch.load(bad)


def test_subset(fuzz_setup):
    _, _, _, _, batch = fuzz_setup
    sub = batch.subset(np.arange(10))
    assert len(sub) == 10
    np.testing.assert_array_equal(sub.tokens, batch.tokens[:10])
