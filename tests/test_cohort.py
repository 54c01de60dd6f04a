"""Generator calibration, splits, serialization, and planted-model checks."""

import hashlib
import json
import warnings

import numpy as np
import pytest

import oracles
from admitsim import cohort as cohorts
from admitsim.cohort import (
    ApplicationEvent,
    Cohort,
    EnrollmentEvent,
    GeneratorConfig,
    GradeEvent,
    GRADE_STEPS,
    Program,
    Student,
    generate_cohort,
    load_cohort,
    save_cohort,
    temporal_split,
    validation_split,
    with_enrollment,
)


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(GeneratorConfig(n_students=4000), seed=11)


def test_same_seed_is_bit_identical(cohort):
    again = generate_cohort(GeneratorConfig(n_students=4000), seed=11)
    assert again.students == cohort.students
    assert again.programs == cohort.programs


def test_empty_cohort_no_error():
    empty = generate_cohort(GeneratorConfig(n_students=0), seed=1)
    assert len(empty) == 0
    assert len(empty.programs) == 40


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n_students=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(start_year=2010, end_year=2009)
    with pytest.raises(ValueError):
        GeneratorConfig(n_programs=0)


def test_completion_mean_calibrated(cohort):
    cfg = GeneratorConfig(n_students=4000)
    train_years = [y for y in cohort.years() if y < cfg.end_year]
    train = cohort.filter_years(train_years)
    realized = np.mean([s.completed for s in train.students])
    assert abs(realized - cfg.completion_mean) < 0.02


def test_gpa_marginals(cohort):
    gpas = np.array([s.gpa for s in cohort.students])
    assert abs(gpas.mean() - 7.08) < 0.25
    assert abs(gpas.std() - 2.28) < 0.4


def test_quota_rates_and_ordering(cohort):
    opted = np.array([s.events[-1] is not None and any(isinstance(e, ApplicationEvent) and e.quota2_opt_in for e in s.events) for s in cohort.students])
    human = np.array([s.admission_quota == "human" for s in cohort.students])
    assert 0.30 <= opted.mean() <= 0.40
    assert 0.12 <= human.mean() <= 0.20

    gpas = np.array([s.gpa for s in cohort.students])
    assert gpas[human].mean() < gpas[~human].mean() - 0.5

    # human admission implies a quota-2 opt-in application for the enrolled program
    for s in cohort.students:
        if s.admission_quota == "human":
            apps = [e for e in s.events if isinstance(e, ApplicationEvent) and e.program_id == s.enrolled_program]
            assert apps and all(a.quota2_opt_in and a.human_rank_decile is not None for a in apps)


def test_event_stream_shape(cohort):
    for s in cohort.students[:300]:
        enrollments = [e for e in s.events if isinstance(e, EnrollmentEvent)]
        assert len(enrollments) == 1
        assert enrollments[0].program_id == s.enrolled_program
        grades = [e for e in s.events if isinstance(e, GradeEvent)]
        assert len(grades) >= 9
        assert all(g.grade in GRADE_STEPS for g in grades)
        years = [g.year for g in grades]
        assert years == sorted(years)
        ranks = [e.rank for e in s.events if isinstance(e, ApplicationEvent)]
        assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)


def test_ses_split_is_even(cohort):
    ses = np.array([s.sociodemo.ses_high for s in cohort.students])
    assert abs(ses.sum() - len(ses) / 2) <= 1


def test_planted_probabilities_match_outcomes(cohort):
    p = np.array([s.planted_p for s in cohort.students])
    y = np.array([s.completed for s in cohort.students], dtype=float)
    gpas = np.array([s.gpa for s in cohort.students])
    ranks = np.argsort(np.argsort(gpas))
    deciles = ranks * 10 // len(gpas)
    for d in range(10):
        mask = deciles == d
        se = np.sqrt(np.sum(p[mask] * (1 - p[mask]))) / mask.sum()
        assert abs(y[mask].mean() - p[mask].mean()) < 3 * se + 1e-12


def test_grade_profile_signal_present(cohort):
    # the planted model uses grade-profile terms beyond GPA: verify the
    # stored probability is not a function of GPA alone
    p = np.array([s.planted_p for s in cohort.students])
    gpas = np.array([s.gpa for s in cohort.students])
    order = np.argsort(gpas)
    p_sorted = p[order]
    # within narrow GPA windows the planted probability still varies widely
    spreads = [p_sorted[i : i + 40].std() for i in range(0, len(p_sorted) - 40, 40)]
    assert np.median(spreads) > 0.03


def test_temporal_split_partition(cohort):
    train, test = temporal_split(cohort)
    assert len(train) + len(test) == len(cohort)
    assert set(test.years()) == {max(cohort.years())}
    assert max(train.years()) < min(test.years())


def test_temporal_split_errors(cohort):
    with pytest.raises(ValueError):
        temporal_split(cohort, holdout_year=1999)
    single = generate_cohort(GeneratorConfig(n_students=50, start_year=2010, end_year=2010), seed=3)
    with pytest.raises(ValueError):
        temporal_split(single)


def test_validation_split_counts():
    cohort = generate_cohort(GeneratorConfig(n_students=1000, start_year=2006, end_year=2015), seed=5)
    fit, val = validation_split(cohort, fraction=0.05, seed=1)
    assert len(fit) + len(val) == 1000
    counts = {}
    for s in cohort.students:
        counts[s.cohort_year] = counts.get(s.cohort_year, 0) + 1
    val_counts = {}
    for s in val.students:
        val_counts[s.cohort_year] = val_counts.get(s.cohort_year, 0) + 1
    for year, total in counts.items():
        want = 0.05 * total
        assert abs(val_counts.get(year, 0) - want) <= 1


def test_validation_split_seed_changes_membership():
    cohort = generate_cohort(GeneratorConfig(n_students=1000, start_year=2006, end_year=2015), seed=5)
    _, val_a = validation_split(cohort, seed=1)
    _, val_b = validation_split(cohort, seed=2)
    ids_a = {s.id for s in val_a.students}
    ids_b = {s.id for s in val_b.students}
    assert ids_a != ids_b
    assert len(ids_a) == len(ids_b)


def test_validation_split_tiny_year_falls_back():
    students = generate_cohort(GeneratorConfig(n_students=60, start_year=2006, end_year=2007), seed=7).students
    lone = [s for s in students if s.cohort_year == 2006][:1]
    rest = [s for s in students if s.cohort_year == 2007]
    cohort = Cohort(students=lone + rest, programs={}, meta={})
    with pytest.warns(UserWarning, match="global sampling"):
        fit, val = validation_split(cohort, fraction=0.10, seed=1)
    assert len(fit) + len(val) == len(cohort)


def test_round_trip(tmp_path, cohort):
    path = tmp_path / "cohort.jsonl"
    small = Cohort(students=cohort.students[:60], programs=cohort.programs, meta=cohort.meta)
    save_cohort(small, path)
    loaded = load_cohort(path)
    assert loaded.students == small.students
    assert loaded.programs == small.programs
    assert loaded.meta == small.meta


# sha256 of save_cohort's output for the 40-student cohort of seed 5.  Every
# cohort.jsonl and run-directory manifest depends on these bytes, so a change
# to the serialized format must change this digest on purpose.
COHORT_40_SEED_5_SHA256 = "bf19e7f597bfc3d76335af781b2d2cde220c46fb91fb98a495a2197ed99dd680"


def test_saved_bytes_are_pinned_and_survive_a_round_trip(tmp_path):
    first = tmp_path / "first.jsonl"
    save_cohort(generate_cohort(GeneratorConfig(n_students=40), seed=5), first)
    data = first.read_bytes()
    assert hashlib.sha256(data).hexdigest() == COHORT_40_SEED_5_SHA256
    again = tmp_path / "again.jsonl"
    save_cohort(load_cohort(first), again)
    assert again.read_bytes() == data


# sha256 of save_cohort's output on configs that reach the generator's edge
# cases: a student count past one grade-event block and not a multiple of it,
# an empty study-line affinity pool (one program), more applications than the
# pool holds (three programs), the six-event floor on high-school grades, a
# single admission year (no earlier training year), and a lone student.  The
# generator's random stream and arithmetic must keep these bytes.
@pytest.mark.parametrize(
    "overrides, seed, digest",
    [
        ({"n_students": 2500}, 11, "339e34b95428e98c67716ea4f1d9e14c3e49265561e9becae75cecaf3cd9d40a"),
        ({"n_students": 300, "n_programs": 1}, 3, "189930871ec9bb2076ec0ea700e5189ecb6b88f654e173b5df27c17cc428365c"),
        ({"n_students": 300, "n_programs": 3}, 4, "faa0ec6dec937973df405aa7bb12104924dfa1d1b68b975586aed64ad8c9eb70"),
        ({"n_students": 300, "mean_grade_events": 6}, 5, "b021b728fe184877ec058b96d83e162d512e6c3a7e22c0d473da89e275d83483"),
        ({"n_students": 300, "start_year": 2010, "end_year": 2010}, 6, "41ce49ecddd35635e0c4b9e0892a75ad15f9836d719c6969b0410601952b9c94"),
        ({"n_students": 1}, 7, "5eec435d10cea9fe28800ba5c7929af28919e652876c064124d31565b32cddbc"),
    ],
    ids=["2500-students", "one-program", "three-programs", "six-events", "single-year", "one-student"],
)
def test_generator_bytes_are_pinned(tmp_path, overrides, seed, digest):
    path = tmp_path / "cohort.jsonl"
    save_cohort(generate_cohort(GeneratorConfig(**overrides), seed=seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_students": 1100, "n_programs": 7},
        # about 130 grades per student: numpy's std splits each row's sum in two
        {"n_students": 60, "mean_grade_events": 130},
    ],
    ids=["past-one-block", "long-rows"],
)
def test_block_generator_matches_per_student_reference(monkeypatch, overrides):
    config = GeneratorConfig(**overrides)
    fast = generate_cohort(config, seed=2)
    monkeypatch.setattr(cohorts, "_grade_events", oracles.grade_events_per_student)
    slow = generate_cohort(config, seed=2)
    assert fast.students == slow.students
    assert fast.meta == slow.meta


@pytest.mark.parametrize("n_students", [1, 3])
def test_tiny_cohorts_warn_nothing(n_students):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        made = [generate_cohort(GeneratorConfig(n_students=n_students), seed=seed) for seed in range(20)]
    # the seeds include cohorts where nobody opts into quota 2
    assert any(not any(_opted_in(s) for s in c.students) for c in made)


def _opted_in(student) -> bool:
    return any(isinstance(e, ApplicationEvent) and e.quota2_opt_in for e in student.events)


def test_load_names_the_line_of_an_invalid_student(tmp_path, cohort):
    path = tmp_path / "cohort.jsonl"
    save_cohort(Cohort(students=cohort.students[:8], programs=cohort.programs, meta=cohort.meta), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)

    def off_scale(d):
        grade = next(e for e in d["events"] if e["kind"] == "grade")
        grade["grade"] = 5

    def unknown_kind(d):
        d["events"][0]["kind"] = "transfer"

    def missing_field(d):
        del d["cohort_year"]

    # line numbers count the header and the program/meta line
    for lineno, corrupt, message in ((4, off_scale, "7-step scale"), (7, unknown_kind, "unknown event kind"),
                                     (10, missing_field, "cohort_year")):
        record = json.loads(lines[lineno - 1])
        corrupt(record)
        bad = tmp_path / f"bad-{lineno}.jsonl"
        bad.write_text("".join(lines[: lineno - 1] + [json.dumps(record) + "\n"] + lines[lineno:]), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^line {lineno}: malformed student record: .*{message}"):
            load_cohort(bad)


def test_load_errors(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("admitsim-cohort v1\n{\"programs\": [], \"meta\": {}}\n{broken\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        load_cohort(bad)

    truncated = tmp_path / "trunc.jsonl"
    truncated.write_text("admitsim-cohort v1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_cohort(truncated)

    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text("something else\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_cohort(wrong)

    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert len(load_cohort(empty)) == 0


def test_with_enrollment_swaps_program(cohort):
    s = cohort.students[0]
    target_id = next(pid for pid in cohort.programs if pid != s.enrolled_program)
    target = cohort.programs[target_id]
    moved = with_enrollment(s, target)
    assert moved.enrolled_program == target_id
    enr = [e for e in moved.events if isinstance(e, EnrollmentEvent)]
    assert len(enr) == 1 and enr[0].program_id == target_id
    assert enr[0].isced_field == target.isced_field
    assert s.enrolled_program != target_id  # original untouched


def test_event_validation():
    with pytest.raises(ValueError):
        GradeEvent(2010, "danish", "A", "oral_exam", "stx", "science", "high_school", "hs001", grade=5)
    with pytest.raises(ValueError):
        ApplicationEvent("p001", "health_welfare", rank=9, quota2_opt_in=False)
    with pytest.raises(ValueError):
        ApplicationEvent("p001", "health_welfare", rank=1, quota2_opt_in=False, human_rank_decile=3)
    with pytest.raises(ValueError):
        Program("p001", "ict", seats_q1=0, seats_q2=0, prior_year_gpa_cutoff=None)
