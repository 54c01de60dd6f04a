"""Registry-style student records and a calibrated synthetic cohort generator.

The generator plants a known completion model (logistic in GPA, nonlinear
grade-profile terms, and program effects) and stores each student's true
completion probability, so downstream model and policy evaluations have a
ground-truth oracle.  Marginal statistics are calibrated to configurable
targets; the completion intercept is solved by bisection so the expected
train-year completion rate hits the target exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._seeds import substream

__all__ = [
    "GRADE_STEPS",
    "ISCED_FIELDS",
    "COURSE_CATALOG",
    "STUDY_LINES",
    "GradeEvent",
    "ApplicationEvent",
    "EnrollmentEvent",
    "SocioRecord",
    "Student",
    "Program",
    "GeneratorConfig",
    "Cohort",
    "generate_cohort",
    "temporal_split",
    "validation_split",
    "save_cohort",
    "load_cohort",
    "with_enrollment",
]

# Danish 7-step scale
GRADE_STEPS = (-3, 0, 2, 4, 7, 10, 12)
_STEP_ARRAY = np.array(GRADE_STEPS, dtype=float)

# ISCED-F 2013 broad groups
ISCED_FIELDS = (
    "generic",
    "education",
    "arts_humanities",
    "social_sciences",
    "business_law",
    "natural_sciences",
    "ict",
    "engineering",
    "agriculture",
    "health_welfare",
    "services",
)

# course name -> broad field used for grade-profile aggregates
COURSE_CATALOG: Mapping[str, str] = {
    "mathematics": "stem",
    "physics": "stem",
    "chemistry": "stem",
    "biology": "stem",
    "computer_science": "stem",
    "danish": "language",
    "english": "language",
    "german": "language",
    "french": "language",
    "spanish": "language",
    "history": "other",
    "social_studies": "other",
    "religion": "other",
    "psychology": "other",
    "economics": "other",
    "music": "other",
    "visual_arts": "other",
    "physical_education": "other",
}

STUDY_LINES = ("science", "social", "language", "arts", "technical")
COURSE_LEVELS = ("A", "B", "C")
TEST_TYPES = ("written_exam", "oral_exam", "year_grade")
EDUCATION_TYPES = ("stx", "hf", "hhx", "htx", "eux")
SCHOOL_STAGES = ("primary", "high_school")


@dataclass(frozen=True, slots=True)
class GradeEvent:
    year: int
    course: str
    course_level: str
    test_type: str
    education_type: str
    study_line: str
    school_stage: str
    institution_id: str
    grade: int

    def __post_init__(self) -> None:
        if self.grade not in GRADE_STEPS:
            raise ValueError(f"grade {self.grade} is not on the 7-step scale")
        if self.course_level not in COURSE_LEVELS:
            raise ValueError(f"course_level must be one of {COURSE_LEVELS}")
        if self.school_stage not in SCHOOL_STAGES:
            raise ValueError(f"school_stage must be one of {SCHOOL_STAGES}")


@dataclass(frozen=True, slots=True)
class ApplicationEvent:
    program_id: str
    isced_field: str
    rank: int
    quota2_opt_in: bool
    human_rank_decile: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.rank <= 8:
            raise ValueError("application rank must lie in 1..8")
        if self.human_rank_decile is not None:
            if not self.quota2_opt_in:
                raise ValueError("human_rank_decile requires quota2_opt_in")
            if not 1 <= self.human_rank_decile <= 10:
                raise ValueError("human_rank_decile must lie in 1..10")


@dataclass(frozen=True, slots=True)
class EnrollmentEvent:
    year: int
    program_id: str
    isced_field: str
    cutoff_gpa: float | None


@dataclass(slots=True)
class SocioRecord:
    age: float | None
    female: bool
    danish_origin: bool
    # parental slots are (parent 1, parent 2); None marks a missing register row
    income: tuple[float | None, float | None]
    wealth: tuple[float | None, float | None]
    edu_isced: tuple[int | None, int | None]
    edu_months: tuple[float | None, float | None]
    ses_high: bool = False


@dataclass(slots=True)
class Student:
    id: int
    gpa: float
    events: list
    sociodemo: SocioRecord
    enrolled_program: str
    admission_quota: str
    cohort_year: int
    completed: bool
    planted_p: float | None = None
    first_year_gpa: float | None = None

    def __post_init__(self) -> None:
        if self.admission_quota not in ("gpa", "human"):
            raise ValueError("admission_quota must be 'gpa' or 'human'")


@dataclass(frozen=True, slots=True)
class Program:
    program_id: str
    isced_field: str
    seats_q1: int
    seats_q2: int
    prior_year_gpa_cutoff: float | None

    def __post_init__(self) -> None:
        if self.seats_q1 + self.seats_q2 < 1:
            raise ValueError("a program needs at least one seat")


@dataclass(frozen=True)
class GeneratorConfig:
    n_students: int = 2000
    n_programs: int = 40
    start_year: int = 2006
    end_year: int = 2017
    completion_mean: float = 0.69
    gpa_mean: float = 7.08
    gpa_sd: float = 2.28
    quota2_optin_rate: float = 0.35
    human_admit_rate: float = 0.16
    female_rate: float = 0.58
    danish_rate: float = 0.91
    age_mean: float = 20.35
    mean_grade_events: float = 16.0
    max_applications: int = 8
    # planted completion model weights
    gpa_weight: float = 0.85
    stem_weight: float = 0.9
    dispersion_weight: float = -0.55
    trend_weight: float = 0.6
    program_effect_sd: float = 0.25

    def __post_init__(self) -> None:
        if self.n_students < 0:
            raise ValueError("n_students must be non-negative")
        if self.n_programs < 1:
            raise ValueError("n_programs must be positive")
        if self.end_year < self.start_year:
            raise ValueError("empty year range")
        if not 0.0 < self.completion_mean < 1.0:
            raise ValueError("completion_mean must lie in (0, 1)")
        if self.mean_grade_events <= 0 or self.max_applications < 1:
            raise ValueError("event counts must be positive")


@dataclass
class Cohort:
    students: list[Student]
    programs: dict[str, Program]
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.students)

    def years(self) -> list[int]:
        return sorted({s.cohort_year for s in self.students})

    def filter_years(self, years: Iterable[int]) -> "Cohort":
        keep = set(years)
        return Cohort(
            students=[s for s in self.students if s.cohort_year in keep],
            programs=self.programs,
            meta=self.meta,
        )


# line -> which isced fields a student on that line tends to apply to
_LINE_AFFINITY = {
    "science": ("natural_sciences", "health_welfare", "engineering", "ict"),
    "social": ("social_sciences", "business_law", "education", "services"),
    "language": ("arts_humanities", "education", "social_sciences", "business_law"),
    "arts": ("arts_humanities", "services", "education", "social_sciences"),
    "technical": ("engineering", "ict", "natural_sciences", "agriculture"),
}

_COURSES = tuple(COURSE_CATALOG)
_COURSE_FIELD = np.array([{"stem": 0, "language": 1, "other": 2}[COURSE_CATALOG[c]] for c in _COURSES])

# course draw weights per study line over (stem, language, other)
_LINE_FIELD_WEIGHTS = {
    "science": (0.55, 0.2, 0.25),
    "social": (0.2, 0.25, 0.55),
    "language": (0.15, 0.55, 0.3),
    "arts": (0.15, 0.3, 0.55),
    "technical": (0.5, 0.2, 0.3),
}


def _course_cdf(line: str) -> np.ndarray:
    """Cumulative course draw weights of a study line.

    Normalised the way numpy's ``Generator.choice`` normalises ``p``, so
    ``cdf.searchsorted(rng.random(k), side="right")`` picks the courses that
    ``rng.choice(len(_COURSES), size=k, p=p)`` picks from the same stream.
    """
    w = _LINE_FIELD_WEIGHTS[line]
    per_course = np.array([w[f] for f in _COURSE_FIELD], dtype=float)
    counts = np.bincount(_COURSE_FIELD, minlength=3)
    per_course /= counts[_COURSE_FIELD]
    cdf = (per_course / per_course.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


_COURSE_CDFS = tuple(_course_cdf(line) for line in STUDY_LINES)
# position of each course in name order, the tie-break of the event sort
_COURSE_RANK = np.array([sorted(_COURSES).index(c) for c in _COURSES])
# object arrays of the event field values, so fancy indexing yields str columns
_COURSE_NAMES = np.array(_COURSES, dtype=object)
_LEVEL_NAMES = np.array(COURSE_LEVELS, dtype=object)
_TEST_NAMES = np.array(TEST_TYPES, dtype=object)
_EDU_NAMES = np.array(EDUCATION_TYPES, dtype=object)
_LINE_NAMES = np.array(STUDY_LINES, dtype=object)
_STAGE_NAMES = np.array(SCHOOL_STAGES, dtype=object)


def _nearest_step(values: np.ndarray) -> np.ndarray:
    mids = (_STEP_ARRAY[1:] + _STEP_ARRAY[:-1]) / 2.0
    return _STEP_ARRAY[np.searchsorted(mids, values)]


def _solve_intercept(lin: np.ndarray, target: float) -> float:
    """Bisection on b0 so mean(sigmoid(b0 + lin)) == target."""
    lo, hi = -20.0, 20.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.mean(1.0 / (1.0 + np.exp(-(mid + lin)))) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _zscore(x: np.ndarray) -> np.ndarray:
    sd = x.std()
    if sd == 0:
        return np.zeros_like(x)
    return (x - x.mean()) / sd


def _ses_high(parental: np.ndarray) -> np.ndarray:
    """Median split on the first principal component of parental columns.

    Columns with missing entries are median-imputed, standardized, and the
    PC sign is fixed so income loads positively.
    """
    work = parental.copy()
    if work.shape[0] < 2:
        return np.zeros(work.shape[0], dtype=bool)
    for j in range(work.shape[1]):
        col = work[:, j]
        nan = np.isnan(col)
        if nan.all():
            col[:] = 0.0
        elif nan.any():
            col[nan] = np.median(col[~nan])
    mu = work.mean(axis=0)
    sd = work.std(axis=0)
    sd[sd == 0] = 1.0
    z = (work - mu) / sd
    cov = np.cov(z, rowvar=False)
    eigvals, eigvecs = np.linalg.eigh(cov)
    pc = eigvecs[:, np.argmax(eigvals)]
    if pc[:2].sum() < 0:
        pc = -pc
    score = z @ pc
    return score > np.median(score)


# students per block of the grade-event generator: pass 2 holds every array of
# a block's events at once, so blocks keep its memory independent of n
_EVENT_BLOCK = 1024


def _grade_events(rng, gpa_mean, years, ability, stem_tilt, diligence, lines, edu_types, n_hs, n_prim):
    """Every student's grade events (sorted by year, then course name) and profile.

    Returns the event lists, the high-school GPA rounded to 2 places, and the
    stem gap, dispersion and trend over all of a student's grades.  Students
    go in blocks of ``_EVENT_BLOCK``: pass 1 makes each student's draws in
    student order, pass 2 turns the block's draws into events without
    drawing.
    """
    n = len(years)
    n_inst = (max(2, n // 400), max(2, n // 250))  # high schools, primary schools
    events: list[list[GradeEvent]] = []
    gpa: list[float] = []
    profile = np.empty((3, n))
    for lo in range(0, n, _EVENT_BLOCK):
        b = slice(lo, lo + _EVENT_BLOCK)
        draws = _draw_block(rng, years[b], n_hs[b], n_prim[b], n_inst)
        block_events, block_gpa, profile[:, b] = _block_events(
            draws, gpa_mean, years[b], ability[b], stem_tilt[b], diligence[b], lines[b], edu_types[b], n_hs[b], n_prim[b]
        )
        events.extend(block_events)
        gpa.extend(block_gpa)
    return events, np.array(gpa), *profile


def _draw_block(rng, years, n_hs, n_prim, n_inst):
    """Pass 1: the block's grade-event draws, student by student in the order
    ``generate_cohort`` documents.

    Returns each kind of draw concatenated over the block, and the schools
    as an object array with one (primary, high-school) id row per student.
    """
    uniforms, hs_years, noise, picks, schools = [], [], [], [], []
    for y, k_hs, k_pr in zip(years.tolist(), n_hs.tolist(), n_prim.tolist()):
        uniforms.append(rng.random(k_hs + k_pr))
        hs_years.append(rng.integers(y - 3, y, size=k_hs))
        noise.append(rng.normal(0.0, 1.9, size=k_hs + k_pr))
        hs_school = f"hs{rng.integers(n_inst[0]):03d}"  # drawn before the primary school
        schools.append((f"ps{rng.integers(n_inst[1]):03d}", hs_school))
        picks.append(rng.integers(3, size=k_pr + 2 * k_hs))
    return (
        np.concatenate(uniforms),
        np.concatenate(hs_years),
        np.concatenate(noise),
        np.concatenate(picks),
        np.array(schools, dtype=object),
    )


def _block_events(draws, gpa_mean, years, ability, stem_tilt, diligence, lines, edu_types, n_hs, n_prim):
    """Pass 2: a block's events, GPA and (stem gap, dispersion, trend), no draws.

    Event-level arrays run over the block's events student by student, each
    student's primary events first, in the order pass 1 drew them.
    """
    uniforms, hs_draws, noise, picks, schools = draws
    m = len(years)
    k = n_hs + n_prim
    starts = np.cumsum(k) - k
    sid = np.repeat(np.arange(m), k)  # block student of each event
    hs = np.arange(len(sid)) - starts[sid] >= n_prim[sid]

    courses = np.empty(len(sid), dtype=np.intp)
    event_line = lines[sid]
    for line, cdf in enumerate(_COURSE_CDFS):
        on = event_line == line
        courses[on] = cdf.searchsorted(uniforms[on], side="right")
    fields = _COURSE_FIELD[courses]
    tilt_dir = np.where(fields == 0, 1.0, np.where(fields == 1, -0.7, 0.1))
    # high-school events span three years, sorted per student; primary sits two years earlier
    ev_years = np.repeat(years - 5, k)
    ev_years[hs] = hs_draws[np.lexsort((hs_draws, sid[hs]))]
    first = np.minimum.reduceat(ev_years, starts)
    last = np.maximum.reduceat(ev_years, starts)
    # quantization to the 7-step grid shifts the mean slightly; offset corrects it
    center = gpa_mean + 0.08
    raw = (
        center
        + 2.05 * ability[sid]
        + 1.5 * tilt_dir * stem_tilt[sid]
        + (0.35 * diligence)[sid] * (ev_years - first[sid])
        + noise
    )
    grades = _nearest_step(raw)

    # grades are whole numbers, so these sums are exact in any order and each
    # mean has the bits of numpy's mean over the student's own array
    def seg_mean(mask: np.ndarray) -> np.ndarray:
        """Mean grade of each student's events under ``mask``; 0 where there are none."""
        count = np.bincount(sid[mask], minlength=m)
        return np.bincount(sid[mask], weights=grades[mask], minlength=m) / np.maximum(count, 1)

    overall = np.bincount(sid, weights=grades, minlength=m) / k
    stem = fields == 0
    stem_gap = np.where(np.bincount(sid[stem], minlength=m) > 0, seg_mean(stem) - overall, 0.0)
    trend = np.where(first != last, seg_mean(ev_years == last[sid]) - seg_mean(ev_years == first[sid]), 0.0)
    # the squared deviations are not whole numbers: numpy's row-wise std sums
    # each row as np.std of that row alone does, so group students by length
    dispersion = np.empty(m)
    for length in np.unique(k).tolist():
        rows = np.flatnonzero(k == length)
        dispersion[rows] = grades[starts[rows, None] + np.arange(length)].std(axis=1)
    gpa = [round(v, 2) for v in seg_mean(hs).tolist()]

    # picks per student: a test type per primary event, then a level and a test type per high-school event
    n_picks = n_prim + 2 * n_hs
    pick_sid = np.repeat(np.arange(m), n_picks)
    past_primary = np.arange(len(picks)) - (np.cumsum(n_picks) - n_picks)[pick_sid] - n_prim[pick_sid]
    is_level = (past_primary >= 0) & (past_primary % 2 == 0)
    level = np.full(len(sid), COURSE_LEVELS.index("C"))
    level[hs] = picks[is_level]
    test = picks[~is_level]

    order = np.lexsort((_COURSE_RANK[courses], ev_years, sid))
    stage = hs[order].astype(np.intp)
    student = sid[order]
    flat = list(
        map(
            GradeEvent,
            ev_years[order].tolist(),
            _COURSE_NAMES[courses[order]].tolist(),
            _LEVEL_NAMES[level[order]].tolist(),
            _TEST_NAMES[test[order]].tolist(),
            _EDU_NAMES[edu_types[student]].tolist(),
            _LINE_NAMES[lines[student]].tolist(),
            _STAGE_NAMES[stage].tolist(),
            schools[student, stage].tolist(),
            grades[order].astype(np.int64).tolist(),
        )
    )
    events = [flat[a:b] for a, b in zip(starts.tolist(), (starts + k).tolist())]
    return events, gpa, (stem_gap, dispersion, trend)


def generate_cohort(config: GeneratorConfig, seed: int) -> Cohort:
    """Synthetic cohort of ``config.n_students`` students, a pure function of config and seed.

    Every draw comes from the one stream ``substream(seed, "cohort")``, in a
    fixed order that the cohort's bytes depend on: the program registry;
    one vector of n per student attribute; each student's grade events;
    quota-2 opt-in, human scores and human admission; applications, one
    student after another; completion and first-year GPA; sociodemographics.

    Grade-event draws go student by student.  A student with k_hs
    high-school and k_pr primary events (k = k_hs + k_pr) draws k uniforms
    for the courses, k_hs high-school years, k grade noises, a high school, a
    primary school, and then k_pr + 2*k_hs picks of 0..2: a test type for
    each primary event, then a level and a test type for each high-school
    event.  Students are processed in blocks, but a block only batches the
    arithmetic after its draws: it reorders none of them.  Pinned
    ``save_cohort`` digests in ``tests/test_cohort.py`` guard this order and
    the arithmetic that follows it.
    """
    rng = substream(seed, "cohort")
    n = config.n_students

    # program registry
    programs: dict[str, Program] = {}
    prog_fields = [ISCED_FIELDS[1:][i % 10] for i in range(config.n_programs)]
    cutoffs = np.clip(rng.normal(4.22, 2.06, size=config.n_programs), -1.0, 11.0)
    cutoff_missing = rng.random(config.n_programs) < 0.09
    expected = max(1, n // config.n_programs)
    for i in range(config.n_programs):
        pid = f"p{i:03d}"
        programs[pid] = Program(
            program_id=pid,
            isced_field=prog_fields[i],
            seats_q1=max(1, round(0.8 * expected)),
            seats_q2=max(1, round(0.2 * expected)),
            prior_year_gpa_cutoff=None if cutoff_missing[i] else round(float(cutoffs[i]), 2),
        )
    prog_ids = list(programs)
    prog_by_field: dict[str, list[int]] = {}
    for i, pid in enumerate(prog_ids):
        prog_by_field.setdefault(programs[pid].isced_field, []).append(i)
    program_effects = rng.normal(0.0, config.program_effect_sd, size=config.n_programs)

    meta = {
        "config": dataclasses.asdict(config),
        "seed": seed,
        "program_effects": {pid: float(program_effects[i]) for i, pid in enumerate(prog_ids)},
    }

    if n == 0:
        meta["planted"] = {}
        return Cohort(students=[], programs=programs, meta=meta)

    # student-level draws, vectorized
    years = rng.integers(config.start_year, config.end_year + 1, size=n)
    ability = rng.normal(0.0, 1.0, size=n)
    stem_tilt = rng.normal(0.0, 1.0, size=n)
    diligence = rng.normal(0.0, 1.0, size=n)
    lines = rng.choice(len(STUDY_LINES), size=n, p=[0.28, 0.27, 0.18, 0.12, 0.15])
    edu_types = rng.choice(len(EDUCATION_TYPES), size=n, p=[0.55, 0.12, 0.15, 0.12, 0.06])
    n_hs = np.maximum(6, rng.poisson(config.mean_grade_events - 5.0, size=n))
    n_prim = rng.integers(3, 7, size=n)
    female = rng.random(n) < config.female_rate
    danish = rng.random(n) < config.danish_rate

    # grade events; ability drives level, tilt moves stem vs language courses
    events, gpa, stem_gap, dispersion, trend = _grade_events(
        rng, config.gpa_mean, years, ability, stem_tilt, diligence, lines, edu_types, n_hs, n_prim
    )

    gpa_z = _zscore(gpa)
    stem_z = _zscore(stem_gap)
    disp_z = _zscore(dispersion)
    trend_z = _zscore(trend)

    # quota-2 opt-in falls with GPA; admission through the human track does too
    optin_lin = -1.0 * gpa_z
    a0 = _solve_intercept(optin_lin, config.quota2_optin_rate)
    opted = rng.random(n) < 1.0 / (1.0 + np.exp(-(a0 + optin_lin)))
    human_score = 0.6 * np.tanh(stem_z) - 0.4 * disp_z**2 + 0.5 * trend_z + 0.6 * diligence + rng.normal(0.0, 0.8, size=n)
    # decile 1 is the strongest human assessment, ranked among opted-in students
    decile = np.zeros(n, dtype=int)
    opt_idx = np.flatnonzero(opted)
    if opt_idx.size:
        order = np.argsort(np.argsort(-human_score[opt_idx], kind="stable"), kind="stable")
        decile[opt_idx] = (order * 10 // opt_idx.size) + 1
    cond_rate = min(0.95, config.human_admit_rate / max(opted.mean(), 1e-9))
    human_lin = -0.8 * gpa_z - 0.35 * (decile - 5.5)
    admit_draw = rng.random(n)  # drawn even when nobody opted in, so later draws keep their place
    human_admit = np.zeros(n, dtype=bool)
    if opt_idx.size:
        h0 = _solve_intercept(human_lin[opted], cond_rate)
        human_admit = opted & (admit_draw < 1.0 / (1.0 + np.exp(-(h0 + human_lin))))

    # program choice: first-choice field from the study line's affinity list
    prog_idx = np.empty(n, dtype=int)
    n_apps = np.minimum(1 + rng.geometric(0.45, size=n), config.max_applications)
    accepted_rank = np.minimum(rng.geometric(0.72, size=n), n_apps)
    # each line's sorted pool of affinity programs; every program when the line has none
    pools = []
    for line in STUDY_LINES:
        pool = sorted({p for f in _LINE_AFFINITY[line] for p in prog_by_field.get(f, [])})
        pools.append(np.array(pool) if pool else np.arange(len(prog_ids)))
    app_lists: list[list[int]] = []
    for i, (line, apps, accepted) in enumerate(zip(lines.tolist(), n_apps.tolist(), accepted_rank.tolist())):
        pool = pools[line]
        k = min(apps, len(prog_ids))
        chosen = rng.choice(pool if k <= len(pool) else len(prog_ids), size=k, replace=False).tolist()
        app_lists.append(chosen)
        prog_idx[i] = chosen[min(accepted, k) - 1]

    # planted completion model: logistic in GPA, nonlinear grade profile, program effects
    profile_term = config.stem_weight * np.tanh(stem_z) + config.dispersion_weight * disp_z**2 + config.trend_weight * trend_z
    lin = config.gpa_weight * gpa_z + profile_term + program_effects[prog_idx]
    train_mask = years < config.end_year if (years < config.end_year).any() else np.ones(n, bool)
    b0 = _solve_intercept(lin[train_mask], config.completion_mean)
    planted_p = 1.0 / (1.0 + np.exp(-(b0 + lin)))
    completed = rng.random(n) < planted_p
    first_year_gpa = np.clip(7.0 + 1.9 * (lin - lin.mean()) + rng.normal(0.0, 1.4, size=n), -3.0, 12.0)

    meta["planted"] = {
        "intercept": float(b0),
        "gpa_weight": config.gpa_weight,
        "stem_weight": config.stem_weight,
        "dispersion_weight": config.dispersion_weight,
        "trend_weight": config.trend_weight,
    }

    # sociodemographics with register-style missingness
    age = 18.0 + rng.gamma(2.2, 1.0, size=n) + 0.9 * human_admit
    age[rng.random(n) < 0.013] = np.nan
    inc1 = rng.lognormal(12.2, 0.75, size=n)
    inc2 = rng.lognormal(12.5, 0.9, size=n)
    wea1 = rng.lognormal(12.0, 1.6, size=n)
    wea2 = rng.lognormal(12.6, 1.6, size=n)
    edu_m1 = np.clip(rng.normal(174.3, 31.2, size=n) + 6.0 * diligence, 60, 260)
    edu_m2 = np.clip(rng.normal(174.6, 31.7, size=n) + 6.0 * diligence, 60, 260)
    edu_i1 = np.clip(np.round(3.5 + edu_m1 / 60.0 + rng.normal(0, 0.7, size=n)), 1, 8).astype(int)
    edu_i2 = np.clip(np.round(3.5 + edu_m2 / 60.0 + rng.normal(0, 0.7, size=n)), 1, 8).astype(int)
    for col, rate in ((inc1, 0.015), (inc2, 0.048), (wea1, 0.015), (wea2, 0.048), (edu_m1, 0.013), (edu_m2, 0.030)):
        col[rng.random(n) < rate] = np.nan
    parental = np.column_stack([inc1, inc2, wea1, wea2, edu_m1, edu_m2])
    ses = _ses_high(parental)

    def _opt(v: float) -> float | None:
        return None if math.isnan(v) else round(v, 2)

    # Python scalars from here on: one list per column instead of a numpy scalar per cell
    gpa, opted, decile, prog_idx, years, human_admit, completed, planted_p, first_year_gpa = (
        a.tolist() for a in (gpa, opted, decile, prog_idx, years, human_admit, completed, planted_p, first_year_gpa)
    )
    age, female, danish, inc1, inc2, wea1, wea2, edu_m1, edu_m2, edu_i1, edu_i2, ses = (
        a.tolist() for a in (age, female, danish, inc1, inc2, wea1, wea2, edu_m1, edu_m2, edu_i1, edu_i2, ses)
    )
    students: list[Student] = []
    for i in range(n):
        apps = []
        for r, pi in enumerate(app_lists[i], start=1):
            apps.append(
                ApplicationEvent(
                    program_id=prog_ids[pi],
                    isced_field=programs[prog_ids[pi]].isced_field,
                    rank=r,
                    quota2_opt_in=opted[i],
                    human_rank_decile=decile[i] if opted[i] else None,
                )
            )
        enrolled = programs[prog_ids[prog_idx[i]]]
        enroll_event = EnrollmentEvent(
            year=years[i],
            program_id=enrolled.program_id,
            isced_field=enrolled.isced_field,
            cutoff_gpa=enrolled.prior_year_gpa_cutoff,
        )
        socio = SocioRecord(
            age=_opt(age[i]),
            female=female[i],
            danish_origin=danish[i],
            income=(_opt(inc1[i]), _opt(inc2[i])),
            wealth=(_opt(wea1[i]), _opt(wea2[i])),
            edu_isced=(None if math.isnan(edu_m1[i]) else edu_i1[i], None if math.isnan(edu_m2[i]) else edu_i2[i]),
            edu_months=(_opt(edu_m1[i]), _opt(edu_m2[i])),
            ses_high=ses[i],
        )
        students.append(
            Student(
                id=i,
                gpa=gpa[i],
                events=events[i] + apps + [enroll_event],
                sociodemo=socio,
                enrolled_program=enrolled.program_id,
                admission_quota="human" if human_admit[i] else "gpa",
                cohort_year=years[i],
                completed=completed[i],
                planted_p=planted_p[i],
                first_year_gpa=round(first_year_gpa[i], 3),
            )
        )
    return Cohort(students=students, programs=programs, meta=meta)


def temporal_split(cohort: Cohort, holdout_year: int | None = None) -> tuple[Cohort, Cohort]:
    """Train on every year before the holdout year, test on the holdout."""
    years = cohort.years()
    if not years:
        raise ValueError("cannot split an empty cohort")
    holdout = max(years) if holdout_year is None else holdout_year
    if holdout not in years:
        raise ValueError(f"holdout year {holdout} absent from cohort")
    train = cohort.filter_years([y for y in years if y < holdout])
    test = cohort.filter_years([holdout])
    if not train.students:
        raise ValueError("temporal split leaves an empty training set")
    return train, test


def validation_split(train: Cohort, fraction: float = 0.05, seed: int = 0) -> tuple[Cohort, Cohort]:
    """Carve a validation set out of train, stratified by cohort year."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    rng = substream(seed, "validation-split")
    by_year: dict[int, list[int]] = {}
    for idx, s in enumerate(train.students):
        by_year.setdefault(s.cohort_year, []).append(idx)

    if any(len(ids) < 2 for ids in by_year.values()):
        warnings.warn("a year has fewer than 2 students; falling back to global sampling", stacklevel=2)
        all_idx = np.arange(len(train.students))
        k = int(round(fraction * len(all_idx)))
        val_idx = set(rng.choice(all_idx, size=k, replace=False).tolist()) if k else set()
    else:
        val_idx = set()
        for year in sorted(by_year):
            ids = by_year[year]
            k = int(round(fraction * len(ids)))
            if k:
                val_idx.update(rng.choice(ids, size=k, replace=False).tolist())

    fit = [s for i, s in enumerate(train.students) if i not in val_idx]
    val = [s for i, s in enumerate(train.students) if i in val_idx]
    return (
        Cohort(students=fit, programs=train.programs, meta=train.meta),
        Cohort(students=val, programs=train.programs, meta=train.meta),
    )


# ---------------------------------------------------------------------------
# serialization: versioned line-oriented JSON, one student per line.  Each
# record maps field names to values and is written with sorted keys, so its
# bytes depend on the field values alone: save -> load -> save is
# byte-identical, and the tests pin the digest of a small cohort.

_HEADER = "admitsim-cohort v1"


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


_STUDENT_FIELDS = _field_names(Student)
_SOCIO_FIELDS = _field_names(SocioRecord)
_EVENT_FIELDS = {
    GradeEvent: ("grade", _field_names(GradeEvent)),
    ApplicationEvent: ("application", _field_names(ApplicationEvent)),
    EnrollmentEvent: ("enrollment", _field_names(EnrollmentEvent)),
}


def _event_to_dict(event) -> dict:
    try:
        kind, names = _EVENT_FIELDS[type(event)]
    except KeyError:
        raise TypeError(f"unknown event type {type(event).__name__}") from None
    d = {name: getattr(event, name) for name in names}
    d["kind"] = kind
    return d


def _event_from_dict(d: dict):
    kind = d.pop("kind")
    if kind == "grade":
        return GradeEvent(**d)
    if kind == "application":
        return ApplicationEvent(**d)
    if kind == "enrollment":
        return EnrollmentEvent(**d)
    raise ValueError(f"unknown event kind {kind!r}")


def _student_to_dict(s: Student) -> dict:
    d = {name: getattr(s, name) for name in _STUDENT_FIELDS}
    d["sociodemo"] = {name: getattr(s.sociodemo, name) for name in _SOCIO_FIELDS}
    d["events"] = [_event_to_dict(e) for e in s.events]
    return d


def _student_from_dict(d: dict) -> Student:
    socio = d["sociodemo"]
    for key in ("income", "wealth", "edu_isced", "edu_months"):
        socio[key] = tuple(socio[key])
    d["sociodemo"] = SocioRecord(**socio)
    d["events"] = [_event_from_dict(e) for e in d["events"]]
    return Student(**d)


def save_cohort(cohort: Cohort, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(_HEADER + "\n")
        head = {
            "programs": [dataclasses.asdict(p) for p in cohort.programs.values()],
            "meta": cohort.meta,
        }
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for s in cohort.students:
            fh.write(json.dumps(_student_to_dict(s), sort_keys=True) + "\n")


def load_cohort(path) -> Cohort:
    """Read a cohort file line by line; a malformed line raises ValueError naming it."""
    with Path(path).open(encoding="utf-8") as fh:
        header = fh.readline()
        if header == "":
            return Cohort(students=[], programs={}, meta={})
        if header.rstrip("\n") != _HEADER:
            raise ValueError(f"line 1: expected header {_HEADER!r}")
        head_line = fh.readline()
        if head_line == "":
            raise ValueError("line 2: missing program/meta record")
        try:
            head = json.loads(head_line)
            programs = {p["program_id"]: Program(**p) for p in head["programs"]}
            meta = head["meta"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"line 2: malformed program/meta record: {exc}") from exc
        students = []
        for lineno, line in enumerate(fh, start=3):
            if not line.strip():
                continue
            try:
                students.append(_student_from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"line {lineno}: malformed student record: {exc}") from exc
    return Cohort(students=students, programs=programs, meta=meta)


def with_enrollment(student: Student, program: Program) -> Student:
    """Copy of the student as if enrolled in ``program`` (same year/quota)."""
    events = []
    for e in student.events:
        if isinstance(e, EnrollmentEvent):
            events.append(
                EnrollmentEvent(
                    year=e.year,
                    program_id=program.program_id,
                    isced_field=program.isced_field,
                    cutoff_gpa=program.prior_year_gpa_cutoff,
                )
            )
        else:
            events.append(e)
    return dataclasses.replace(student, events=events, enrolled_program=program.program_id)
