"""Per-student tabular feature matrices with variant-dependent blocks.

A schema is fit on training data and freezes column order, nominal
category inventories, and ordinal handling.  Unseen test-time categories
produce an all-zero one-hot block.  Missing continuous values stay NaN;
the logistic trainer imputes medians and the boosted trees route NaN
through learned default directions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..cohort import (
    ApplicationEvent,
    Cohort,
    COURSE_CATALOG,
    EnrollmentEvent,
    GradeEvent,
    Student,
)
from ..seqenc import VARIANTS

__all__ = ["FeatureSchema", "fit_feature_schema", "featurize", "raw_features"]

_FIELDS = ("stem", "language", "other")
_STAGES = ("primary", "high_school")


def _mode(values: Iterable[str]) -> str | None:
    counts = Counter(values)
    if not counts:
        return None
    top = max(counts.values())
    return sorted(v for v, c in counts.items() if c == top)[0]


def _std(vals: list[int]) -> float:
    """``np.std`` of integer grades, bit for bit, without numpy for small lists.

    The integer sum is exact, so the mean is the correctly rounded quotient
    either way.  numpy adds fewer than 8 squared deviations in order, so the
    loop below repeats its rounding (``sum`` would not: from Python 3.12 it
    compensates float rounding); from 8 on numpy sums in 8 interleaved
    partial sums, so those lists go to ``np.std``.
    """
    if len(vals) >= 8:
        return float(np.std(vals))
    mean = sum(vals) / len(vals)
    ss = 0.0
    for v in vals:
        ss += (v - mean) * (v - mean)
    return math.sqrt(ss / len(vals))


def raw_features(student: Student) -> dict:
    """Untyped feature dict; the schema decides which keys become columns."""
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
        out[f"course_mean:{course}"] = sum(vals) / len(vals)
    for f in _FIELDS:
        for st in _STAGES:
            vals = per_cell.get((f, st), [])
            out[f"{f}_{st}_count"] = float(len(vals))
            out[f"{f}_{st}_mean"] = sum(vals) / len(vals) if vals else math.nan
            out[f"{f}_{st}_std"] = _std(vals) if vals else math.nan

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


_ACADEMIC_NOMINALS = ("program", "education_type", "study_line", "enroll_isced")
_SOCIO_BLOCKS = ("field_stats", "cutoff_gpa", "age", "parental_cont")
_SOCIO_NOMINALS = _ACADEMIC_NOMINALS + ("hs_institution", "edu_isced1", "edu_isced2")
# variant -> (continuous blocks beyond GPA, binary, ordinal and nominal features)
_VARIANT_FEATURES = {
    "gpa_baseline": ((), (), (), ("program",)),
    "academic": (("field_stats",), (), (), _ACADEMIC_NOMINALS),
    "application": (("field_stats",), ("quota2_applied",), ("rank",), _ACADEMIC_NOMINALS),
    "human": (("field_stats",), (), ("human_decile",), _ACADEMIC_NOMINALS),
    "sociodemo": (_SOCIO_BLOCKS, ("female", "danish_origin"), ("rank",), _SOCIO_NOMINALS),
    "everything": (
        _SOCIO_BLOCKS, ("quota2_applied", "female", "danish_origin"), ("rank", "human_decile"), _SOCIO_NOMINALS
    ),
}


@dataclass
class FeatureSchema:
    variant: str
    expand_ordinals: bool
    continuous: tuple[str, ...]
    binary: tuple[str, ...]
    ordinals: dict[str, tuple[float, ...]] = field(default_factory=dict)
    nominals: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def column_names(self) -> list[str]:
        cols = list(self.continuous) + list(self.binary)
        for name, cats in self.ordinals.items():
            if self.expand_ordinals:
                cols.extend(f"{name}={c:g}" for c in cats)
            else:
                cols.append(name)
        for name, cats in self.nominals.items():
            cols.extend(f"{name}={c}" for c in cats)
        return cols

    @property
    def n_columns(self) -> int:
        return len(self.column_names)

    def to_dict(self) -> dict:
        """JSON-ready fields.

        The categorical blocks are ``[name, values]`` pairs, not maps: their
        order is the order of the feature columns, and JSON writers may sort
        map keys.
        """
        return {
            "variant": self.variant,
            "expand_ordinals": self.expand_ordinals,
            "continuous": list(self.continuous),
            "binary": list(self.binary),
            "ordinals": [[k, list(v)] for k, v in self.ordinals.items()],
            "nominals": [[k, list(v)] for k, v in self.nominals.items()],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FeatureSchema":
        if isinstance(payload["ordinals"], dict) or isinstance(payload["nominals"], dict):
            raise ValueError("feature schema stores its categorical blocks unordered; fit it again")
        return cls(
            variant=payload["variant"],
            expand_ordinals=bool(payload["expand_ordinals"]),
            continuous=tuple(payload["continuous"]),
            binary=tuple(payload["binary"]),
            ordinals={k: tuple(v) for k, v in payload["ordinals"]},
            nominals={k: tuple(v) for k, v in payload["nominals"]},
        )


def fit_feature_schema(train: Cohort, variant: str, expand_ordinals: bool = True) -> FeatureSchema:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    raws = [raw_features(s) for s in train.students]

    blocks, binary, ordinal_names, nominal_names = _VARIANT_FEATURES[variant]
    continuous: list[str] = ["gpa"]
    if "field_stats" in blocks:
        courses = sorted({k.split(":", 1)[1] for r in raws for k in r if k.startswith("course_mean:")})
        continuous.extend(f"course_mean:{c}" for c in courses)
        for f in _FIELDS:
            for st in _STAGES:
                continuous.extend((f"{f}_{st}_mean", f"{f}_{st}_std", f"{f}_{st}_count"))
    for name in ("cutoff_gpa", "age"):
        if name in blocks:
            continuous.append(name)
    if "parental_cont" in blocks:
        continuous.extend(("income1", "income2", "wealth1", "wealth2", "edu_months1", "edu_months2"))

    ordinals: dict[str, tuple[float, ...]] = {}
    for name in ordinal_names:
        values = sorted({r[name] for r in raws if not math.isnan(r[name])})
        ordinals[name] = tuple(values)

    nominals: dict[str, tuple[str, ...]] = {}
    for name in nominal_names:
        cats = sorted({r[name] for r in raws if r[name] is not None})
        nominals[name] = tuple(cats)

    return FeatureSchema(
        variant=variant,
        expand_ordinals=expand_ordinals,
        continuous=tuple(continuous),
        binary=binary,
        ordinals=ordinals,
        nominals=nominals,
    )


def featurize(students: Sequence[Student] | Cohort, schema: FeatureSchema) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, student_ids, y) with X following the schema's column order."""
    if isinstance(students, Cohort):
        students = students.students
    n = len(students)
    x = np.zeros((n, schema.n_columns), dtype=np.float64)
    ids = np.empty(n, dtype=np.int64)
    y = np.empty(n, dtype=np.int64)
    for i, s in enumerate(students):
        raw = raw_features(s)
        row = [raw.get(name, math.nan) for name in schema.continuous]
        row += [raw.get(name, 0.0) for name in schema.binary]
        for name, cats in schema.ordinals.items():
            v = raw.get(name, math.nan)
            if schema.expand_ordinals:
                row += [1.0 if (not math.isnan(v) and v == c) else 0.0 for c in cats]
            else:
                row.append(v)
        for name, cats in schema.nominals.items():
            v = raw.get(name)
            row += [1.0 if v == c else 0.0 for c in cats]
        x[i] = row
        ids[i] = s.id
        y[i] = int(s.completed)
    return x, ids, y
