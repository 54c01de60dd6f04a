"""Uniform prediction interface over the four model families.

Downstream policy code only needs ``predict_students``: give it students,
get completion probabilities back in the same order.  These wrappers pin
the featurization (or encoding) that a fitted model expects, and
``build_risk_table`` turns students plus probabilities into the scored
table the ranking, matching, and audit stages consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..cohort import ApplicationEvent, Cohort, EnrollmentEvent, Student
from ..risk import RiskTable
from ..seqenc import BinningRule, TokenSequenceBatch, Vocabulary, encode_cohort
from . import sequence as seq
from .features import FeatureSchema, featurize

__all__ = ["ATTRIBUTES", "TabularPredictor", "SequencePredictor", "build_risk_table"]

# binary group indicators of the risk table, read from each student's sociodemo record
ATTRIBUTES = ("female", "danish_origin", "ses_high")


@dataclass
class TabularPredictor:
    model: object
    schema: FeatureSchema

    def predict_students(self, students: Sequence[Student]) -> np.ndarray:
        x, _, _ = featurize(list(students), self.schema)
        return self.model.predict_proba(x)


@dataclass
class SequencePredictor:
    model: object
    vocab: Vocabulary
    rules: Mapping[str, BinningRule]
    length: int
    batch_size: int = 512

    def encode(self, students: Sequence[Student]) -> TokenSequenceBatch:
        return encode_cohort(Cohort(list(students), {}), self.vocab, self.rules, self.length)

    def predict_students(self, students: Sequence[Student]) -> np.ndarray:
        return seq.predict_proba(self.model, self.encode(students), self.batch_size)


def _enrolled_decile(student: Student) -> float:
    for e in student.events:
        if isinstance(e, ApplicationEvent) and e.program_id == student.enrolled_program:
            return float(e.human_rank_decile) if e.human_rank_decile is not None else float("nan")
    return float("nan")


def build_risk_table(students: Sequence[Student], probs: np.ndarray) -> RiskTable:
    students = list(students)
    probs = np.asarray(probs, dtype=np.float64)
    if len(students) != len(probs):
        raise ValueError("one probability per student required")
    isced = []
    for s in students:
        enr = next((e for e in s.events if isinstance(e, EnrollmentEvent)), None)
        isced.append(enr.isced_field if enr is not None else "")
    return RiskTable(
        student_id=np.array([s.id for s in students], dtype=np.int64),
        program_id=np.array([s.enrolled_program for s in students]),
        quota=np.array([s.admission_quota for s in students]),
        p_hat=probs,
        outcome=np.array([int(s.completed) for s in students], dtype=np.int64),
        attributes={
            a: np.array([int(getattr(s.sociodemo, a)) for s in students], dtype=np.int64) for a in ATTRIBUTES
        },
        gpa=np.array([s.gpa for s in students], dtype=np.float64),
        human_decile=np.array([_enrolled_decile(s) for s in students], dtype=np.float64),
        isced_field=np.array(isced),
        first_year_gpa=np.array([s.first_year_gpa for s in students], dtype=np.float64),
    )
