"""Multi-channel token encoding of student event histories.

Each student becomes a (channels, length) grid of vocabulary indices: one
position per event, one channel per tabular column, with [Null] filling
channels irrelevant to an event.  A dedicated channel carries [CLS] at
position 0; every other channel gets a prepended [Null] there.  Continuous
values are winsorized at the 5th/95th percentile and mapped to 100
percentile bins learned on training data.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cohort import (
    ApplicationEvent,
    Cohort,
    COURSE_CATALOG,
    EnrollmentEvent,
    GradeEvent,
    Student,
)

__all__ = [
    "PAD",
    "NULL",
    "CLS",
    "UNK",
    "SPECIALS",
    "CHANNELS",
    "VARIANTS",
    "BinningRule",
    "Vocabulary",
    "TokenSequenceBatch",
    "fit_binning",
    "apply_binning",
    "fit_binning_rules",
    "event_tokens",
    "build_vocabulary",
    "compute_L",
    "sequence_lengths",
    "encode_student",
    "encode_cohort",
]

PAD, NULL, CLS, UNK = 0, 1, 2, 3
SPECIALS = {"[PAD]": PAD, "[Null]": NULL, "[CLS]": CLS, "[UNK]": UNK}

# full channel catalog in fixed order; variants select ordered subsets
CHANNELS = (
    "cls",
    "relative_year",
    "study_line",
    "gpa",
    "program",
    "grade",
    "course",
    "course_type",
    "course_level",
    "test_type",
    "education_type",
    "school_stage",
    "program_isced",
    "application_rank",
    "quota2_applied",
    "enrolled",
    "human_decile",
    "institution_id",
    "cutoff_gpa",
    "age",
    "sociodemo",
)

_BASE = ("cls", "relative_year", "study_line", "gpa", "program")
_ACADEMIC = _BASE + (
    "grade",
    "course",
    "course_type",
    "course_level",
    "test_type",
    "education_type",
    "school_stage",
    "program_isced",
)
_APPLICATION = _ACADEMIC + ("application_rank", "quota2_applied", "enrolled")
_SOCIO = _ACADEMIC + ("institution_id", "cutoff_gpa", "age", "sociodemo")

VARIANTS: Mapping[str, tuple[str, ...]] = {
    "gpa_baseline": _BASE,
    "academic": _ACADEMIC,
    "human": _ACADEMIC + ("human_decile",),
    "application": _APPLICATION,
    "sociodemo": _SOCIO,
    "everything": tuple(c for c in CHANNELS),
}

# continuous variables and the binning rule feeding their tokens
_CONTINUOUS = ("gpa", "cutoff_gpa", "age", "income", "wealth", "edu_months")


@dataclass(frozen=True)
class BinningRule:
    """Winsorized percentile binning learned on training values."""

    lo: float
    hi: float
    cuts: tuple[float, ...]

    @property
    def n_bins(self) -> int:
        return len(self.cuts) + 1


def _nearest_rank(ordered, p: float):
    """Nearest-rank ``p``-th percentile (``p`` in percent) of an ascending sequence."""
    n = len(ordered)
    return ordered[min(n - 1, max(0, int(np.ceil(p / 100.0 * n)) - 1))]


def fit_binning(values, n_bins: int = 100) -> BinningRule:
    values = np.asarray(values, dtype=float)
    values = values[~np.isnan(values)]
    if values.size < 20:
        raise ValueError("need at least 20 training values for a stable winsor")
    s = np.sort(values)
    lo, hi = float(_nearest_rank(s, 5)), float(_nearest_rank(s, 95))
    if lo == hi:
        warnings.warn("constant column: every value maps to a single bin", stacklevel=2)
        return BinningRule(lo=lo, hi=hi, cuts=())
    w = np.sort(np.clip(s, lo, hi))
    cuts = tuple(float(_nearest_rank(w, k)) for k in range(1, n_bins))
    return BinningRule(lo=lo, hi=hi, cuts=cuts)


def apply_binning(rule: BinningRule, value: float) -> int:
    # the index np.searchsorted(cuts, v, side="right") gives, NaN included
    return bisect.bisect_right(rule.cuts, min(max(value, rule.lo), rule.hi))


def fit_binning_rules(cohort: Cohort) -> dict[str, BinningRule]:
    """Fit the percentile rules for every continuous channel on a cohort."""
    gpas, cutoffs, ages, incomes, wealths, months = [], [], [], [], [], []
    for s in cohort.students:
        gpas.append(s.gpa)
        if s.sociodemo.age is not None:
            ages.append(s.sociodemo.age)
        incomes.extend(v for v in s.sociodemo.income if v is not None)
        wealths.extend(v for v in s.sociodemo.wealth if v is not None)
        months.extend(v for v in s.sociodemo.edu_months if v is not None)
        for e in s.events:
            if isinstance(e, EnrollmentEvent) and e.cutoff_gpa is not None:
                cutoffs.append(e.cutoff_gpa)
    rules = {}
    for name, vals in zip(_CONTINUOUS, (gpas, cutoffs, ages, incomes, wealths, months)):
        if len(vals) >= 20:
            rules[name] = fit_binning(vals)
    return rules


def _bin_token(rules: Mapping[str, BinningRule], name: str, value: float | None) -> str | None:
    if value is None or name not in rules:
        return None
    return f"p{apply_binning(rules[name], value)}"


def event_tokens(student: Student, variant: str, rules: Mapping[str, BinningRule]) -> list[dict[str, str]]:
    """One channel->token dict per event position, in sequence order.

    Sociodemographic rows come first (they are never trimmed), then grades,
    then applications, then enrollment.  Only channels active in the
    variant appear as keys.
    """
    channels = set(VARIANTS[variant])
    socio = student.sociodemo
    enrollment = next((e for e in student.events if isinstance(e, EnrollmentEvent)), None)
    enroll_year = enrollment.year if enrollment is not None else student.cohort_year
    rows: list[dict[str, str]] = []

    def emit(row: dict[str, str | None]) -> None:
        clean = {ch: tok for ch, tok in row.items() if ch in channels and tok is not None}
        if clean:
            rows.append(clean)

    if "sociodemo" in channels:
        emit({"sociodemo": f"female={int(socio.female)}"})
        emit({"sociodemo": f"danish={int(socio.danish_origin)}"})
        for slot in (0, 1):
            emit({"sociodemo": _prefix("income", slot, _bin_token(rules, "income", socio.income[slot]))})
            emit({"sociodemo": _prefix("wealth", slot, _bin_token(rules, "wealth", socio.wealth[slot]))})
            isced = socio.edu_isced[slot]
            emit({"sociodemo": None if isced is None else f"eduisced{slot + 1}={isced}"})
            emit({"sociodemo": _prefix("edumonths", slot, _bin_token(rules, "edu_months", socio.edu_months[slot]))})

    if "grade" in channels:
        grades = sorted((e for e in student.events if isinstance(e, GradeEvent)), key=lambda e: (e.year, e.course))
        for e in grades:
            emit(
                {
                    "relative_year": f"y{e.year - enroll_year}",
                    "grade": f"g{e.grade}",
                    "course": e.course,
                    "course_type": COURSE_CATALOG.get(e.course, "other"),
                    "course_level": e.course_level,
                    "test_type": e.test_type,
                    "education_type": e.education_type,
                    "study_line": e.study_line,
                    "school_stage": e.school_stage,
                    "institution_id": e.institution_id,
                }
            )
    else:
        # GPA forms its own event in the baseline variant
        line = next((e.study_line for e in student.events if isinstance(e, GradeEvent)), None)
        emit({"relative_year": "y-1", "study_line": line, "gpa": _bin_token(rules, "gpa", student.gpa)})

    apps = sorted((e for e in student.events if isinstance(e, ApplicationEvent)), key=lambda e: e.rank)
    enrolled_app = next((a for a in apps if a.program_id == student.enrolled_program), None)
    decile = enrolled_app.human_rank_decile if enrolled_app is not None else None

    if "enrolled" in channels:
        # full application information: enrollment is the flagged application
        for a in apps:
            is_enrolled = a.program_id == student.enrolled_program
            row: dict[str, str | None] = {
                "relative_year": "y0",
                "program": a.program_id,
                "program_isced": a.isced_field,
                "application_rank": f"r{a.rank}",
                "quota2_applied": "yes" if a.quota2_opt_in else "no",
                "enrolled": "yes" if is_enrolled else "no",
            }
            if is_enrolled:
                row["gpa"] = _bin_token(rules, "gpa", student.gpa)
                if a.human_rank_decile is not None:
                    row["human_decile"] = f"d{a.human_rank_decile}"
                if enrollment is not None:
                    row["cutoff_gpa"] = _bin_token(rules, "cutoff_gpa", enrollment.cutoff_gpa)
                row["age"] = _bin_token(rules, "age", socio.age)
            emit(row)
    elif enrollment is not None:
        row = {
            "relative_year": "y0",
            "program": enrollment.program_id,
            "program_isced": enrollment.isced_field,
            "cutoff_gpa": _bin_token(rules, "cutoff_gpa", enrollment.cutoff_gpa),
            "age": _bin_token(rules, "age", socio.age),
        }
        if "grade" in channels:
            row["gpa"] = _bin_token(rules, "gpa", student.gpa)
        if decile is not None:
            row["human_decile"] = f"d{decile}"
        emit(row)

    return rows


def _prefix(name: str, slot: int, token: str | None) -> str | None:
    return None if token is None else f"{name}{slot + 1}={token}"


@dataclass
class Vocabulary:
    variant: str
    min_count: int
    index: dict[str, int]

    @property
    def channels(self) -> tuple[str, ...]:
        return VARIANTS[self.variant]

    def __len__(self) -> int:
        return len(self.index)

    def id_for(self, channel: str, token: str) -> int:
        return self.index.get(f"{channel}:{token}", UNK)

    def vocab_hash(self) -> str:
        payload = json.dumps(sorted(self.index.items()), separators=(",", ":")).encode()
        return hashlib.sha256(payload).hexdigest()

    def to_json(self) -> str:
        return json.dumps(
            {"variant": self.variant, "min_count": self.min_count, "index": self.index, "hash": self.vocab_hash()},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        d = json.loads(text)
        vocab = cls(variant=d["variant"], min_count=d["min_count"], index=d["index"])
        if d.get("hash") and d["hash"] != vocab.vocab_hash():
            raise ValueError("vocabulary hash mismatch")
        return vocab


def build_vocabulary(
    train_cohort: Cohort,
    input_variant: str,
    min_count: int = 250,
    rules: Mapping[str, BinningRule] | None = None,
) -> Vocabulary:
    if input_variant not in VARIANTS:
        raise ValueError(f"unknown variant {input_variant!r}")
    if not train_cohort.students:
        raise ValueError("cannot build a vocabulary from an empty training set")
    if rules is None:
        rules = fit_binning_rules(train_cohort)
    counts: dict[str, int] = {}
    for s in train_cohort.students:
        for row in event_tokens(s, input_variant, rules):
            for ch, tok in row.items():
                key = f"{ch}:{tok}"
                counts[key] = counts.get(key, 0) + 1
    index = dict(SPECIALS)
    for key in sorted(k for k, c in counts.items() if c >= min_count):
        index[key] = len(index)
    return Vocabulary(variant=input_variant, min_count=min_count, index=index)


def sequence_lengths(cohort: Cohort, variant: str, rules: Mapping[str, BinningRule]) -> list[int]:
    return [len(event_tokens(s, variant, rules)) for s in cohort.students]


def compute_L(train_sequences: Sequence[int]) -> int:
    """Fixed length: nearest-rank 95th percentile of lengths, +1 for the
    prepended [Null] position."""
    lengths = sorted(train_sequences)
    if not lengths:
        raise ValueError("no sequences")
    return int(_nearest_rank(lengths, 95)) + 1


def encode_student(
    student: Student,
    vocab: Vocabulary,
    rules: Mapping[str, BinningRule],
    L: int,
) -> np.ndarray:
    """(C, L) grid of vocabulary indices for one student."""
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

    index = vocab.index
    grid = np.full((len(channels), L), PAD, dtype=np.int32)
    grid[:, 0] = [CLS if ch == "cls" else NULL for ch in channels]
    grid[:, 1 : 1 + len(rows)] = [
        [NULL] * len(rows)
        if ch == "cls"
        else [NULL if (tok := row.get(ch)) is None else index.get(f"{ch}:{tok}", UNK) for row in rows]
        for ch in channels
    ]
    return grid


@dataclass
class TokenSequenceBatch:
    tokens: np.ndarray  # (N, C, L) int32
    lengths: np.ndarray  # (N,) int32, includes the prepended position
    student_ids: np.ndarray  # (N,) int64
    labels: np.ndarray  # (N,) int8
    variant: str
    vocab_hash: str

    def __post_init__(self) -> None:
        if self.tokens.ndim != 3:
            raise ValueError("tokens must be (students, channels, positions)")
        if not (len(self.tokens) == len(self.lengths) == len(self.student_ids) == len(self.labels)):
            raise ValueError("batch arrays must share a length")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def n_channels(self) -> int:
        return self.tokens.shape[1]

    @property
    def length(self) -> int:
        return self.tokens.shape[2]

    def subset(self, idx) -> "TokenSequenceBatch":
        return TokenSequenceBatch(
            tokens=self.tokens[idx],
            lengths=self.lengths[idx],
            student_ids=self.student_ids[idx],
            labels=self.labels[idx],
            variant=self.variant,
            vocab_hash=self.vocab_hash,
        )

    def save(self, path) -> None:
        header = json.dumps(
            {
                "n": len(self),
                "channels": self.n_channels,
                "length": self.length,
                "variant": self.variant,
                "vocab_hash": self.vocab_hash,
            },
            sort_keys=True,
        ).encode()
        with Path(path).open("wb") as fh:
            fh.write(b"ASEQ1\n")
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            fh.write(self.tokens.astype("<u4").tobytes())
            fh.write(self.lengths.astype("<u4").tobytes())
            fh.write(self.student_ids.astype("<u8").tobytes())
            fh.write(self.labels.astype("<u1").tobytes())

    @classmethod
    def load(cls, path) -> "TokenSequenceBatch":
        raw = Path(path).read_bytes()
        if raw[:6] != b"ASEQ1\n":
            raise ValueError("not a sequence batch container (bad magic)")
        (hlen,) = struct.unpack("<I", raw[6:10])
        header = json.loads(raw[10 : 10 + hlen])
        n, c, l = header["n"], header["channels"], header["length"]
        off = 10 + hlen
        grid_bytes = n * c * l * 4
        tokens = np.frombuffer(raw[off : off + grid_bytes], dtype="<u4").reshape(n, c, l).astype(np.int32)
        off += grid_bytes
        lengths = np.frombuffer(raw[off : off + n * 4], dtype="<u4").astype(np.int32)
        off += n * 4
        student_ids = np.frombuffer(raw[off : off + n * 8], dtype="<u8").astype(np.int64)
        off += n * 8
        labels = np.frombuffer(raw[off : off + n], dtype="<u1").astype(np.int8)
        if off + n != len(raw):
            raise ValueError("container length mismatch")
        return cls(
            tokens=tokens,
            lengths=lengths,
            student_ids=student_ids,
            labels=labels,
            variant=header["variant"],
            vocab_hash=header["vocab_hash"],
        )


def encode_cohort(
    cohort: Cohort,
    vocab: Vocabulary,
    rules: Mapping[str, BinningRule],
    L: int,
) -> TokenSequenceBatch:
    n = len(cohort.students)
    channels = vocab.channels
    tokens = np.empty((n, len(channels), L), dtype=np.int32)
    lengths = np.empty(n, dtype=np.int32)
    ids = np.empty(n, dtype=np.int64)
    labels = np.empty(n, dtype=np.int8)
    for i, s in enumerate(cohort.students):
        grid = encode_student(s, vocab, rules, L)
        tokens[i] = grid
        pad_mask = grid[0] == PAD
        lengths[i] = int(np.argmax(pad_mask)) if pad_mask.any() else L
        ids[i] = s.id
        labels[i] = int(s.completed)
    return TokenSequenceBatch(
        tokens=tokens,
        lengths=lengths,
        student_ids=ids,
        labels=labels,
        variant=vocab.variant,
        vocab_hash=vocab.vocab_hash(),
    )
