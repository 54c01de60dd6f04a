"""Per-student prediction table shared by evaluation, contraction and audits."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RiskTable", "group_rows"]

_CORE_COLUMNS = [
    "student_id",
    "program_id",
    "quota",
    "p_hat",
    "outcome",
    "gpa",
    "human_decile",
    "isced_field",
    "first_year_gpa",
]


@dataclass
class RiskTable:
    """One row per admitted student with a model's completion probability.

    ``attributes`` holds named binary group indicators (e.g. female,
    danish_origin, ses_high) used by the fairness audits.  ``human_decile``
    is NaN for students admitted without a human assessment.
    """

    student_id: np.ndarray
    program_id: np.ndarray
    quota: np.ndarray
    p_hat: np.ndarray
    outcome: np.ndarray
    attributes: dict[str, np.ndarray] = field(default_factory=dict)
    gpa: np.ndarray | None = None
    human_decile: np.ndarray | None = None
    isced_field: np.ndarray | None = None
    first_year_gpa: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.student_id = np.asarray(self.student_id)
        self.program_id = np.asarray(self.program_id)
        self.quota = np.asarray(self.quota)
        self.p_hat = np.asarray(self.p_hat, dtype=np.float64)
        self.outcome = np.asarray(self.outcome, dtype=np.int64)
        n = len(self.student_id)
        for name in ("program_id", "quota", "p_hat", "outcome"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has wrong length")
        if np.any((self.p_hat < 0.0) | (self.p_hat > 1.0)) or np.any(np.isnan(self.p_hat)):
            raise ValueError("p_hat must lie in [0, 1]")
        if not np.all(np.isin(self.outcome, (0, 1))):
            raise ValueError("outcome must be binary")
        for opt in ("gpa", "human_decile", "isced_field", "first_year_gpa"):
            arr = getattr(self, opt)
            if arr is not None:
                arr = np.asarray(arr)
                if len(arr) != n:
                    raise ValueError(f"column {opt} has wrong length")
                setattr(self, opt, arr)
        for name, arr in self.attributes.items():
            arr = np.asarray(arr)
            if len(arr) != n:
                raise ValueError(f"attribute {name} has wrong length")
            self.attributes[name] = arr.astype(bool)

    def __len__(self) -> int:
        return len(self.student_id)

    def subset(self, mask: np.ndarray) -> "RiskTable":
        pick = lambda a: None if a is None else a[mask]
        return RiskTable(
            student_id=self.student_id[mask],
            program_id=self.program_id[mask],
            quota=self.quota[mask],
            p_hat=self.p_hat[mask],
            outcome=self.outcome[mask],
            attributes={k: v[mask] for k, v in self.attributes.items()},
            gpa=pick(self.gpa),
            human_decile=pick(self.human_decile),
            isced_field=pick(self.isced_field),
            first_year_gpa=pick(self.first_year_gpa),
        )

    def to_csv(self, path: str) -> None:
        attr_names = sorted(self.attributes)
        header = _CORE_COLUMNS + [f"attr_{a}" for a in attr_names]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(len(self)):
                row = [
                    str(self.student_id[i]),
                    str(self.program_id[i]),
                    str(self.quota[i]),
                    format(float(self.p_hat[i]), ".17g"),
                    int(self.outcome[i]),
                    _fmt_opt(self.gpa, i),
                    _fmt_opt(self.human_decile, i),
                    "" if self.isced_field is None else str(self.isced_field[i]),
                    _fmt_opt(self.first_year_gpa, i),
                ]
                row.extend(int(self.attributes[a][i]) for a in attr_names)
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path: str) -> "RiskTable":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path} is empty: a risk table needs its header row")
            rows = list(reader)
        cols = {name: [r[i] for r in rows] for i, name in enumerate(header)}
        attrs = {
            name[5:]: np.array([v == "1" for v in vals])
            for name, vals in cols.items()
            if name.startswith("attr_")
        }

        def floats(name: str) -> np.ndarray | None:
            if name not in cols:
                return None
            vals = cols[name]
            if all(v == "" for v in vals):
                return None
            return np.array([math.nan if v == "" else float(v) for v in vals])

        return cls(
            student_id=np.array(cols["student_id"]),
            program_id=np.array(cols["program_id"]),
            quota=np.array(cols["quota"]),
            p_hat=np.array([float(v) for v in cols["p_hat"]]),
            outcome=np.array([int(v) for v in cols["outcome"]]),
            attributes=attrs,
            gpa=floats("gpa"),
            human_decile=floats("human_decile"),
            isced_field=(
                np.array(cols["isced_field"])
                if "isced_field" in cols and any(v != "" for v in cols["isced_field"])
                else None
            ),
            first_year_gpa=floats("first_year_gpa"),
        )


def group_rows(keys) -> list[tuple[object, np.ndarray]]:
    """(key, row indices) for each distinct key: keys sorted, rows in table order."""
    uniq, inverse = np.unique(np.asarray(keys), return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    return list(zip(uniq, np.split(order, np.cumsum(np.bincount(inverse))[:-1])))


def _fmt_opt(arr: np.ndarray | None, i: int) -> str:
    if arr is None:
        return ""
    v = float(arr[i])
    if math.isnan(v):
        return ""
    return format(v, ".17g")
