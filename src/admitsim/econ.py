"""Discounted public-returns arithmetic for admission-policy scenarios.

All present values use a three-band discount schedule: a yearly factor
``r1`` for years 0-35, ``r2`` for years 36-70 and ``r3`` from year 71 on.
A constant yearly amount ``a`` therefore has closed-form present value

    PV = a * (1 - r1^36) / (1 - r1)
       + a * (1 - r2^35) / (1 - r2) * r2 * r1^35
       + a / (1 - r3) * r3 * r2^35 * r1^35

where the first band starts with an undiscounted year-0 term and the later
bands are pushed out by the factors already accumulated.  Revenue streams
that start ``k`` years late replace the first band with
``a * (1 - r1^(36-k)) / (1 - r1) * r1^k``.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

__all__ = [
    "DiscountSchedule",
    "DEFAULT_SCHEDULE",
    "USD_PER_GRADUATE",
    "DKK_PER_USD",
    "DEFAULT_OVERRIDE_RATE",
    "pv_three_period",
    "pv_adjusted",
    "net_govt_revenue",
    "graduate_revenue",
    "override_cost",
    "mvpf",
    "taximeter_value",
    "Scenario",
    "ScenarioResult",
    "scenario_grid",
    "write_scenario_csv",
]

USD_PER_GRADUATE = 230_000.0
DKK_PER_USD = 7.0
DEFAULT_OVERRIDE_RATE = 0.18


@dataclass(frozen=True)
class DiscountSchedule:
    """Yearly discount factors by horizon band (factors, not rates)."""

    r1: float = 1.0 - 0.035
    r2: float = 1.0 - 0.025
    r3: float = 1.0 - 0.015

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "r3"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"discount factor {name}={value!r} outside (0, 1)")

    def year_factor(self, t: int) -> float:
        """Discount factor applied to a cash flow in year ``t`` (year 0 = 1)."""
        if t < 0:
            raise ValueError("year must be non-negative")
        if t <= 35:
            return self.r1**t
        if t <= 70:
            return self.r1**35 * self.r2 ** (t - 35)
        return self.r1**35 * self.r2**35 * self.r3 ** (t - 70)


DEFAULT_SCHEDULE = DiscountSchedule()


def pv_three_period(a: float, schedule: DiscountSchedule = DEFAULT_SCHEDULE) -> float:
    """Present value of a constant yearly amount ``a`` from year 0 onward."""
    return pv_adjusted(a, 0, schedule)


def pv_adjusted(a: float, k: int, schedule: DiscountSchedule = DEFAULT_SCHEDULE) -> float:
    """Present value of ``a`` per year starting in year ``k`` instead of year 0.

    Only the first band shortens; later bands are unchanged.  ``k`` must lie
    in [0, 35]: longer delays would spill into the second band, which the
    closed form does not model.
    """
    if not isinstance(k, (int,)) or isinstance(k, bool):
        raise TypeError("delay k must be an integer number of years")
    if k < 0 or k > 35:
        raise ValueError(f"delay k={k} outside [0, 35]")
    r1, r2, r3 = schedule.r1, schedule.r2, schedule.r3
    band1 = a * (1.0 - r1 ** (36 - k)) / (1.0 - r1) * r1**k
    band2 = a * (1.0 - r2**35) / (1.0 - r2) * r2 * r1**35
    band3 = a / (1.0 - r3) * r3 * r2**35 * r1**35
    return band1 + band2 + band3


def net_govt_revenue(
    revenue: float,
    fixed_cost: float,
    variable_cost: float,
    delay: int = 0,
    schedule: DiscountSchedule = DEFAULT_SCHEDULE,
) -> float:
    """Discounted net revenue of a policy for the public budget.

    Yearly ``revenue`` starts after ``delay`` years; ``fixed_cost`` is paid
    once up front; yearly ``variable_cost`` starts immediately.
    """
    return (
        pv_adjusted(revenue, delay, schedule)
        - fixed_cost
        - pv_three_period(variable_cost, schedule)
    )


def graduate_revenue(extra_graduates: float, per_graduate: float = USD_PER_GRADUATE) -> float:
    """Yearly fiscal contribution of ``extra_graduates`` additional graduates."""
    if extra_graduates < 0:
        raise ValueError("extra_graduates must be non-negative")
    return extra_graduates * per_graduate


def override_cost(
    n_overridden: float,
    rate: float = DEFAULT_OVERRIDE_RATE,
    per_graduate: float = USD_PER_GRADUATE,
) -> float:
    """Yearly revenue lost to wrongly rejected would-be graduates.

    ``rate`` is the share of overridden admissions that would have
    graduated; each costs one graduate's yearly contribution.
    """
    if n_overridden < 0:
        raise ValueError("n_overridden must be non-negative")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    return n_overridden * rate * per_graduate


def mvpf(delta_welfare: float, net_govt_cost: float) -> float | None:
    """Marginal value of public funds: welfare gain per net dollar of cost.

    Returns ``math.inf`` when the policy pays for itself (net cost <= 0 with
    a positive welfare gain) and ``None`` when the welfare change is not
    positive, in which case the ratio is not meaningful.
    """
    if delta_welfare <= 0.0:
        return None
    if net_govt_cost <= 0.0:
        return math.inf
    return delta_welfare / net_govt_cost


def taximeter_value(
    yearly_rate_dkk: float,
    completion_bonus_dkk: float,
    years: int = 3,
    dkk_per_usd: float = DKK_PER_USD,
) -> tuple[float, float]:
    """Per-student activity subsidy over a degree, in DKK and USD.

    The subsidy pays ``yearly_rate_dkk`` for each of ``years`` study years
    plus a one-off completion bonus.
    """
    if years < 0:
        raise ValueError("years must be non-negative")
    dkk = years * yearly_rate_dkk + completion_bonus_dkk
    return dkk, dkk / dkk_per_usd


@dataclass(frozen=True)
class Scenario:
    revenue: float
    fixed_cost: float
    variable_cost: float
    delay: int = 0


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    net_revenue: float
    feasible: bool
    on_zero_contour: bool


def scenario_grid(
    revenues: list[float],
    fixed_costs: list[float],
    variable_costs: list[float],
    delays: list[int],
    schedule: DiscountSchedule = DEFAULT_SCHEDULE,
    zero_tol: float = 1e-6,
) -> list[ScenarioResult]:
    """Net revenue over the Cartesian product of scenario inputs.

    ``on_zero_contour`` flags cells whose net revenue is zero relative to
    the revenue scale, i.e. cells sitting on the break-even boundary.
    """
    results = []
    for rev, fixed, var, delay in itertools.product(
        revenues, fixed_costs, variable_costs, delays
    ):
        scn = Scenario(rev, fixed, var, delay)
        net = net_govt_revenue(rev, fixed, var, delay, schedule)
        scale = max(abs(rev), abs(fixed), abs(var), 1.0)
        results.append(
            ScenarioResult(
                scenario=scn,
                net_revenue=net,
                feasible=net >= 0.0,
                on_zero_contour=abs(net) <= zero_tol * scale,
            )
        )
    return results


def write_scenario_csv(path: str, results: list[ScenarioResult]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["revenue", "fixed_cost", "variable_cost", "delay", "net_revenue", "feasible", "on_zero_contour"]
        )
        for res in results:
            s = res.scenario
            writer.writerow(
                [
                    format(s.revenue, ".12g"),
                    format(s.fixed_cost, ".12g"),
                    format(s.variable_cost, ".12g"),
                    s.delay,
                    format(res.net_revenue, ".12g"),
                    int(res.feasible),
                    int(res.on_zero_contour),
                ]
            )
