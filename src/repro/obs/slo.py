"""Declarative SLOs over windowed series, with burn-rate alerting.

Wally frames private search as an SLO problem — throughput and latency
targets that must hold *while* load, churn and faults evolve. This
module turns the windows produced by
:class:`~repro.obs.timeseries.TimeSeriesRecorder` into a verdict:

- an :class:`SloSpec` is a list of rules, each of which reduces one
  window to ``(good, bad)`` event counts:

  * :class:`SuccessRateSlo` — label-partitioned counter deltas
    (e.g. ``search_results_total{status=...}`` with ``ok`` good);
  * :class:`LatencyQuantileSlo` — ``p_q(histogram) <= threshold``,
    counted as events under/over the threshold via the per-window
    bucket deltas (so the math is byte-deterministic);
  * :class:`BoundedGaugeSlo` — a boundary sample must stay within a
    bound (backlog, queue depth);

- evaluation applies the SRE *multi-window burn-rate* test: the error
  budget is ``1 - target``; a window alerts when the budget is being
  consumed at ≥ ``factor``× the sustainable rate over both a short
  and a long trailing range of windows (short catches onset, long
  suppresses one-window blips);
- the per-run verdict is ``"ok"`` unless any rule alerted, in which
  case the report carries the merged alerting window ranges — "when
  it started going wrong", not just "it went wrong".

Everything here is pure window arithmetic: no clocks, no registry
access, no imports outside ``repro.obs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.export import parse_sample_name
from repro.obs.timeseries import Window

#: Burn rates are capped at this value when reported — an exhausted
#: budget (target of 1.0 with any bad event) would otherwise be +Inf,
#: which canonical JSON cannot carry.
BURN_CAP = 1e6

#: Decimal places in report dictionaries.
ROUND_DIGITS = 6


@dataclass(frozen=True)
class BurnRatePolicy:
    """Multi-window burn-rate alerting parameters.

    A window alerts when the error budget burns at ``factor``× the
    sustainable rate over both the trailing ``short_windows`` and the
    trailing ``long_windows`` ranges (both including the window
    itself). Defaults suit 10 s windows: 3 windows (30 s) to catch
    onset quickly, 12 windows (2 min) to ignore single-window blips.
    """

    short_windows: int = 3
    long_windows: int = 12
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.short_windows < 1 or self.long_windows < self.short_windows:
            raise ValueError("need 1 <= short_windows <= long_windows")
        if self.factor <= 0:
            raise ValueError("factor must be positive")


class SloRule:
    """Base: one objective reduced to per-window good/bad events."""

    name: str
    target: float

    def window_events(self, window: Window) -> Optional[Tuple[float, float]]:
        """``(good, bad)`` for one window, or ``None`` when the window
        carries no data for this rule (no events → no budget burned)."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class SuccessRateSlo(SloRule):
    """``good / (good + bad) >= target`` over a labelled counter family.

    Partitions the per-window deltas of *counter* by *status_label*:
    values in *ok_statuses* are good events, everything else is bad.
    """

    name: str
    target: float
    counter: str = "cyclosa_core_search_results_total"
    status_label: str = "status"
    ok_statuses: Tuple[str, ...] = ("ok",)

    def window_events(self, window: Window) -> Optional[Tuple[float, float]]:
        good = 0.0
        bad = 0.0
        seen = False
        for key, delta in window.counters.items():
            family, labels = parse_sample_name(key)
            if family != self.counter:
                continue
            seen = True
            if labels.get(self.status_label) in self.ok_statuses:
                good += delta
            else:
                bad += delta
        if not seen or good + bad <= 0:
            return None
        return good, bad

    def describe(self) -> str:
        ok = "|".join(self.ok_statuses)
        return (f"success_rate({self.counter}, {self.status_label}={ok})"
                f" >= {self.target}")


@dataclass(frozen=True)
class LatencyQuantileSlo(SloRule):
    """``p_q(histogram) <= threshold_seconds`` per window.

    Counted as good/bad events against the per-window bucket deltas:
    an observation under the threshold is good, over is bad, and the
    quantile target *q* becomes the success-rate target — p99 under
    threshold is exactly "99% of events are good".
    """

    name: str
    histogram: str
    threshold_seconds: float
    q: float = 0.99

    @property
    def target(self) -> float:  # type: ignore[override]
        return self.q

    def window_events(self, window: Window) -> Optional[Tuple[float, float]]:
        hist = window.histograms.get(self.histogram)
        if hist is None or hist.count <= 0:
            return None
        good = hist.events_under(self.threshold_seconds)
        good = min(good, hist.count)
        return good, hist.count - good

    def describe(self) -> str:
        from repro.obs.timeseries import _quantile_label

        return (f"{_quantile_label(self.q)}({self.histogram})"
                f" <= {self.threshold_seconds}s")


@dataclass(frozen=True)
class BoundedGaugeSlo(SloRule):
    """A boundary-sampled gauge must stay ``<= bound`` (target 1.0).

    With a zero error budget the burn-rate test degenerates to "alert
    on any excursion within the short range" — right for invariants
    like "backlog stays bounded".
    """

    name: str
    gauge: str
    bound: float
    target: float = 1.0

    def window_events(self, window: Window) -> Optional[Tuple[float, float]]:
        value = window.gauges.get(self.gauge)
        if value is None:
            return None
        return (1.0, 0.0) if value <= self.bound else (0.0, 1.0)

    def describe(self) -> str:
        return f"{self.gauge} <= {self.bound}"


@dataclass(frozen=True)
class SloSpec:
    """A named set of rules evaluated together over one run."""

    name: str
    rules: Tuple[SloRule, ...]
    policy: BurnRatePolicy = field(default_factory=BurnRatePolicy)


@dataclass(frozen=True)
class RuleReport:
    """One rule's evaluation across the whole retained series."""

    rule: str
    objective: str
    target: float
    good: float
    bad: float
    attained: float  #: overall good fraction (1.0 when no events)
    max_burn: float  #: peak short∧long burn rate observed
    violating_windows: Tuple[int, ...]  #: windows whose own rate missed target
    alert_ranges: Tuple[Tuple[int, int], ...]  #: merged [first, last] indices
    verdict: str  #: "ok" | "breached"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "objective": self.objective,
            "target": round(self.target, ROUND_DIGITS),
            "good": round(self.good, ROUND_DIGITS),
            "bad": round(self.bad, ROUND_DIGITS),
            "attained": round(self.attained, ROUND_DIGITS),
            "max_burn": round(self.max_burn, ROUND_DIGITS),
            "violating_windows": list(self.violating_windows),
            "alert_ranges": [list(pair) for pair in self.alert_ranges],
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class SloReport:
    """The terminal health verdict for one run."""

    spec: str
    windows: int
    rules: Tuple[RuleReport, ...]
    verdict: str  #: "ok" | "breached"

    def rule(self, name: str) -> RuleReport:
        for report in self.rules:
            if report.rule == name:
                return report
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "windows": self.windows,
            "rules": [report.to_dict() for report in self.rules],
            "verdict": self.verdict,
        }


def _burn(good: float, bad: float, budget: float) -> float:
    """Budget-consumption rate of one trailing range (capped)."""
    total = good + bad
    if total <= 0:
        return 0.0
    error_rate = bad / total
    if budget <= 0:
        return BURN_CAP if error_rate > 0 else 0.0
    return min(error_rate / budget, BURN_CAP)


def _evaluate_rule(rule: SloRule, windows: Sequence[Window],
                   policy: BurnRatePolicy) -> RuleReport:
    events: List[Optional[Tuple[float, float]]] = [
        rule.window_events(window) for window in windows]
    budget = 1.0 - rule.target

    violating: List[int] = []
    alerting: List[int] = []
    max_burn = 0.0
    for position, window in enumerate(windows):
        pair = events[position]
        if pair is not None:
            good, bad = pair
            if good + bad > 0 and good / (good + bad) < rule.target:
                violating.append(window.index)

        def trailing(width: int) -> Tuple[float, float]:
            lo = max(0, position - width + 1)
            good_sum = 0.0
            bad_sum = 0.0
            for row in events[lo:position + 1]:
                if row is not None:
                    good_sum += row[0]
                    bad_sum += row[1]
            return good_sum, bad_sum

        short_burn = _burn(*trailing(policy.short_windows), budget)
        long_burn = _burn(*trailing(policy.long_windows), budget)
        burn = min(short_burn, long_burn)  # both ranges must be hot
        max_burn = max(max_burn, burn)
        if burn >= policy.factor:
            alerting.append(window.index)

    total_good = sum(row[0] for row in events if row is not None)
    total_bad = sum(row[1] for row in events if row is not None)
    attained = (total_good / (total_good + total_bad)
                if total_good + total_bad > 0 else 1.0)
    return RuleReport(
        rule=rule.name,
        objective=rule.describe(),
        target=rule.target,
        good=total_good,
        bad=total_bad,
        attained=attained,
        max_burn=max_burn,
        violating_windows=tuple(violating),
        alert_ranges=_merge_ranges(alerting),
        verdict="breached" if alerting else "ok")


def _merge_ranges(indices: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Sorted window indices → merged inclusive ``(first, last)`` runs."""
    ranges: List[Tuple[int, int]] = []
    for index in indices:
        if ranges and index == ranges[-1][1] + 1:
            ranges[-1] = (ranges[-1][0], index)
        else:
            ranges.append((index, index))
    return tuple(ranges)


def evaluate_slo(spec: SloSpec, windows: Sequence[Window]) -> SloReport:
    """Evaluate every rule of *spec* over *windows*.

    Pure and deterministic: the same windows always produce the same
    report, so same-seed runs yield byte-identical ``to_dict()``.
    """
    reports = tuple(_evaluate_rule(rule, windows, spec.policy)
                    for rule in spec.rules)
    verdict = "ok" if all(r.verdict == "ok" for r in reports) else "breached"
    return SloReport(spec=spec.name, windows=len(windows),
                     rules=reports, verdict=verdict)


__all__ = [
    "BURN_CAP",
    "BoundedGaugeSlo",
    "BurnRatePolicy",
    "LatencyQuantileSlo",
    "RuleReport",
    "SloReport",
    "SloRule",
    "SloSpec",
    "SuccessRateSlo",
    "evaluate_slo",
]
