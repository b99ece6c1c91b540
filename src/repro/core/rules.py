"""Administrator threshold rules.

Section IV-C: "We set thresholds whose values trigger the execution of
actions. [...] we implemented five behaviors associated with the
experiment metrics":

* if ``T > 25``            then candidate nodes = 20 % of all nodes
* if ``1.0 >= c > 0.8``    then candidate nodes = 40 % of all nodes
* if ``0.8 >= c > 0.5``    then candidate nodes = 70 % of all nodes
* if ``c < 0.5``           then candidate nodes = 100 % of all nodes

(The fifth behaviour is the temperature-recovery path: once the
temperature returns in range, the cost rules apply again.)

The rule engine below generalises this: an ordered list of
:class:`ThresholdRule` objects, the first matching rule wins, temperature
rules are evaluated before cost rules because an out-of-range temperature
overrides everything else in the paper's experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.candidate_selection import candidate_count_for_fraction
from repro.infrastructure.thermal import TEMPERATURE_THRESHOLD
from repro.util.validation import ensure_in_range


@dataclass(frozen=True)
class PlatformStatus:
    """The observables the rules are evaluated against."""

    time: float
    temperature: float
    electricity_cost: float
    total_nodes: int

    def __post_init__(self) -> None:
        ensure_in_range(self.electricity_cost, "electricity_cost", 0.0, 1.0)
        if self.total_nodes < 0:
            raise ValueError(f"total_nodes must be >= 0, got {self.total_nodes}")


@dataclass(frozen=True)
class ThresholdRule:
    """One administrator rule.

    ``predicate`` decides whether the rule applies to a status;
    ``candidate_fraction`` is the fraction of all nodes to keep as
    candidates when it fires; ``label`` names the rule in traces.
    """

    label: str
    predicate: Callable[[PlatformStatus], bool]
    candidate_fraction: float

    def __post_init__(self) -> None:
        ensure_in_range(self.candidate_fraction, "candidate_fraction", 0.0, 1.0)
        if not self.label:
            raise ValueError("rule label must be a non-empty string")

    def matches(self, status: PlatformStatus) -> bool:
        """Whether this rule applies to ``status``."""
        return bool(self.predicate(status))


@dataclass(frozen=True)
class RuleDecision:
    """The outcome of evaluating the rules against a status."""

    rule: ThresholdRule
    candidate_count: int
    candidate_fraction: float


class AdministratorRules:
    """An ordered first-match-wins rule set."""

    def __init__(self, rules: Sequence[ThresholdRule], *, default_fraction: float = 1.0) -> None:
        if not rules:
            raise ValueError("at least one rule is required")
        ensure_in_range(default_fraction, "default_fraction", 0.0, 1.0)
        self._rules = tuple(rules)
        self.default_fraction = default_fraction

    @property
    def rules(self) -> tuple[ThresholdRule, ...]:
        """Rules in evaluation order."""
        return self._rules

    def evaluate(self, status: PlatformStatus) -> RuleDecision:
        """Return the decision of the first matching rule.

        When no rule matches, a synthetic "default" rule granting
        ``default_fraction`` of the nodes is reported.
        """
        for rule in self._rules:
            if rule.matches(status):
                return RuleDecision(
                    rule=rule,
                    candidate_count=candidate_count_for_fraction(
                        status.total_nodes, rule.candidate_fraction
                    ),
                    candidate_fraction=rule.candidate_fraction,
                )
        default_rule = ThresholdRule(
            label="default",
            predicate=lambda _status: True,
            candidate_fraction=self.default_fraction,
        )
        return RuleDecision(
            rule=default_rule,
            candidate_count=candidate_count_for_fraction(
                status.total_nodes, self.default_fraction
            ),
            candidate_fraction=self.default_fraction,
        )

    @classmethod
    def paper_defaults(cls) -> "AdministratorRules":
        """The five behaviours of Section IV-C."""
        return cls(
            [
                ThresholdRule(
                    label="overheating",
                    predicate=lambda s: s.temperature > TEMPERATURE_THRESHOLD,
                    candidate_fraction=0.20,
                ),
                ThresholdRule(
                    label="regular-tariff",
                    predicate=lambda s: 0.8 < s.electricity_cost <= 1.0,
                    candidate_fraction=0.40,
                ),
                ThresholdRule(
                    label="off-peak-1",
                    predicate=lambda s: 0.5 < s.electricity_cost <= 0.8,
                    candidate_fraction=0.70,
                ),
                ThresholdRule(
                    label="off-peak-2",
                    predicate=lambda s: s.electricity_cost <= 0.5,
                    candidate_fraction=1.00,
                ),
            ],
            default_fraction=1.0,
        )
