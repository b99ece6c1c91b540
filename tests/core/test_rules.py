"""Tests for the administrator threshold rules."""

import pytest

from repro.core.rules import AdministratorRules, PlatformStatus, ThresholdRule


def status(temperature=20.0, cost=1.0, nodes=12, time=0.0):
    return PlatformStatus(
        time=time, temperature=temperature, electricity_cost=cost, total_nodes=nodes
    )


class TestPlatformStatus:
    def test_validation(self):
        with pytest.raises(ValueError):
            status(cost=1.5)
        with pytest.raises(ValueError):
            status(nodes=-1)


class TestThresholdRule:
    def test_matches_predicate(self):
        rule = ThresholdRule(
            label="hot", predicate=lambda s: s.temperature > 25, candidate_fraction=0.2
        )
        assert rule.matches(status(temperature=30.0))
        assert not rule.matches(status(temperature=20.0))

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            ThresholdRule(label="x", predicate=lambda s: True, candidate_fraction=1.5)

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            ThresholdRule(label="", predicate=lambda s: True, candidate_fraction=0.5)


class TestPaperDefaults:
    """The five behaviours of Section IV-C, on the 12-node platform."""

    def setup_method(self):
        self.rules = AdministratorRules.paper_defaults()

    def test_overheating_caps_at_20_percent(self):
        decision = self.rules.evaluate(status(temperature=30.0, cost=0.3))
        assert decision.rule.label == "overheating"
        assert decision.candidate_count == 2

    def test_regular_tariff_allows_40_percent(self):
        decision = self.rules.evaluate(status(temperature=20.0, cost=1.0))
        assert decision.rule.label == "regular-tariff"
        assert decision.candidate_count == 4

    def test_off_peak_1_allows_70_percent(self):
        decision = self.rules.evaluate(status(temperature=20.0, cost=0.8))
        assert decision.rule.label == "off-peak-1"
        assert decision.candidate_count == 8

    def test_off_peak_2_allows_everything(self):
        decision = self.rules.evaluate(status(temperature=20.0, cost=0.5))
        assert decision.rule.label == "off-peak-2"
        assert decision.candidate_count == 12
        decision = self.rules.evaluate(status(temperature=20.0, cost=0.3))
        assert decision.candidate_count == 12

    def test_overheating_overrides_cheap_energy(self):
        decision = self.rules.evaluate(status(temperature=26.0, cost=0.3))
        assert decision.rule.label == "overheating"


class TestRuleEngine:
    def test_first_match_wins(self):
        rules = AdministratorRules(
            [
                ThresholdRule("first", lambda s: True, 0.5),
                ThresholdRule("second", lambda s: True, 0.9),
            ]
        )
        assert rules.evaluate(status()).rule.label == "first"

    def test_default_rule_when_nothing_matches(self):
        rules = AdministratorRules(
            [ThresholdRule("never", lambda s: False, 0.5)], default_fraction=0.25
        )
        decision = rules.evaluate(status(nodes=8))
        assert decision.rule.label == "default"
        assert decision.candidate_count == 2

    def test_requires_at_least_one_rule(self):
        with pytest.raises(ValueError):
            AdministratorRules([])

    def test_decision_reports_fraction(self):
        rules = AdministratorRules.paper_defaults()
        decision = rules.evaluate(status(cost=0.8))
        assert decision.candidate_fraction == 0.70
