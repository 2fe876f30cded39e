"""Engine policy: suppression syntax, strict mode, registry, report."""

import pytest

from repro.lint import (
    DESIGN,
    Diagnostic,
    LintConfig,
    LintEngine,
    LintReport,
    LintRule,
    LintRuleError,
    RuleRegistry,
    Severity,
    Suppression,
    default_registry,
)


def make_diag(rule_id="TST001", severity=Severity.WARNING,
              path="top.unit", rule_name="test-rule"):
    return Diagnostic(rule_id, severity, path, "message", "hint", rule_name)


class TestSuppression:
    def test_parse_plain_rule(self):
        suppression = Suppression.parse("MOD003")
        assert suppression.rule == "MOD003"
        assert suppression.path_pattern is None

    def test_parse_with_glob(self):
        suppression = Suppression.parse("MOD003@top.iface.*")
        assert suppression.path_pattern == "top.iface.*"

    @pytest.mark.parametrize("bad", ["", "@glob", "RULE@"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(LintRuleError):
            Suppression.parse(bad)

    def test_matches_by_rule_id(self):
        assert Suppression.parse("TST001").matches(make_diag())

    def test_matches_by_symbolic_name(self):
        assert Suppression.parse("test-rule").matches(make_diag())

    def test_glob_limits_to_path(self):
        suppression = Suppression.parse("TST001@top.other.*")
        assert not suppression.matches(make_diag(path="top.unit"))
        assert suppression.matches(make_diag(path="top.other.x"))

    def test_other_rule_not_matched(self):
        assert not Suppression.parse("TST999").matches(make_diag())


class TestLintConfig:
    def test_suppressed_finding_dropped(self):
        config = LintConfig(suppress=["TST001"])
        assert config.effective(make_diag()) is None

    def test_strict_promotes_warnings(self):
        config = LintConfig(strict=True)
        diag = config.effective(make_diag(severity=Severity.WARNING))
        assert diag.severity is Severity.ERROR

    def test_strict_leaves_info_alone(self):
        config = LintConfig(strict=True)
        diag = config.effective(make_diag(severity=Severity.INFO))
        assert diag.severity is Severity.INFO

    def test_severity_override(self):
        config = LintConfig(severity_overrides={"TST001": Severity.INFO})
        diag = config.effective(make_diag(severity=Severity.ERROR))
        assert diag.severity is Severity.INFO


class TestRegistry:
    def test_duplicate_rule_id_rejected(self):
        registry = RuleRegistry()

        class Rule(LintRule):
            rule_id = "DUP001"
            name = "dup"

        registry.register(Rule())
        with pytest.raises(LintRuleError):
            registry.register(Rule())

    def test_anonymous_rule_rejected(self):
        with pytest.raises(LintRuleError):
            RuleRegistry().register(LintRule())

    def test_unknown_rule_lookup_raises(self):
        with pytest.raises(LintRuleError):
            RuleRegistry().get("NOPE01")

    def test_default_registry_has_all_rule_layers(self):
        ids = {rule.rule_id for rule in default_registry.rules()}
        assert len(ids) >= 10
        assert {"MOD002", "MOD003", "MOD004", "MOD005"} <= ids
        assert {"GRD001", "GRD002", "GRD003", "GRD004"} <= ids
        assert {"IR001", "IR002", "IR003", "IR004", "IR005"} <= ids


class TestEngineRun:
    def test_suppression_counted(self):
        registry = RuleRegistry()

        class Noisy(LintRule):
            rule_id = "TST001"
            name = "noisy"
            target = DESIGN

            def check(self, subject):
                yield self.emit("top.a", "boom")
                yield self.emit("top.b", "boom")

        registry.register(Noisy())
        engine = LintEngine(LintConfig(suppress=["TST001@top.a"]), registry)
        report = engine.run(object(), DESIGN, "unit")
        assert report.suppressed == 1
        assert [d.path for d in report.diagnostics] == ["top.b"]
        assert report.rules_run == ["TST001"]


class TestReport:
    def test_counts_and_summary(self):
        report = LintReport("unit")
        report.add(make_diag(severity=Severity.ERROR))
        report.add(make_diag(severity=Severity.WARNING))
        assert report.counts() == {"error": 1, "warning": 1, "info": 0}
        assert report.has_errors
        assert not report.clean
        assert "1 error, 1 warning" in report.summary_line()

    def test_render_orders_worst_first(self):
        report = LintReport("unit")
        report.add(make_diag(rule_id="TSTB02", severity=Severity.WARNING))
        report.add(make_diag(rule_id="TSTA01", severity=Severity.ERROR))
        lines = report.render().splitlines()
        assert lines[1].startswith("error[TSTA01]")

    def test_extend_merges(self):
        first, second = LintReport("a"), LintReport("b")
        first.rules_run = ["R1"]
        second.rules_run = ["R1", "R2"]
        second.add(make_diag())
        second.suppressed = 3
        first.extend(second)
        assert len(first.diagnostics) == 1
        assert first.suppressed == 3
        assert first.rules_run == ["R1", "R2"]
