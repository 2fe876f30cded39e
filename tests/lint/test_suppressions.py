"""Suppression parsing, matching and validation edge cases."""

import pytest

from repro.lint.cli import _split_suppressions
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.engine import (
    LintConfig,
    LintRuleError,
    Suppression,
    validate_suppressions,
)
from repro.synthesis.ir import RtlModule

from .fixtures import lint_netlist


def _diag(rule_id="NET002", path="m.dead", rule_name="unread-net"):
    return Diagnostic(rule_id, Severity.WARNING, path, "msg",
                      rule_name=rule_name)


class TestSuppressionParse:
    def test_bare_rule(self):
        s = Suppression.parse("NET002")
        assert s.rule == "NET002" and s.path_pattern is None

    def test_rule_with_glob(self):
        s = Suppression.parse("NET002@m.*")
        assert s.rule == "NET002" and s.path_pattern == "m.*"

    def test_whitespace_stripped(self):
        assert Suppression.parse("  NET002  ").rule == "NET002"

    @pytest.mark.parametrize("bad", ["", "@glob", "NET002@"])
    def test_malformed_entries_rejected(self, bad):
        with pytest.raises(LintRuleError):
            Suppression.parse(bad)


class TestSuppressionMatch:
    def test_matches_rule_id(self):
        assert Suppression.parse("NET002").matches(_diag())

    def test_matches_symbolic_name(self):
        assert Suppression.parse("unread-net").matches(_diag())

    def test_glob_limits_to_paths(self):
        s = Suppression.parse("NET002@m.*")
        assert s.matches(_diag(path="m.dead"))
        assert not s.matches(_diag(path="other.dead"))

    def test_glob_is_case_sensitive(self):
        assert not Suppression.parse("NET002@M.*").matches(_diag())

    def test_other_rule_not_matched(self):
        assert not Suppression.parse("NET001").matches(_diag())


class TestSplitSuppressions:
    def test_comma_separated_entries(self):
        assert _split_suppressions(["NET001,NET002", "FSM003"]) == [
            "NET001", "NET002", "FSM003",
        ]

    def test_blank_fragments_dropped(self):
        assert _split_suppressions(["NET001,,  ,NET002"]) == [
            "NET001", "NET002",
        ]

    def test_glob_survives_splitting(self):
        assert _split_suppressions(["NET002@m.*,FSM001"]) == [
            "NET002@m.*", "FSM001",
        ]


class TestValidateSuppressions:
    def test_known_ids_and_names_pass(self):
        assert validate_suppressions(
            ["NET001", "unread-net", "RACE001@top.*"]
        ) == []

    def test_unknown_rule_reported(self):
        assert validate_suppressions(["NET001", "BOGUS999"]) == ["BOGUS999"]

    def test_malformed_entry_raises(self):
        with pytest.raises(LintRuleError):
            validate_suppressions(["@glob"])


class TestEngineSuppression:
    def _dead_net_module(self):
        module = RtlModule("m")
        a = module.add_port("a", "in", 4)
        out = module.add_port("out", "out", 4)
        dead = module.add_net("dead", 4)
        module.add_assign(dead, a.ref())
        module.add_assign(out, a.ref())
        return module

    def test_suppressed_finding_counted(self):
        module = self._dead_net_module()
        report = lint_netlist(module, LintConfig(suppress=["NET002"]))
        assert report.by_rule("NET002") == []
        assert report.suppressed == 1

    def test_glob_scoped_suppression(self):
        module = self._dead_net_module()
        hit = lint_netlist(module,
                              LintConfig(suppress=["NET002@m.dead"]))
        assert hit.by_rule("NET002") == []
        miss = lint_netlist(module,
                               LintConfig(suppress=["NET002@other.*"]))
        assert len(miss.by_rule("NET002")) == 1

    def test_strict_promotes_warnings(self):
        module = self._dead_net_module()
        report = lint_netlist(module, LintConfig(strict=True))
        (diag,) = report.by_rule("NET002")
        assert diag.severity is Severity.ERROR
        assert report.has_errors
