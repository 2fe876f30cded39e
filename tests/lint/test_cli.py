"""``python -m repro lint`` CLI: formats, catalogue, bad input."""

import json

from repro.__main__ import main


class TestLintCli:
    def test_list_rules_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("MOD001", "NET001", "FSM001", "RACE001"):
            assert rule_id in out

    def test_unknown_suppression_rejected(self, capsys):
        assert main(["lint", "--suppress", "BOGUS999",
                     "--target", "functional"]) == 2
        assert "unknown rule in --suppress" in capsys.readouterr().out

    def test_functional_target_table(self, capsys):
        assert main(["lint", "--target", "functional"]) == 0
        assert "functional" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["lint", "--target", "functional",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload and payload[0]["subject"]
        assert "counts" in payload[0]

    def test_sarif_format_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "lint.sarif"
        assert main(["lint", "--target", "functional", "--format",
                     "sarif", "--output", str(out_file)]) == 0
        sarif = json.loads(out_file.read_text())
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["tool"]["driver"]["name"] == "repro-lint"
        # Summary line still reaches stdout.
        assert capsys.readouterr().out.strip()
