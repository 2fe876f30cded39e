"""``python -m repro compile`` on the Figure-4 example platform."""

import pathlib

import pytest

from repro.__main__ import main

EXAMPLE = str(
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "pci_system.py"
)
CHANNEL = "chan0_top_interface_channel"


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    # The example script writes pci_system.vcd into the working dir.
    monkeypatch.chdir(tmp_path)


def _compile(capsys, *flags):
    code = main(["compile", *flags, "--quiet-script", EXAMPLE])
    return code, capsys.readouterr().out


class TestCompileCli:
    def test_check_reports_equal_vectors(self, capsys):
        code, out = _compile(capsys, "--check", "64")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith(f"run0/{CHANNEL}: ")
        assert lines[1] == (
            "  check: 64 random vectors equal to the interpreted schedule"
        )

    def test_dump_prints_generated_source(self, capsys):
        code, out = _compile(capsys, "--dump")
        assert code == 0
        assert f"# generated by repro.compile from netlist '{CHANNEL}'" in out
        for function in ("def _cycle(", "def _step(", "def _comb("):
            assert function in out
        assert "check:" not in out

    def test_yosys_emits_pass_ladder(self, capsys):
        code, out = _compile(capsys, "--yosys")
        assert code == 0
        assert f"# yosys script for {CHANNEL}.v" in out
        ladder = [
            f"read -sv {CHANNEL}.v",
            f"hierarchy -check -top {CHANNEL}",
            "proc; opt",
            "fsm; opt",
            "memory; opt",
            "techmap; opt",
            "dfflibmap -liberty",
            "abc -liberty",
            "clean",
            f"write_verilog {CHANNEL}_synth.v",
        ]
        positions = [
            next(index for index, line in enumerate(out.splitlines())
                 if line.startswith(step))
            for step in ladder
        ]
        assert positions == sorted(positions)

    def test_script_without_synthesis_exits_2(self, tmp_path, capsys):
        script = tmp_path / "plain.py"
        script.write_text("from repro.kernel import Simulator\n\n"
                          "sim = Simulator()\n")
        assert main(["compile", str(script)]) == 2
        assert "performed no communication synthesis" in (
            capsys.readouterr().out
        )
