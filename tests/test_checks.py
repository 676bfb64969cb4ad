"""The self-check battery and its CLI entry point run clean."""

from pfbe.checks import CHECKS, run_battery
from pfbe.cli import main as cli_main


def test_battery_reports_zero_failures(capsys):
    failures = run_battery()
    out = capsys.readouterr().out
    assert failures == 0
    assert out.count("[PASS]") == len(CHECKS)
    assert "[FAIL]" not in out


def test_check_command_exits_zero():
    assert cli_main(["check"]) == 0
