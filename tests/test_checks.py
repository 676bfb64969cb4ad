"""The self-check battery and its CLI entry point run clean, and print the
same lines at every run."""

from pfbe.checks import CHECKS, run_battery
from pfbe.cli import main as cli_main

# the whole standard output of ``pfbe check``; a change that moves a line
# moves a number the battery reports, and must say why
EXPECTED = (
    "[PASS] rng-reproducibility: array(3585) equals 3585 scalar draws bit for bit; "
    "seed 7 regenerates, ||b|| = 1\n"
    "[PASS] moreau-decomposition: decomposition + orthogonality within 0.0e+00\n"
    "[PASS] projection-optimality: projection variational inequality slack 0.0e+00\n"
    "[PASS] oracle-derivatives: analytic gradients and HVPs match finite differences\n"
    "[PASS] concavity-witness: curvature witness <= -mu ||d||^2 on random directions\n"
    "[PASS] polar-convexity: polar-weighted constraint is midpoint convex in y\n"
    "[PASS] multiplier-gradient: lifted multiplier gradient equals -c(x, y) exactly\n"
    "[PASS] envelope-gradient-fd: smooth-part gradient matches FD at 20 points\n"
    "[PASS] sandwich-bounds: sandwich bounds hold at 100 random points\n"
    "[PASS] equivalence-spot: residuals vanish exactly at the known stationary point, "
    "not off it\n"
    "[PASS] lifted-kkt-points: both lifted stationary points verified; monitor = sqrt(5)/6\n"
    "[PASS] two-timescale-hand-step: first iterate matches the hand computation to 1e-12\n"
    "[PASS] solver-descent: SPG converged in 35 iters; small-step trace is monotone\n"
    "13/13 checks passed\n"
)


def test_battery_reports_zero_failures(capsys):
    failures = run_battery()
    out = capsys.readouterr().out
    assert failures == 0
    assert out.count("[PASS]") == len(CHECKS)
    assert "[FAIL]" not in out


def test_check_command_exits_zero(capsys):
    assert cli_main(["check"]) == 0
    assert capsys.readouterr().out == EXPECTED
