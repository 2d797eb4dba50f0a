"""End-to-end runs of the batch front end through subprocess."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from textwrap import dedent

import numpy as np
import pytest

import oracles
import pcrit
from pcrit.cli import VALIDATION_SUITES, _write_csv, _write_profile, main
from pcrit.model import Field, Grid

PCRIT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(pcrit.__file__)))

EIG_INI = dedent(
    """\
    [problem]
    p = 2.0
    d = 1
    domain = 0 1
    potential = zero

    [command]
    name = eig
    level = 0 1
    resolution = 2001
    """
)

# p = 3 on an unbounded domain; the warm inner solves of its inverse power
# iteration take up to 18 damped steps (101 while steps were accepted on
# the residual alone) before Newton's local convergence sets in
P3_EIG_INI = dedent(
    """\
    [problem]
    p = 3.0
    d = 3
    domain = 0 inf
    potential = constant 0.5

    [command]
    name = eig
    level = 0.5 4
    resolution = 1601
    """
)

CRIT_INI = dedent(
    """\
    [problem]
    p = 2.0
    d = 1
    domain = -inf inf
    potential = zero

    [exhaustion]
    style = line
    count = 15
    base = 1.0
    growth = 2.0
    x0 = 0.0

    [command]
    name = critical
    resolution = 801
    """
)

SUBCRIT_INI = dedent(
    """\
    [problem]
    p = 2.0
    d = 3
    domain = 0 inf
    potential = zero

    [exhaustion]
    style = annuli
    count = 9
    base = 1.0
    growth = 2.0

    [command]
    name = critical
    resolution = 201
    """
)

VALIDATE_INI = dedent(
    """\
    [problem]
    p = 2.0
    d = 1
    domain = 0 1
    potential = zero

    [command]
    name = validate
    """
)

STUCK_SOLVE_INI = dedent(
    """\
    [problem]
    p = 3.0
    d = 1
    domain = 0 1
    potential = zero

    [command]
    name = solve
    level = 0 1
    boundary = 0.0 1.0
    forcing = constant 5
    resolution = 801

    [tolerances]
    max_iter_per_stage = 2
    """
)

OVERFLOW_SOLVE_INI = dedent(
    """\
    [problem]
    p = 3.0
    d = 3
    domain = 0 inf
    potential = constant 1e306

    [command]
    name = solve
    level = 1 1000
    boundary = 1 1
    resolution = 201
    """
)

# one Newton step per solve starves the first level's threshold
# eigensolve, so no level yields a threshold and the verdict cannot be made
NO_THRESHOLD_CRIT_INI = dedent(
    """\
    [problem]
    p = 3.0
    d = 3
    domain = 0 inf
    potential = zero

    [exhaustion]
    style = annuli
    count = 5

    [command]
    name = critical
    frame = radial
    resolution = 201

    [tolerances]
    max_iter_per_stage = 1
    """
)

# the inverse power iteration's start has no usable quotient: at p = 1e308
# its weighted mass |u|^p underflows to 0, and at V = -1e308 the quotient
# cancels the eigenpair's shift to 0.0
NO_MASS_EIG_INI = {
    "mass-underflows": dedent(
        """\
        [problem]
        p = 1e308
        d = 3
        domain = 0 inf
        potential = zero

        [command]
        name = eig
        level = 1 2
        resolution = 41
        """
    ),
}
NO_MASS_EIG_INI["shift-cancels"] = (
    NO_MASS_EIG_INI["mass-underflows"]
    .replace("p = 1e308", "p = 3")
    .replace("potential = zero", "potential = constant -1e308")
)

MINGROWTH_BALL_INI = dedent(
    """\
    [problem]
    p = 2.0
    d = 3
    domain = 0 inf
    potential = zero

    [exhaustion]
    style = balls
    count = 3
    base = 2.0
    growth = 2.0
    x0 = 1.5

    [command]
    name = mingrowth
    set = 0.5 1
    resolution = 201
    """
)

MINGROWTH_NON_COERCIVE_INI = dedent(
    """\
    [problem]
    p = 3.0
    d = 3
    domain = 0 inf
    potential = constant -0.05

    [exhaustion]
    style = balls
    count = 4
    base = 1.0
    growth = 2.0
    x0 = 1.5

    [command]
    name = mingrowth
    set = 0 1
    resolution = 301
    """
)

# V = -0.0082: lambda_1 = -8.581e-4 < 0 on the largest level minus the set,
# but with no eigen iterations the torsion bound is None and the quotient
# at the start, the p = 2 vector, is positive
MINGROWTH_UNCONVERGED_EIGEN_INI = (
    MINGROWTH_NON_COERCIVE_INI.replace("constant -0.05", "constant -0.0082")
    + "\n[tolerances]\neigen_max_iter = 0\n"
)

CAPACITY_BELOW_CRITICAL_INI = dedent(
    """\
    [problem]
    p = 3.0
    d = 3
    domain = 0 inf
    potential = constant -0.3030160555893753

    [command]
    name = capacity
    set = 0 1
    level = 0 4
    resolution = 1201

    [tolerances]
    eigen_max_iter = 1
    """
)

CERTIFY_INI = dedent(
    """\
    [problem]
    p = 2.0
    d = 3
    domain = 0 inf
    potential = zero

    [exhaustion]
    levels = 0 16; 0 32
    x0 = 1

    [command]
    name = certify
    omega2 = 0 2
    window = 3 4
    candidate = power 1 -1
    resolution = 301
    """
)


# (config text, stderr prefix, whether --out names an existing file)
REFUSED = {
    "count-not-an-integer": (CRIT_INI.replace("count = 15", "count = abc"), "config error:", False),
    "iteration-cap-inf": (
        STUCK_SOLVE_INI.replace("max_iter_per_stage = 2", "max_iter_per_stage = inf"),
        "config error:",
        False,
    ),
    # quickly converging p = 2 solves, so a cap that is not refused ends too
    "iteration-cap-negative": (
        STUCK_SOLVE_INI.replace("p = 3.0", "p = 2.0").replace("max_iter_per_stage = 2", "max_iter_per_stage = -1"),
        "config error: [tolerances] max_iter_per_stage must be >= 0, got -1",
        False,
    ),
    "eigen-cap-negative": (
        STUCK_SOLVE_INI.replace("p = 3.0", "p = 2.0").replace("max_iter_per_stage = 2", "eigen_max_iter = -1"),
        "config error: [tolerances] eigen_max_iter must be >= 0, got -1",
        False,
    ),
    "unknown-tolerance-key": (
        EIG_INI + "\n[tolerances]\nresdual_tol = 1e-3\n", "config error:", False
    ),
    "seed-not-an-integer": (EIG_INI + "seed = abc\n", "config error:", False),
    "empty-candidate": (
        CERTIFY_INI.replace("candidate = power 1 -1", "candidate ="),
        "config error: [command] candidate:",
        False,
    ),
    "candidate-not-a-number": (
        CERTIFY_INI.replace("candidate = power 1 -1", "candidate = power 1 abc"),
        "config error: [command] candidate:",
        False,
    ),
    # forcing and weight errors carry their key, as every [command] error does
    "forcing-unknown-kind": (
        STUCK_SOLVE_INI.replace("forcing = constant 5", "forcing = constnat 5"),
        "config error: [command] forcing:",
        False,
    ),
    "weight-not-a-number": (
        SUBCRIT_INI.replace("name = critical", "name = critical\nweight = power abc -2"),
        "config error: [command] weight:",
        False,
    ),
    "boundary-not-a-number": (
        STUCK_SOLVE_INI.replace("boundary = 0.0 1.0", "boundary = abc 0"),
        "config error: [command] boundary:",
        False,
    ),
    # the Newton eps schedule and line search are fixed, not configurable:
    # at p = 3 an eps_factor >= 1 would never finish building the schedule
    "eps-factor-removed": (
        STUCK_SOLVE_INI.replace("max_iter_per_stage = 2", "eps_factor = 1"),
        "config error: [tolerances] eps_factor: unknown key",
        False,
    ),
    "backtrack-max-removed": (
        STUCK_SOLVE_INI.replace("max_iter_per_stage = 2", "backtrack_max = 3"),
        "config error: [tolerances] backtrack_max: unknown key",
        False,
    ),
    # non-finite data is refused before the solve, by value
    "boundary-nan": (
        STUCK_SOLVE_INI.replace("boundary = 0.0 1.0", "boundary = nan 0"),
        "error: boundary data must be finite and nonnegative, got left=nan",
        False,
    ),
    "trace-inf": (
        MINGROWTH_BALL_INI.replace("set = 0.5 1", "set = 0.5 1\ntrace = inf 1"),
        "error: trace values must be finite and positive, got (inf, 1.0)",
        False,
    ),
    "out-is-a-file": (EIG_INI, "error:", True),
    # one past each ceiling, refused before anything is allocated
    "resolution-above-ceiling": (
        EIG_INI.replace("resolution = 2001", "resolution = 1000001"),
        "config error: [command] resolution:",
        False,
    ),
    "count-above-ceiling": (
        CRIT_INI.replace("count = 15", "count = 1001"),
        "config error: [exhaustion] count:",
        False,
    ),
    "bump-radius-zero": (
        EIG_INI.replace("potential = zero", "potential = bump 1 0 1"),
        "config error: potential term 'bump 1 0 1': bump needs a positive radius",
        False,
    ),
    # a nan radius or center would sample as V = 0 everywhere
    "bump-radius-nan": (
        EIG_INI.replace("potential = zero", "potential = bump 1 nan 1"),
        "config error: potential term 'bump 1 nan 1': bump needs a positive radius",
        False,
    ),
    "growth-overflows": (
        CRIT_INI.replace("growth = 2.0", "growth = 1e308"),
        "config error: [exhaustion]: level endpoints overflow",
        False,
    ),
    # at d = p with annuli levels "auto" reduces to log coordinates; a
    # misspelled frame is refused there as on the radial branch
    "frame-misspelled": (
        SUBCRIT_INI.replace("p = 2.0", "p = 3.0").replace(
            "name = critical", "name = critical\nframe = radail"
        ),
        "error: unknown frame",
        False,
    ),
}
# a tolerance outside (0, 1) is never met, or is met at the start, and the
# solve used to report convergence either way
for _value in ("nan", "-1", "0", "1", "inf"):
    REFUSED[f"residual-tol-{_value}"] = (
        STUCK_SOLVE_INI.replace("max_iter_per_stage = 2", f"residual_tol = {_value}"),
        "config error: [tolerances] residual_tol must lie in (0, 1)",
        False,
    )
# a nan, negative or infinite threshold or tolerance gave an "undetermined"
# verdict or an unconverged limit, with exit status 0
for _key, _base, _command in (
    ("eps_crit", CRIT_INI, "critical"),
    ("plateau_rtol", CRIT_INI, "critical"),
    ("cauchy_tol", MINGROWTH_BALL_INI, "mingrowth"),
):
    for _value in ("nan", "-1", "inf"):
        REFUSED[f"{_key}-{_value}"] = (
            _base.replace(f"name = {_command}", f"name = {_command}\n{_key} = {_value}"),
            f"config error: [command] {_key}: must be finite and > 0",
            False,
        )
for _value in ("1", "inf"):
    REFUSED[f"eigen-rtol-{_value}"] = (
        P3_EIG_INI + f"\n[tolerances]\neigen_rtol = {_value}\n",
        "config error: [tolerances] eigen_rtol must lie in (0, 1)",
        False,
    )


def run_cli(tmp_path, ini_text, *extra):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini_text)
    out = tmp_path / "out"
    cmd = [sys.executable, "-m", "pcrit.cli", "--config", str(cfg), "--out", str(out)]
    cmd.extend(extra)
    # A relative PYTHONPATH such as src does not survive cwd=tmp_path; prepend an absolute one.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PCRIT_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, env=env)
    report = None
    report_path = out / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text())
    return proc, out, report


def strict_report(out):
    """report.json parsed as strict JSON: Infinity, -Infinity and NaN are
    refused."""
    def refuse(name):
        raise ValueError(f"report.json holds the non-JSON constant {name}")

    return json.loads((out / "report.json").read_text(), parse_constant=refuse)


class TestEigCommand:
    def test_eigenvalue_report_and_profile(self, tmp_path):
        proc, out, report = run_cli(tmp_path, EIG_INI)
        assert proc.returncode == 0, proc.stderr
        lam = report["results"]["lambda"]
        assert lam == pytest.approx(oracles.FROZEN["eig_shoot_p2"], rel=1e-3)
        assert report["results"]["converged"]
        assert report["status"] == "ok"
        lines = (out / "eig_profile.csv").read_text().splitlines()
        assert lines[0] == "node,value"
        assert len(lines) == 1 + 2001
        # every row parses back to two floats
        a, b = lines[1000].split(",")
        float(a), float(b)

    def test_p2_eigenpair_on_one_free_node(self, tmp_path):
        # resolution 3 leaves one free node, a pencil of order 1 that
        # dpttrf refused for its empty off-diagonal; the eigenvalue is the
        # quotient at the hat function: two cells of weight 1/2 at slope 2
        # over a nodal mass of 1/2
        ini = EIG_INI.replace("resolution = 2001", "resolution = 3")
        proc, out, report = run_cli(tmp_path, ini)
        assert proc.returncode == 0, proc.stderr
        assert report["results"]["lambda"] == 8.0
        assert report["results"]["converged"] is True

    def test_power_potential_on_the_whole_line(self, tmp_path):
        # V = |r|^(1/2) is finite at every node of (-1, 1); with r^(1/2) the
        # negative nodes sampled NaN and the command exited 1
        ini = EIG_INI.replace("domain = 0 1", "domain = -inf inf")
        ini = ini.replace("potential = zero", "potential = power 1 0.5")
        ini = ini.replace("level = 0 1", "level = -1 1")
        proc, _, report = run_cli(tmp_path, ini)
        assert proc.returncode == 0, proc.stderr
        assert report["results"]["converged"] and report["results"]["lambda"] > 0.0

    def test_report_embeds_config_hash_and_tolerances(self, tmp_path):
        proc, _, report = run_cli(tmp_path, EIG_INI)
        assert proc.returncode == 0
        digest = report["config_sha256"]
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        # every SolverConfig value in effect, with residual_tol resolved for p = 2
        assert report["tolerances"] == {
            "residual_tol": 1e-10,
            "max_iter_per_stage": 200,
            "eigen_rtol": 1e-8,
            "eigen_max_iter": 400,
        }

    def test_tol_flag_lands_in_report(self, tmp_path):
        proc, _, report = run_cli(tmp_path, EIG_INI, "--tol", "3e-9")
        assert proc.returncode == 0
        assert report["tolerances"]["residual_tol"] == 3e-9

    def test_p3_eigenpair_converges_in_its_last_stage(self, tmp_path):
        # the Newton solve has no stall exit; when the last eps stage had
        # one, the second inner solve stopped after 6 steps and this run
        # exited 2
        proc, out, _ = run_cli(tmp_path, P3_EIG_INI)
        assert proc.returncode == 0, proc.stderr
        report = strict_report(out)
        assert report["results"]["converged"] is True
        assert report["problem"]["domain"] == [0.0, "inf"]

    def test_reruns_are_byte_identical(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        _, out_a, rep_a = run_cli(dir_a, EIG_INI)
        _, out_b, rep_b = run_cli(dir_b, EIG_INI)
        csv_a = (out_a / "eig_profile.csv").read_bytes()
        csv_b = (out_b / "eig_profile.csv").read_bytes()
        assert csv_a == csv_b
        assert rep_a["results"] == rep_b["results"]

    def test_csv_rows_match_the_per_value_format(self, tmp_path):
        # the threshold and certificate files carry an integer index, and
        # the profiles numpy floats: a row formatted at once must give the
        # bytes that formatting each value and joining them gave
        rows = [
            (7, -0.0, 5e-324, 1e308, 0.1),
            (0, np.float64(0.1), np.float64(-2.5e-310), -1e308, 1.0 / 3.0),
        ]
        header = "index,a,b,c,d"
        _write_csv(tmp_path / "rows.csv", header, iter(rows))
        expected = "\n".join([header] + [",".join("%.17g" % x for x in row) for row in rows])
        assert (tmp_path / "rows.csv").read_bytes() == (expected + "\n").encode()

    def test_profile_bytes_are_pinned(self, tmp_path):
        # integer-valued nodes print without a point, -0.0 keeps its sign,
        # and 17 digits round-trip both ends of the exponent range
        grid = Grid(np.array([-1.0, -0.0, 1e-300, 2.0, 1e300]), 0.0)
        field = Field(grid, np.array([-0.0, 1e-300, 1e300, 3.0, -2.5]))
        _write_profile(tmp_path / "profile.csv", field)
        assert (tmp_path / "profile.csv").read_bytes() == (
            b"node,value\n"
            b"-1,-0\n"
            b"-0,1e-300\n"
            b"1e-300,1.0000000000000001e+300\n"
            b"2,3\n"
            b"1.0000000000000001e+300,-2.5\n"
        )


class TestCriticalCommand:
    def test_whole_line_is_critical(self, tmp_path):
        proc, out, report = run_cli(tmp_path, CRIT_INI)
        assert proc.returncode == 0, proc.stderr
        res = report["results"]
        assert res["verdict"] == "critical"
        ts = res["thresholds"]
        assert all(b < a for a, b in zip(ts, ts[1:]))
        assert ts[-1] <= 1e-4
        lines = (out / "critical_thresholds.csv").read_text().splitlines()
        assert lines[0] == "index,level_lo,level_hi,threshold"
        assert len(lines) == 1 + len(ts)

    def test_exterior_d3_reports_its_margins(self, tmp_path):
        proc, _, report = run_cli(tmp_path, SUBCRIT_INI)
        assert proc.returncode == 0, proc.stderr
        res = report["results"]
        assert res["verdict"] == "subcritical"
        assert res["positivity_margin"] > 0.0
        assert len(res["positivity_margins"]) == res["levels_completed"]
        assert res["positivity_uncertified"] == []


class TestMingrowthCommand:
    def test_ball_levels_around_a_shell(self, tmp_path):
        # the ball center left of the set is a free node of the inner run
        proc, out, report = run_cli(tmp_path, MINGROWTH_BALL_INI)
        assert proc.returncode == 0, proc.stderr
        res = report["results"]
        assert res["levels_completed"] == 3
        assert res["lambda_1_lower"] > 0.0
        assert (out / "mingrowth_profile.csv").is_file()

    def test_non_coercive_level_is_a_precondition_failure(self, tmp_path):
        # V = -0.05 at p = 3: the largest level's component outside the set
        # has lambda_1 = -0.043, so the run is refused before any level is
        # solved, not truncated where the (0, 16) solve fails
        proc, out, report = run_cli(tmp_path, MINGROWTH_NON_COERCIVE_INI)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(
            "error: principal eigenvalue on level (0.0, 16.0) minus the set is -4.266e-02 <= 0"
        ), proc.stderr
        assert report is None and not out.exists()

    def test_unconverged_eigensolve_certifies_no_lambda_1(self, tmp_path):
        # an unconverged iterate's quotient bounds lambda_1 only from above;
        # it used to be reported as a positive lambda_1_lower
        proc, out, report = run_cli(tmp_path, MINGROWTH_UNCONVERGED_EIGEN_INI)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(
            "solver failure: lambda_1 eigensolve did not converge (quotient 9.141e-04 > 0)"
        ), proc.stderr
        assert report is None and not out.exists()


class TestCapacityCommand:
    def test_unconverged_nonnegativity_check_writes_nothing(self, tmp_path):
        # V = -1.01 lambda_1(V = 0) at p = 3, lambda_1(V = 0) = 0.300016 on
        # the level: one outer iteration leaves the Q >= 0 check with a
        # positive quotient, which shows nothing; a report with a negative
        # capacity was once written
        proc, out, report = run_cli(tmp_path, CAPACITY_BELOW_CRITICAL_INI)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("solver failure: lambda_1 eigensolve did not converge"), proc.stderr
        assert report is None and not out.exists()


class TestCertifyCommand:
    def test_candidate_takes_the_potential_grammar(self, tmp_path):
        # 1 + 1/r stays above 1, so it is not of minimal growth
        ini_text = CERTIFY_INI.replace(
            "candidate = power 1 -1", "candidate = constant 1 + power 1 -1"
        )
        proc, _, report = run_cli(tmp_path, ini_text)
        assert proc.returncode == 0, proc.stderr
        assert report["results"]["verdict"] == "bounded-away"


class TestLevelsFlag:
    # CERTIFY_INI lists its levels (0, 16), (0, 32); CRIT_INI builds
    # (-2**k, 2**k) for k = 1..15 from the line style
    @pytest.mark.parametrize(
        "ini_text, kept, csv_name, level_his",
        [
            (CERTIFY_INI, "1", "certify_mus.csv", [16.0]),
            (CRIT_INI, "6", "critical_thresholds.csv", [2.0**k for k in range(1, 7)]),
        ],
        ids=["levels-list", "style"],
    )
    def test_levels_flag_keeps_the_first_levels(self, tmp_path, ini_text, kept, csv_name, level_his):
        proc, out, _ = run_cli(tmp_path, ini_text, "--levels", kept)
        assert proc.returncode == 0, proc.stderr
        rows = (out / csv_name).read_text().splitlines()[1:]
        assert [float(row.split(",")[2]) for row in rows] == level_his


class TestValidateCommand:
    def test_all_suites_pass(self, tmp_path):
        proc, _, report = run_cli(tmp_path, VALIDATE_INI)
        assert proc.returncode == 0, proc.stderr
        suites = report["results"]["suites"]
        assert set(suites) == set(VALIDATION_SUITES)
        failing = [k for k, v in suites.items() if not v["pass"]]
        assert failing == []
        assert report["results"]["all_pass"]

    def test_seed_override_changes_draws_not_outcome(self, tmp_path):
        proc, _, report = run_cli(tmp_path, VALIDATE_INI, "--seed", "777")
        assert proc.returncode == 0, proc.stderr
        assert report["seed"] == 777
        assert report["results"]["all_pass"]


class TestFailureModes:
    def test_missing_p_is_config_error(self, tmp_path):
        bad = EIG_INI.replace("p = 2.0\n", "")
        proc, _, report = run_cli(tmp_path, bad)
        assert proc.returncode == 1
        assert report is None
        assert "[problem]" in proc.stderr and "'p'" in proc.stderr

    def test_unknown_command_is_config_error(self, tmp_path):
        bad = EIG_INI.replace("name = eig", "name = shrug")
        proc, _, _ = run_cli(tmp_path, bad)
        assert proc.returncode == 1
        assert "unknown command" in proc.stderr

    def test_starved_solver_reports_non_convergence(self, tmp_path):
        proc, _, report = run_cli(tmp_path, STUCK_SOLVE_INI)
        assert proc.returncode == 2
        assert report["status"] == "non-convergence"
        assert not report["results"]["converged"]

    def test_non_finite_residual_reports_non_convergence(self, tmp_path):
        proc, out, _ = run_cli(tmp_path, OVERFLOW_SOLVE_INI)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        report = strict_report(out)
        assert report["status"] == "non-convergence"
        assert report["results"]["converged"] is False
        assert report["results"]["final_residual_norm"] == "inf"
        assert report["problem"]["domain"] == [0.0, "inf"]

    def test_state_error_exits_2_without_output(self, tmp_path):
        proc, out, _ = run_cli(tmp_path, NO_THRESHOLD_CRIT_INI)
        assert proc.returncode == 2, proc.stderr
        assert "solver failure: no level produced a threshold; cannot classify" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(NO_MASS_EIG_INI))
    def test_eigensolve_without_a_usable_start_reports_failure(self, tmp_path, case):
        cfg = tmp_path / "run.ini"
        cfg.write_text(NO_MASS_EIG_INI[case])
        status = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert status == 2
        report = strict_report(tmp_path / "out")
        assert report["status"] == "non-convergence"
        assert report["results"]["converged"] is False
        assert report["results"]["iterations"] == 0

    # an explicit level list was sliced by the count, so -1 kept all but one
    @pytest.mark.parametrize("count", ["-1", "0", "1001"])
    def test_levels_flag_out_of_range_is_config_error(self, tmp_path, count):
        proc, out, report = run_cli(tmp_path, CERTIFY_INI, "--levels", count)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("config error: --levels:"), proc.stderr
        assert report is None and not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "-1", "1"])
    def test_tol_flag_out_of_range_is_config_error(self, tmp_path, tol):
        proc, out, report = run_cli(tmp_path, STUCK_SOLVE_INI, f"--tol={tol}")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("config error: [tolerances] residual_tol must lie in (0, 1)")
        assert report is None and not out.exists()

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused_with_exit_1_and_no_traceback(self, tmp_path, case):
        ini_text, prefix, out_is_file = REFUSED[case]
        if out_is_file:
            (tmp_path / "out").write_text("")
        proc, out, report = run_cli(tmp_path, ini_text)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(prefix), proc.stderr
        assert "Traceback" not in proc.stderr
        assert report is None
        assert out.is_file() if out_is_file else not out.exists()
