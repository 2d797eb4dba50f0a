"""The benchmark's three workloads.

Each workload turns a seed into inputs (its constructor), runs one pass
of pcrit calls (``execute``, the only timed part), and checks the pass's
outputs (``check``).  Calls go through pcrit's module attributes at call
time, so the tracer's rebinding sees them.

* eigen-p2:  criterion 05's three p = 2 verdicts, plus ground_state and
  null_sequence on the two critical ones.  The seed draws a scale factor
  c in [1, 2) for every level schedule.  With V = 0 the quotient is
  scale-invariant, so c^p * t_N(c) must equal the frozen t_N(1).  c >= 1
  keeps the last d = 1 threshold under the critical cut 1e-4.
* newton-p3: criterion 05's d = 4 p = 3 subcritical annuli verdict and the
  d = 3 p = 3 log-frame critical verdict.  The geometry is fixed: the
  Newton work is chaotic in the input (the d = 4 verdict makes 13,488
  banded solves at resolution 401 and 11,211 at 601), so a rescaled or
  resized input would change the work, not just the numbers.  The seed
  only picks the order of the two verdicts.
* cli-batch: in-process ``pcrit.cli.main`` over one INI config per command,
  with ``--seed`` passed through (it changes the ``validate`` draws).
"""
from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pcrit import cli
from pcrit import criticality as crit
from pcrit.model import ExhaustionSchedule, PotentialSpec, RadialProblem, make_exhaustion

FROZEN_PATH = Path(__file__).with_name("frozen.json")

IDENTITY_TOL = 1e-8  # Q(v_N) = (t_N / p) * integral(W |v_N|^p), criterion 11


@dataclass
class Op:
    """One operation of a pass: a public pcrit call or one CLI command."""

    name: str
    value: object = None
    failed: str = ""  # reason, empty when the call completed and converged


@dataclass
class Checked:
    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    incorrect: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)  # compared with frozen.json

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.incorrect.append(what)


def compare(observed, frozen, rtol: float, where: str = "") -> list[str]:
    """Mismatches between observed outputs and frozen values: floats to a
    relative tolerance, everything else exactly; nothing may be missing."""
    if isinstance(frozen, dict):
        if not isinstance(observed, dict):
            return [f"{where}: missing"]
        out = []
        for key, ref in frozen.items():
            path = f"{where}.{key}" if where else key
            if key not in observed:
                out.append(f"{path}: missing")
            else:
                out += compare(observed[key], ref, rtol, path)
        return out
    if isinstance(frozen, list):
        if not isinstance(observed, list) or len(observed) != len(frozen):
            return [f"{where}: length differs from the frozen list"]
        return [m for i, (a, b) in enumerate(zip(observed, frozen)) for m in compare(a, b, rtol, f"{where}[{i}]")]
    if isinstance(frozen, float):
        ok = isinstance(observed, (int, float)) and abs(observed - frozen) <= rtol * max(abs(frozen), 1e-300)
        return [] if ok else [f"{where}: {observed!r} differs from frozen {frozen!r} beyond rtol {rtol}"]
    return [] if observed == frozen else [f"{where}: {observed!r} != frozen {frozen!r}"]


def _call(ops: list[Op], name: str, fn, *args, **kwargs) -> Op:
    """Run one operation; the loop must go on, so any exception is recorded
    as the operation's failure."""
    try:
        op = Op(name, fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - reported through Op.failed
        op = Op(name, None, f"{type(exc).__name__}: {exc}")
    ops.append(op)
    return op


def _verdict_failure(rep) -> str:
    """Non-converged level solves count as a failed operation."""
    run = rep.run
    if run.failures or not all(e.converged for e in run.entries):
        return f"levels {list(run.failures)} failed to converge"
    return ""


def _ray(d: int, p: float) -> RadialProblem:
    return RadialProblem(float(p), int(d), (0.0, math.inf), PotentialSpec.zero())


def _log_levels(count: int, c: float = 1.0) -> tuple:
    return tuple((-c * 2.0**k, c * 2.0**k) for k in range(1, count + 1))


def _scaled(ex: ExhaustionSchedule, c: float) -> ExhaustionSchedule:
    return ExhaustionSchedule(tuple((c * a, c * b) for a, b in ex.levels), c * ex.x0)


class Workload:
    """Inputs made from a seed, a timed ``execute`` and an untimed ``check``."""

    name: str
    RTOL: float  # relative tolerance of float outputs against frozen.json

    def warmup(self) -> None:
        """Untimed: lets lazy set-up finish before the first timed pass."""
        raise NotImplementedError

    def execute(self) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> Checked:
        raise NotImplementedError

    def verify(self, ops: list[Op], frozen: dict) -> Checked:
        """``check`` plus the comparison of the observed outputs with the
        frozen ones."""
        checked = self.check(ops)
        mismatches = compare(checked.observed, frozen, self.RTOL)
        if checked.failed:  # a failed operation has no output to compare
            mismatches = [m for m in mismatches if not m.endswith(": missing")]
        checked.incorrect += mismatches
        return checked


# ---------------------------------------------------------------------------
# eigen-p2
# ---------------------------------------------------------------------------

class EigenP2(Workload):
    name = "eigen-p2"
    # p = 2 thresholds are exact tridiagonal algebra: the scaling law holds
    # to ~1e-15, and ROADMAP item 4 must keep them within 1e-10
    RTOL = 1e-8
    # ground-state samples at x0 + c * s, criterion 05 checks flatness on [-1, 1]
    GS_POINTS = (-1.0, -0.5, 0.0, 0.5, 1.0)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.c = float(2.0 ** rng.uniform(0.0, 1.0))
        line = RadialProblem(2.0, 1, (-math.inf, math.inf), PotentialSpec.zero())
        ex_line = make_exhaustion(line, 15, base=1.0, growth=2.0, style="line")
        ray3 = _ray(3, 2.0)
        ex_ann = make_exhaustion(ray3, 9, base=1.0, growth=2.0, style="annuli")
        # (key, problem, exhaustion, resolution, frame, critical)
        self.cases = (
            ("d1-line", line, _scaled(ex_line, self.c), 801, "auto", True),
            ("d2-log", _ray(2, 2.0), ExhaustionSchedule(_log_levels(15, self.c), 0.0), 801, "log", True),
            ("d3-annuli", ray3, _scaled(ex_ann, self.c), 601, "auto", False),
        )

    def warmup(self) -> None:
        # the d = 3 verdict alone reaches every kernel of a pass in 0.2 s
        _, prob, ex, res, frame, _ = self.cases[-1]
        crit.criticality_verdict(prob, ex, resolution=res, frame=frame)

    def execute(self) -> list[Op]:
        ops: list[Op] = []
        for key, prob, ex, res, frame, critical in self.cases:
            _call(ops, f"{key}/verdict", crit.criticality_verdict, prob, ex, resolution=res, frame=frame)
            rep = ops[-1].value
            if rep is None:
                continue
            ops[-1].failed = _verdict_failure(rep)
            if critical and not ops[-1].failed:
                _call(ops, f"{key}/ground_state", crit.ground_state, prob, ex,
                      resolution=res, frame=frame, report=rep)
                _call(ops, f"{key}/null_sequence", crit.null_sequence, prob, ex,
                      resolution=res, frame=frame)
        return ops

    def check(self, ops: list[Op]) -> Checked:
        out = Checked(attempted=len(ops))
        by_name = {o.name: o for o in ops}
        scale = self.c**2  # t_N scales as c^-p with p = 2
        for key, prob, ex, _, _, critical in self.cases:
            op = by_name[f"{key}/verdict"]
            if op.failed:
                out.failed.append(f"{op.name}: {op.failed}")
                continue
            rep = op.value
            out.observed[key] = {"verdict": rep.verdict, "t": [t * scale for _, t in rep.thresholds]}
            if not critical:
                continue
            gs_op, ns_op = by_name[f"{key}/ground_state"], by_name[f"{key}/null_sequence"]
            for sub in (gs_op, ns_op):
                if sub.failed:
                    out.failed.append(f"{sub.name}: {sub.failed}")
            if not gs_op.failed:
                out.observed[key]["gs"] = [float(gs_op.value.at(ex.x0 + self.c * s)) for s in self.GS_POINTS]
            if not ns_op.failed:
                entries = ns_op.value.entries
                out.expect(
                    [e.t for e in entries] == [t for _, t in rep.thresholds],
                    f"{key}: null_sequence thresholds differ from the verdict's",
                )
                worst = max(
                    abs(e.energy - e.t / prob.p * e.weighted_mass) / max(1.0, abs(e.energy))
                    for e in entries
                )
                out.expect(worst <= IDENTITY_TOL, f"{key}: null-sequence identity off by {worst:.1e}")
        return out


# ---------------------------------------------------------------------------
# newton-p3
# ---------------------------------------------------------------------------

class NewtonP3(Workload):
    name = "newton-p3"
    # p != 2 thresholds come out of an inverse iteration stopped at
    # eigen_rtol = 1e-8; ROADMAP item 3 must keep them within 1e-6
    RTOL = 1e-6

    def __init__(self, seed: int, workdir: Path):
        d4 = _ray(4, 3.0)
        cases = [
            ("d4-annuli", d4, make_exhaustion(d4, 15, base=1.0, growth=2.0, style="annuli"), "auto"),
            ("d3-log", _ray(3, 3.0), ExhaustionSchedule(_log_levels(9), 0.0), "log"),
        ]
        order = np.random.default_rng([seed, 3]).permutation(len(cases))
        self.cases = tuple(cases[i] for i in order)

    def warmup(self) -> None:
        # the first pass's lazy set-up without a whole 10 s pass: the small
        # log-frame verdict and three annuli levels
        prob = _ray(4, 3.0)
        crit.criticality_verdict(prob, make_exhaustion(prob, 3, style="annuli"), resolution=601)
        crit.criticality_verdict(_ray(3, 3.0), ExhaustionSchedule(_log_levels(9), 0.0),
                                 resolution=601, frame="log")

    def execute(self) -> list[Op]:
        ops: list[Op] = []
        for key, prob, ex, frame in self.cases:
            _call(ops, f"{key}/verdict", crit.criticality_verdict, prob, ex, resolution=601, frame=frame)
            if ops[-1].value is not None:
                ops[-1].failed = _verdict_failure(ops[-1].value)
        return ops

    def check(self, ops: list[Op]) -> Checked:
        out = Checked(attempted=len(ops))
        for op in ops:
            key = op.name.split("/")[0]
            if op.failed:
                out.failed.append(f"{op.name}: {op.failed}")
                continue
            rep = op.value
            out.observed[key] = {"verdict": rep.verdict, "t": [t for _, t in rep.thresholds]}
            if rep.verdict == "subcritical":
                margin = rep.positivity_weight[1]
                out.expect(margin >= -1e-8, f"{key}: positivity margin {margin:.1e} < -1e-8")
        return out


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

# One config per command, sized so that no command dominates a pass (each
# takes 0.1-0.7 s of a 2.5 s pass on a 2-core x86 sandbox); p is mixed
# across commands.
CONFIGS = {
    "eig": """
        [problem]
        p = 3.0
        d = 3
        domain = 0 inf
        potential = constant 0.5
        [command]
        name = eig
        level = 0.5 4
        resolution = 1601
        """,
    "solve": """
        [problem]
        p = 1.5
        d = 3
        domain = 0 inf
        potential = constant 1
        [command]
        name = solve
        level = 0.25 8
        boundary = 0.5 1.0
        forcing = bump 1.5 0.3 2
        resolution = 4001
        """,
    "critical": """
        [problem]
        p = 3.0
        d = 3
        domain = 0 inf
        potential = zero
        [exhaustion]
        levels = -2 2; -4 4; -8 8; -16 16; -32 32; -64 64; -128 128; -256 256; -512 512
        x0 = 0
        [command]
        name = critical
        frame = log
        resolution = 1601
        """,
    "capacity": """
        [problem]
        p = 3.0
        d = 4
        domain = 0 inf
        potential = zero
        [command]
        name = capacity
        set = 0 1
        level = 0 64
        resolution = 4001
        """,
    "mingrowth": """
        [problem]
        p = 3.0
        d = 3
        domain = 0 inf
        potential = zero
        [exhaustion]
        style = balls
        count = 5
        base = 1.0
        growth = 2.0
        x0 = 1.5
        [command]
        name = mingrowth
        set = 0 1
        resolution = 801
        """,
    "certify": """
        [problem]
        p = 2.0
        d = 3
        domain = 0 inf
        potential = zero
        [exhaustion]
        levels = 0 16; 0 32; 0 64; 0 128; 0 256; 0 512; 0 1024; 0 2048
        x0 = 1
        [command]
        name = certify
        omega2 = 0 2
        window = 3 4
        candidate = power 1 -1
        resolution = 601
        """,
    "validate": """
        [problem]
        p = 2.0
        d = 1
        domain = 0 1
        potential = zero
        [command]
        name = validate
        """,
}

# results compared with frozen values; seed-independent by construction
FROZEN_RESULTS = {
    "eig": ("lambda",),
    "solve": ("energy",),
    "critical": ("verdict", "thresholds"),
    "capacity": ("value",),
    "mingrowth": ("levels_completed", "window_gaps"),
    "certify": ("verdict", "mus"),
    "validate": ("all_pass",),
}


def _read_csv(path: Path) -> tuple[str, np.ndarray]:
    lines = path.read_text().splitlines()
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return lines[0], np.array(rows)


class CliBatch(Workload):
    name = "cli-batch"
    RTOL = 1e-6  # the commands mix p = 2 algebra with p != 2 iterations

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir
        self.configs = {}
        cfg_dir = workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for cmd, text in CONFIGS.items():
            path = cfg_dir / f"{cmd}.ini"
            path.write_text("\n".join(ln.strip() for ln in text.strip().splitlines()) + "\n")
            self.configs[cmd] = path
        self._pass = 0

    def warmup(self) -> None:
        self.execute()
        shutil.rmtree(self._pass_dir(), ignore_errors=True)

    def _pass_dir(self) -> Path:
        return self.workdir / f"pass-{self._pass}"

    def execute(self) -> list[Op]:
        self._pass += 1
        ops: list[Op] = []
        for cmd, path in self.configs.items():
            out = self._pass_dir() / cmd
            argv = ["--config", str(path), "--seed", str(self.seed), "--out", str(out)]
            op = _call(ops, cmd, cli.main, argv)
            if not op.failed and op.value != 0:
                op.failed = f"exit status {op.value}"
        return ops

    def check(self, ops: list[Op]) -> Checked:
        out = Checked(attempted=len(ops))
        for op in ops:
            if op.failed:
                out.failed.append(f"{op.name}: {op.failed}")
                continue
            try:
                self._check_command(op.name, self._pass_dir() / op.name, out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                out.incorrect.append(f"{op.name}: unreadable output ({type(exc).__name__}: {exc})")
        shutil.rmtree(self._pass_dir(), ignore_errors=True)
        return out

    def _check_command(self, cmd: str, outdir: Path, out: Checked) -> None:
        report = json.loads((outdir / "report.json").read_text())
        res = report["results"]
        out.observed[cmd] = {k: res[k] for k in FROZEN_RESULTS[cmd]}
        out.expect(report["status"] == "ok" and report["command"] == cmd, f"{cmd}: report status/command")
        out.expect(report["seed"] == self.seed, f"{cmd}: report seed {report['seed']} != {self.seed}")
        csv = {}
        for name in report["files"]:
            header, rows = _read_csv(outdir / name)
            csv[name] = rows
            expected = "index,level_lo,level_hi," if name.endswith(("thresholds.csv", "mus.csv")) else "node,value"
            out.expect(header.startswith(expected), f"{cmd}: {name} header {header!r}")
        if cmd in ("eig", "solve", "capacity", "mingrowth"):
            rows = csv[f"{cmd}_profile.csv"]
            out.expect(np.all(np.isfinite(rows)) and np.all(rows[:, 1] >= 0), f"{cmd}: profile not finite and >= 0")
            if "resolution" in res:
                out.expect(len(rows) == res["resolution"], f"{cmd}: profile has {len(rows)} nodes")
        if cmd == "solve":
            out.expect(
                rows[0, 1] == 0.5 and rows[-1, 1] == 1.0, f"{cmd}: profile misses the boundary data"
            )
        if cmd == "capacity":
            out.expect(abs(rows[:, 1].max() - 1.0) <= 1e-10, f"{cmd}: capacity profile max is not 1")
        if cmd == "critical":
            rows = csv["critical_thresholds.csv"]
            out.expect(
                list(rows[:, 3]) == res["thresholds"] and len(rows) == res["levels_completed"],
                f"{cmd}: critical_thresholds.csv disagrees with report.json",
            )
            out.expect(
                ("critical_ground_state.csv" in csv) == (res["verdict"] == "critical"),
                f"{cmd}: ground-state file present iff critical",
            )
        if cmd == "certify":
            rows = csv["certify_mus.csv"]
            out.expect(list(rows[:, 3]) == res["mus"], f"{cmd}: certify_mus.csv disagrees with report.json")
            out.expect(max(abs(m - 1.0) for m in res["masses"]) <= 1e-10, f"{cmd}: masses not unit")
        if cmd == "validate":
            out.expect(res["all_pass"] and len(res["suites"]) == len(cli.VALIDATION_SUITES), "validate: a suite failed")
            out.expect(report["files"] == [], "validate: writes no files")


WORKLOADS = {w.name: w for w in (EigenP2, NewtonP3, CliBatch)}


def load_frozen() -> dict:
    return json.loads(FROZEN_PATH.read_text())
