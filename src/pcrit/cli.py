"""Batch front end.

One config file, one command, deterministic outputs: profiles as CSV
(17 significant digits, so identical runs are byte-identical), everything
else in a JSON report that embeds the config's sha256 and the tolerances
in effect.  The report is strict JSON: a non-finite float, such as an
unbounded domain's end, is written as the string "inf", "-inf" or "nan".
Exit status: 0 success, 1 config or precondition failure, 2 solver
non-convergence.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .criticality import criticality_verdict, ground_state, q_capacity
from .energy import (
    energy_Q,
    picone_density,
    vector_inequality_envelope,
)
from .errors import PcritError, StateError
from .mingrowth import minimal_growth_certificate, uK_limit
from .model import (
    CompactSetSpec,
    ExhaustionSchedule,
    Field,
    PotentialSpec,
    RadialProblem,
    build_grid,
    make_field,
)
from .solver import (
    SolverConfig,
    principal_eigenpair,
    solve_dirichlet,
    wcp_check,
)

__all__ = ["main", "run", "VALIDATION_SUITES"]


def _write_csv(path: Path, header: str, rows) -> str:
    return _write_values(path, header, [x for row in rows for x in row])


def _write_values(path: Path, header: str, values: list) -> str:
    """Write the row-major values under the header, one %.17g field each."""
    cols = header.count(",") + 1
    body = (",".join(["%.17g"] * cols) + "\n") * (len(values) // cols) % tuple(values)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(header + "\n" + body)
    return path.name


def _write_profile(path: Path, field: Field) -> str:
    # one flat list of Python floats, without a tuple per row
    values = np.column_stack((field.grid.nodes, field.values)).ravel().tolist()
    return _write_values(path, "node,value", values)


# ---------------------------------------------------------------------------
# command handlers: each returns (results dict, csv file names, exit status)
# ---------------------------------------------------------------------------

def _cmd_eig(cfg: RunConfig, sc: SolverConfig, out: Path):
    level = cfg.interval("level")
    resolution = cfg.integer("resolution", 801)
    grid = build_grid(cfg.problem, level, resolution)
    res = principal_eigenpair(cfg.problem, grid, sc)
    files = [_write_profile(out / "eig_profile.csv", res.eigenfunction)]
    results = {
        "lambda": res.lam,
        "level": list(level),
        "resolution": resolution,
        "iterations": res.iterations,
        "converged": res.converged,
        "shift": res.shift,
    }
    return results, files, (0 if res.converged else 2)


def _cmd_solve(cfg: RunConfig, sc: SolverConfig, out: Path):
    level = cfg.interval("level")
    resolution = cfg.integer("resolution", 801)
    boundary = cfg.boundary()
    grid = build_grid(cfg.problem, level, resolution)
    f = None
    if "forcing" in cfg.params:
        f = make_field(grid, cfg.potential("forcing").sample(grid.nodes))
    rep = solve_dirichlet(cfg.problem, grid, boundary, f=f, config=sc)
    files = [_write_profile(out / "solve_profile.csv", rep.solution)]
    results = {
        "level": list(level),
        "resolution": resolution,
        "iterations": rep.iterations,
        "final_residual_norm": rep.final_residual_norm,
        "converged": rep.converged,
        "energy": energy_Q(rep.solution, cfg.problem, free_boundary=True).total,
    }
    return results, files, (0 if rep.converged else 2)


def _cmd_critical(cfg: RunConfig, sc: SolverConfig, out: Path):
    params = cfg.params
    if cfg.exhaustion is None:
        raise ConfigError("[command] critical needs an [exhaustion] block")
    resolution = cfg.integer("resolution", 801)
    frame = params.get("frame", "auto")
    eps_crit = cfg.positive("eps_crit", 1e-4)
    plateau_rtol = cfg.positive("plateau_rtol", 0.01)
    weight = cfg.potential("weight") if "weight" in params else None
    report = criticality_verdict(
        cfg.problem,
        cfg.exhaustion,
        weight=weight,
        resolution=resolution,
        eps_crit=eps_crit,
        plateau_rtol=plateau_rtol,
        config=sc,
        frame=frame,
    )
    files = [
        _write_csv(
            out / "critical_thresholds.csv",
            "index,level_lo,level_hi,threshold",
            (
                (idx, lv[0], lv[1], t)
                for (idx, t), lv in zip(report.thresholds, report.levels)
            ),
        )
    ]
    results = {
        "verdict": report.verdict,
        "t_star_estimate": report.t_star_estimate,
        "coordinates": report.coordinates,
        "levels_completed": len(report.thresholds),
        "thresholds": [t for _, t in report.thresholds],
    }
    if report.verdict == "critical":
        gs = ground_state(
            cfg.problem, cfg.exhaustion, resolution=resolution, config=sc, report=report
        )
        files.append(_write_profile(out / "critical_ground_state.csv", gs))
    elif report.verdict == "subcritical":
        cert = report.certificate
        results["positivity_margin"] = cert.margin
        results["positivity_margins"] = list(cert.margins)
        results["positivity_uncertified"] = list(cert.uncertified)
    return results, files, 0


def _cmd_capacity(cfg: RunConfig, sc: SolverConfig, out: Path):
    k_lo, k_hi = cfg.interval("set")
    level = cfg.interval("level")
    resolution = cfg.integer("resolution", 1201)
    compact = CompactSetSpec(k_lo, k_hi)
    rep = q_capacity(cfg.problem, compact, level, resolution=resolution, config=sc)
    files = [_write_profile(out / "capacity_profile.csv", rep.minimizer)]
    results = {
        "value": rep.value,
        "set": [k_lo, k_hi],
        "level": list(level),
        "iterations": rep.iterations,
        "min_multiplier": rep.min_multiplier,
        "max_off_residual": rep.max_off_residual,
        "converged": rep.converged,
    }
    return results, files, (0 if rep.converged else 2)


def _cmd_mingrowth(cfg: RunConfig, sc: SolverConfig, out: Path):
    if cfg.exhaustion is None:
        raise ConfigError("[command] mingrowth needs an [exhaustion] block")
    k_lo, k_hi = cfg.interval("set")
    trace = cfg.interval("trace") if "trace" in cfg.params else (1.0, 1.0)
    resolution = cfg.integer("resolution", 601)
    cauchy_tol = cfg.positive("cauchy_tol", 1e-5)
    run_res = uK_limit(
        cfg.problem,
        CompactSetSpec(k_lo, k_hi),
        trace,
        cfg.exhaustion,
        resolution=resolution,
        cauchy_tol=cauchy_tol,
        config=sc,
    )
    files = [_write_profile(out / "mingrowth_profile.csv", run_res.limit)]
    results = {
        "set": [k_lo, k_hi],
        "trace": list(run_res.trace),
        "levels_completed": len(run_res.fields),
        "monotonicity_log": list(run_res.monotonicity_log),
        "window": list(run_res.window),
        "window_gaps": list(run_res.window_gaps),
        "cauchy_converged": run_res.converged,
        "lambda_1_lower": run_res.lambda_1_lower,
    }
    status = 0 if len(run_res.fields) == len(cfg.exhaustion.levels) else 2
    return results, files, status


def _cmd_certify(cfg: RunConfig, sc: SolverConfig, out: Path):
    if cfg.exhaustion is None:
        raise ConfigError("[command] certify needs an [exhaustion] block")
    o_lo, o_hi = cfg.interval("omega2")
    window = cfg.interval("window")
    resolution = cfg.integer("resolution", 601)
    b_last = max(b for _, b in cfg.exhaustion.levels)
    lo = o_hi * 1e-3 if o_hi > 0 else 1e-3
    master = build_grid(cfg.problem, (max(lo, cfg.problem.domain[0]), b_last), 4001)
    u = make_field(master, cfg.potential("candidate").sample(master.nodes))
    cert = minimal_growth_certificate(
        cfg.problem,
        u,
        CompactSetSpec(o_lo, o_hi),
        window,
        cfg.exhaustion,
        resolution=resolution,
    )
    files = [
        _write_csv(
            out / "certify_mus.csv",
            "index,level_lo,level_hi,mu",
            ((i, lv[0], lv[1], mu) for i, (lv, mu) in enumerate(zip(cert.levels, cert.mus))),
        )
    ]
    results = {
        "verdict": cert.verdict,
        "omega2": [o_lo, o_hi],
        "window": list(cert.window),
        "mus": list(cert.mus),
        "masses": list(cert.masses),
    }
    return results, files, 0


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------

def _suite_vector_inequality(rng: np.random.Generator, sc: SolverConfig):
    details = []
    ok = True
    for p in (1.5, 2.0, 3.0):
        env = vector_inequality_envelope(p, 20_000, rng)
        finite_positive = env.c_min > 0.0 and np.isfinite(env.c_max)
        if p == 2.0:
            finite_positive &= abs(env.c_min - 1.0) <= 1e-12 and abs(env.c_max - 1.0) <= 1e-12
        ok &= finite_positive
        details.append(f"p={p}: ratio in [{env.c_min:.6g}, {env.c_max:.6g}]")
    return ok, "; ".join(details)


def _random_nonneg_compact(rng: np.random.Generator, grid) -> Field:
    t = (grid.nodes - grid.nodes[0]) / (grid.nodes[-1] - grid.nodes[0])
    mix = np.zeros(grid.n)
    for k in range(1, 4):
        mix += rng.uniform(-1.0, 1.0) * np.sin(np.pi * k * t)
    vals = mix**2 * np.sin(np.pi * t)
    return make_field(grid, vals)


def _suite_picone(rng: np.random.Generator, sc: SolverConfig):
    ok = True
    details = []
    for p in (2.0, 3.0):
        prob = RadialProblem(
            p=p, d=3, domain=(0.0, float("inf")), potential=PotentialSpec.constant(0.5)
        )
        grid = build_grid(prob, (1.0, 2.0), 601)
        # unforced positive solve, so Q(u) and the integrated density agree
        # up to discretization
        rep = solve_dirichlet(prob, grid, (1.0, 0.5), config=sc)
        if not rep.converged or np.any(rep.solution.values <= 0):
            return False, f"p={p}: reference solve failed"
        v = rep.solution
        worst_density = 0.0
        worst_gap = 0.0
        for _ in range(25):
            u = _random_nonneg_compact(rng, grid)
            lag = picone_density(u, v, prob)
            scale = max(float(np.max(np.abs(lag.cell_values))), 1e-30)
            worst_density = max(worst_density, -float(np.min(lag.cell_values)) / scale)
            q = energy_Q(u, prob).total
            worst_gap = max(worst_gap, abs(q - lag.total) / (1.0 + abs(q)))
        ok &= worst_density <= 1e-12 and worst_gap <= 1e-4
        details.append(f"p={p}: min density {-worst_density:.2e}, identity defect {worst_gap:.2e}")
    return ok, "; ".join(details)


def _suite_eigen_shift(rng: np.random.Generator, sc: SolverConfig):
    ok = True
    details = []
    for p in (2.0, 3.0):
        c = float(rng.uniform(0.5, 2.0))
        base = RadialProblem(
            p=p, d=1, domain=(0.0, 1.0), potential=PotentialSpec.zero()
        )
        shifted = RadialProblem(
            p=p, d=1, domain=(0.0, 1.0), potential=PotentialSpec.constant(c)
        )
        grid = build_grid(base, (0.0, 1.0), 401)
        lam0 = principal_eigenpair(base, grid, sc).lam
        lam1 = principal_eigenpair(shifted, grid, sc).lam
        defect = abs(lam1 - (lam0 + c)) / (1.0 + abs(lam0))
        ok &= defect <= 1e-5
        details.append(f"p={p}: shift defect {defect:.2e}")
    return ok, "; ".join(details)


def _suite_wcp(rng: np.random.Generator, sc: SolverConfig):
    ok = True
    worst = 0.0
    count = 0
    for p in (2.0, 3.0):
        prob = RadialProblem(
            p=p, d=3, domain=(0.0, float("inf")), potential=PotentialSpec.constant(1.0)
        )
        grid = build_grid(prob, (1.0, 2.0), 301)
        lambda_1 = None  # the first pair's check certifies it for the rest
        for _ in range(10):
            h1 = float(rng.uniform(0.1, 0.5))
            h2 = h1 + float(rng.uniform(0.1, 0.5))
            b1 = sorted(rng.uniform(0.2, 0.6, size=2))
            b2 = [b1[0] + rng.uniform(0.0, 0.4), b1[1] + rng.uniform(0.0, 0.4)]
            spec = PotentialSpec.bump(1.5, 0.3, 1.0)
            f1 = make_field(grid, h1 * spec.sample(grid.nodes))
            f2 = make_field(grid, h2 * spec.sample(grid.nodes))
            r1 = solve_dirichlet(prob, grid, (b1[0], b1[1]), f=f1, config=sc)
            r2 = solve_dirichlet(prob, grid, (b2[0], b2[1]), f=f2, config=sc)
            if not (r1.converged and r2.converged):
                return False, "wcp reference solve failed"
            # hypothesis gate above the p != 2 solver residual tolerance
            res = wcp_check(
                r1.solution, r2.solution, prob, hypothesis_tol=1e-7, lambda_1=lambda_1,
                config=sc,
            )
            lambda_1 = res.lambda_1
            ok &= res.ok
            worst = max(worst, res.max_violation)
            count += 1
    return ok, f"{count} ordered pairs, max violation {worst:.2e}"


def _suite_uk_monotone(rng: np.random.Generator, sc: SolverConfig):
    prob = RadialProblem(p=2.0, d=3, domain=(0.0, float("inf")), potential=PotentialSpec.zero())
    levels = tuple((0.0, 2.0**k) for k in range(1, 6))
    run_res = uK_limit(
        prob,
        CompactSetSpec(0.0, 1.0),
        (1.0, 1.0),
        ExhaustionSchedule(levels, x0=1.5),
        resolution=301,
        config=sc,
    )
    worst = max(run_res.monotonicity_log) if run_res.monotonicity_log else 0.0
    ok = worst <= 1e-8 and run_res.lambda_1_lower > 0
    return ok, f"max monotonicity violation {worst:.2e} over {len(run_res.fields)} levels"


def _suite_certificate_mass(rng: np.random.Generator, sc: SolverConfig):
    prob = RadialProblem(p=2.0, d=3, domain=(0.0, float("inf")), potential=PotentialSpec.zero())
    master = build_grid(prob, (1e-2, 2.0**7), 2001)
    u = make_field(master, 1.0 / master.nodes)
    levels = tuple((0.0, 2.0**k) for k in range(4, 8))
    cert = minimal_growth_certificate(
        prob, u, CompactSetSpec(0.0, 2.0), (3.0, 4.0),
        ExhaustionSchedule(levels, x0=1.0), resolution=301,
    )
    mass_dev = max(abs(m - 1.0) for m in cert.masses)
    decreasing = all(b < a for a, b in zip(cert.mus, cert.mus[1:]))
    ok = mass_dev <= 1e-10 and decreasing and all(m >= 0 for m in cert.mus)
    return ok, f"mass deviation {mass_dev:.2e}, mus decreasing: {decreasing}"


VALIDATION_SUITES = {
    "vector-inequality-envelope": _suite_vector_inequality,
    "picone-density-nonnegative": _suite_picone,
    "eigenvalue-shift-consistency": _suite_eigen_shift,
    "weak-comparison-battery": _suite_wcp,
    "exhaustion-limit-monotonicity": _suite_uk_monotone,
    "certificate-unit-mass": _suite_certificate_mass,
}


def _cmd_validate(cfg: RunConfig, sc: SolverConfig, out: Path):
    suites = {}
    all_ok = True
    for idx, (name, fn) in enumerate(VALIDATION_SUITES.items()):
        rng = np.random.default_rng([cfg.seed, idx])
        ok, detail = fn(rng, sc)
        suites[name] = {"pass": bool(ok), "detail": detail}
        all_ok &= ok
    results = {"suites": suites, "all_pass": bool(all_ok), "seed": cfg.seed}
    return results, [], 0


_HANDLERS = {
    "eig": _cmd_eig,
    "solve": _cmd_solve,
    "critical": _cmd_critical,
    "capacity": _cmd_capacity,
    "mingrowth": _cmd_mingrowth,
    "certify": _cmd_certify,
    "validate": _cmd_validate,
}


def _strict_json(obj):
    """obj with every non-finite float written as the string "inf", "-inf"
    or "nan", which JSON has no number for."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(float(obj))
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    return obj


def run(cfg: RunConfig) -> int:
    """Dispatch a parsed config; write the report; return the exit status."""
    sc = cfg.solver
    out = cfg.out_dir
    # out is made only when written to, so a refused config leaves no output
    if out.exists() and not out.is_dir():
        raise NotADirectoryError(f"output path {out} is not a directory")
    results, files, status = _HANDLERS[cfg.command](cfg, sc, out)
    tol_record = {**asdict(sc), "residual_tol": sc.tol_for(cfg.problem.p)}
    report = {
        "tool": f"pcrit {__version__}",
        "command": cfg.command,
        "config_sha256": cfg.config_sha256,
        "config_path": str(cfg.source_path),
        "seed": cfg.seed,
        "problem": {
            "p": cfg.problem.p,
            "d": cfg.problem.d,
            "domain": list(cfg.problem.domain),
            "potential": cfg.problem.potential.describe(),
        },
        "tolerances": tol_record,
        "results": results,
        "files": files,
        "status": "ok" if status == 0 else "non-convergence",
    }
    out.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_strict_json(report), indent=2, sort_keys=True, allow_nan=False)
    (out / "report.json").write_text(text + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pcrit",
        description="Criticality analysis for the radial p-Laplacian with potential.",
    )
    parser.add_argument("--config", required=True, help="path to an INI run config")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized suites")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--tol", type=float, default=None, help="solver residual tolerance override")
    parser.add_argument("--levels", type=int, default=None, help="exhaustion level count override")
    parser.add_argument("--version", action="version", version=f"pcrit {__version__}")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(
            args.config,
            seed=args.seed,
            out_override=args.out,
            tol_override=args.tol,
            levels_override=args.levels,
        )
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    try:
        return run(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except StateError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 2
    except (PcritError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
