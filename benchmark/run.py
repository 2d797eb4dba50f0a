#!/usr/bin/env python3
"""pcrit benchmark: one closed-loop client in one process.

    python3 benchmark/run.py --workload eigen-p2 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src`` directory and nowhere else.  With ``--trace 0`` it
times passes of the workload for ``--seconds`` and prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics.  Every pass's outputs are checked.  The last
line of standard output is the result object; the line before it holds
the details (quartiles, sample counts, failures, BLAS build).  See
README.md next to this file.
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy can load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"  # scratch inputs and CLI outputs, removed at exit
OUT_DIR = ROOT / ".bench_out"  # span files of traced runs

MIN_PASSES = 5  # timed passes per run, whatever --seconds says
MIN_TRACED_PAIRS = 2  # untraced + traced pass pairs per traced run
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "pass_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# per-layer metrics; "<traced name>.<stat>" where stat is calls, s, self_s
# or a counter the tracer's hooks record
PER_LAYER = {
    "energy.phi_p.calls": "count",
    "energy.phi_p.self_s": "s",
    "kernel.solve_banded.calls": "count",
    "kernel.solve_banded.s": "s",
    "solver.solve_dirichlet.newton_iters": "count",
    "solver.solve_dirichlet.unconverged": "count",
    "solver.residual_per_newton": "calls/solve",
    "kernel.eigh.calls": "count",
    "kernel.eigh.s": "s",
    "kernel.eigh.order_max": "rows",
    "kernel.eigh.flops_computed": "flop",
    "kernel.solveh_banded.calls": "count",
    "kernel.solveh_banded.s": "s",
    "kernel.eigh_tridiagonal.calls": "count",
    "kernel.eigh_tridiagonal.s": "s",
    "solver.smallest_generalized_eigen.calls": "count",
    "solver.smallest_generalized_eigen.s": "s",
    "model.PotentialSpec.sample.calls": "count",
    "model.PotentialSpec.sample.self_s": "s",
    "model.build_grid.calls": "count",
    "model.build_grid.self_s": "s",
    "solver.weak_residual.calls": "count",
    "solver.weak_residual.self_s": "s",
    "solver.principal_eigenpair.calls": "count",
    "solver.principal_eigenpair.outer_iters": "count",
    "solver.wcp_check.calls": "count",
    "solver.wcp_check.s": "s",
    "config.parse_config.s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "criticality.criticality_verdict.s": "s",
    "criticality.ground_state.s": "s",
    "criticality.null_sequence.s": "s",
    "criticality.positivity_weight.s": "s",
    "criticality.q_capacity.s": "s",
    "mingrowth.uK_limit.s": "s",
    "mingrowth.minimal_growth_certificate.s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_program():
    """Import pcrit from this checkout's src directory, and only from there."""
    if not (SRC / "pcrit" / "__init__.py").is_file():
        raise BenchError(f"no pcrit package under {SRC}")
    sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    try:
        import pcrit
    except ImportError as exc:
        raise BenchError(f"cannot import pcrit from {SRC}: {exc}") from exc
    if Path(pcrit.__file__).resolve().parent != SRC / "pcrit":
        raise BenchError(f"pcrit was imported from {pcrit.__file__}, not {SRC}")
    return pcrit


def setup_only(name: str, seed: str, workdir: str) -> None:
    """What a fresh process does before its first pass: imports and inputs."""
    import_program()
    import workloads

    workloads.WORKLOADS[name](int(seed), Path(workdir))


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Wall seconds from spawning a fresh interpreter to the end of its
    set-up, once per probe, run one after another."""
    code = f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; run.setup_only(*sys.argv[1:4])"
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"setup-{k}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, name, str(seed), str(probe_dir)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.decode(errors='replace').strip()}")
    return times


def summary(values: list[float]) -> dict:
    """Median with quartiles and the sample count behind them."""
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "min": values[0], "max": values[-1]}


def blas_info() -> list[dict]:
    """Each OpenBLAS loaded in this process with the build and the thread
    count it reports (numpy and scipy carry one each)."""
    out = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return out
    for path in paths:
        entry = {"library": Path(path).name}
        lib = ctypes.CDLL(path)
        for key, names, restype in (
            ("threads", ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int),
            ("config", ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                        "openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p),
        ):
            for sym in names:
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = restype
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
                    break
        out.append(entry)
    return out


def another_pass(durations: list[float], start: float, seconds: float, minimum: int) -> bool:
    """Start another pass while the minimum is not reached or the next one,
    predicted to take the median so far, ends within the measured window."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Runner:
    """Times passes of one workload and accumulates their check results."""

    def __init__(self, workload, frozen: dict, seconds: float):
        self.workload = workload
        self.frozen = frozen
        self.seconds = seconds
        self.attempted = 0
        self.failed: list[str] = []
        self.incorrect: list[str] = []
        self.fingerprint = None

    def timed_pass(self) -> tuple[float, float]:
        """One pass: (wall s, process CPU s); outputs checked afterwards."""
        t0, c0 = time.perf_counter(), time.process_time()
        ops = self.workload.execute()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        checked = self.workload.verify(ops, self.frozen)
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.incorrect += checked.incorrect
        # every pass on one seed must reproduce the first pass's outputs
        if self.fingerprint is None:
            self.fingerprint = checked.observed
        elif checked.observed != self.fingerprint:
            self.incorrect.append("outputs differ from the first pass on the same seed")
        return wall, cpu

    def result(self, metrics: dict, detail: dict) -> tuple[dict, dict]:
        detail.update(
            attempted=self.attempted,
            failed=len(self.failed),
            incorrect=len(self.incorrect),
            failures=self.failed[:20],
            incorrect_outputs=self.incorrect[:20],
            outputs_digest=digest(self.fingerprint),
            blas=blas_info(),
            python=sys.version.split()[0],
        )
        res = {
            "correct": not self.incorrect,
            "attempted": self.attempted,
            "failed": len(self.failed),
            "metrics": metrics,
        }
        return res, detail


def run_untraced(runner: Runner, setup: list[float]) -> tuple[dict, dict]:
    runner.workload.warmup()
    walls, cpus = [], []
    start = time.perf_counter()
    while another_pass(walls, start, runner.seconds, MIN_PASSES):
        wall, cpu = runner.timed_pass()
        walls.append(wall)
        cpus.append(cpu)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = {"pass_s": summary(walls), "cpu_s": summary(cpus), "setup_s": summary(setup)}
    metrics = {k: {"value": stats[k]["median"], "unit": END_TO_END[k]} for k in stats}
    metrics["peak_rss_mb"] = {"value": rss_mib, "unit": END_TO_END["peak_rss_mb"]}
    detail = {"stats": stats, "wait_s_median": stats["pass_s"]["median"] - stats["cpu_s"]["median"]}
    return runner.result(metrics, detail)


def layer_values(tracer) -> dict:
    """Flatten one traced pass into '<name>.<stat>' values."""
    vals = {}
    for name, st in tracer.stats.items():
        vals[f"{name}.calls"] = st.calls
        vals[f"{name}.s"] = st.s
        vals[f"{name}.self_s"] = st.self_s
    vals.update(tracer.counters)
    solves = vals.get("kernel.solve_banded.calls", 0)
    vals["solver.residual_per_newton"] = vals.get("energy.phi_p.calls", 0) / solves if solves else 0.0
    return vals


def is_time(key: str) -> bool:
    return key.endswith((".s", "_s"))


def run_traced(runner: Runner, pcrit, seed: int) -> tuple[dict, dict]:
    import tracer as tracing

    targets, namespaces = tracing.pcrit_targets(pcrit)
    runner.workload.warmup()
    plain, traced, passes = [], [], []
    tr = None
    start = time.perf_counter()
    while another_pass([a + b for a, b in zip(plain, traced)], start, runner.seconds, MIN_TRACED_PAIRS):
        plain.append(runner.timed_pass()[0])
        tr = tracing.Tracer()
        tr.install(targets, namespaces)
        try:
            traced.append(runner.timed_pass()[0])
        finally:
            tr.uninstall()
        passes.append(layer_values(tr))

    counts = [{k: v for k, v in p.items() if not is_time(k)} for p in passes]
    deterministic = all(c == counts[0] for c in counts[1:])
    if not deterministic:
        runner.incorrect.append("work counters differ between traced passes on the same seed")
    stats = {}
    for key in sorted(set().union(*passes)):
        series = [p.get(key, 0.0) for p in passes]
        stats[key] = summary(series) if is_time(key) else series[0]
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = {}
    for key, unit in PER_LAYER.items():
        if key == "trace.overhead_s":
            value = overhead
        else:
            value = stats.get(key, 0)
            value = value["median"] if isinstance(value, dict) else value
        metrics[key] = {"value": value, "unit": unit}

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{runner.workload.name}-seed{seed}.csv"
    tr.write_spans(span_file)
    detail = {
        "untraced_pass_s": summary(plain),
        "traced_pass_s": summary(traced),
        "trace_overhead_s": overhead,
        "determinism": {
            "traced_passes_compared": len(passes),
            "identical_counters": deterministic,
            "counters_digest": digest(counts[0]),
        },
        "solver.residual_per_newton_base": {"kernel.solve_banded.calls": stats.get("kernel.solve_banded.calls", 0)},
        "layers": stats,
        "spans_file": str(span_file.relative_to(ROOT)),
    }
    return runner.result(metrics, detail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pcrit = import_program()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r} (one of {', '.join(workloads.WORKLOADS)})")
        WORK_DIR.mkdir(exist_ok=True)
        workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
        try:
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            runner = Runner(workload, workloads.load_frozen()[args.workload], args.seconds)
            if args.trace:
                res, detail = run_traced(runner, pcrit, args.seed)
            else:
                setup = measure_setup(args.workload, args.seed, workdir)
                res, detail = run_untraced(runner, setup)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
