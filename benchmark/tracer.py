"""Out-of-package tracing of pcrit's public functions and scipy kernels.

The tracer wraps functions from outside the package: it replaces every
binding of a target function in pcrit's modules (``energy.phi_p`` is also
bound as ``solver.phi_p``, ``criticality.phi_p`` ...) with one shared
wrapper, so a call is counted once whichever name it goes through.
Uninstalling puts every original binding back, so untraced passes run the
unmodified program.

Each wrapped call records a span (id, parent id, name, start, end) in
memory and adds to its name's statistics: calls, inclusive seconds and
self seconds.  Self time is the span's duration minus the time its child
spans cover; calls are strictly nested in this single-threaded program,
so the covered time is the sum of the children's durations.  Hooks read
the work counters that the program reports in its results (``SolveReport``
and ``EigenResult`` iterations) and the problem sizes handed to kernels.
"""
from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass

PCRIT_MODULES = ("model", "energy", "solver", "criticality", "mingrowth", "config", "cli")

# scipy.linalg kernels as pcrit.solver binds them
KERNELS = ("solve_banded", "solveh_banded", "eigh", "eigh_tridiagonal")


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


def eigh_flops(n: int) -> float:
    """Computed flop count of a dense symmetric eigendecomposition with all
    eigenvectors: 4n^3/3 for the reduction to tridiagonal form plus 2n^3
    for the back-transformation (the tridiagonal solve is O(n^2))."""
    return 10.0 * n**3 / 3.0


class Tracer:
    """Span recorder and counter store; one per traced pass."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def wrap(self, name: str, fn, hook=None):
        """Wrapper that records a span named ``name`` around each call of fn
        and then hands (tracer, name, args, kwargs, result) to hook."""
        self.stats.setdefault(name, Stat())
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                dur = t1 - t0
                st = self.stats[name]
                st.calls += 1
                st.s += dur
                st.self_s += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans.append((span_id, parent, name, t0, t1))
            if hook is not None:
                hook(self, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets, namespaces) -> None:
        """Wrap each (name, function, hook) target once and rebind every
        attribute of every namespace that holds the original function."""
        for name, fn, hook in targets:
            wrapper = self.wrap(name, fn, hook)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._patches.append((ns, attr, value))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, value = self._patches.pop()
            setattr(ns, attr, value)

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV, one line per span."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, t0, t1 in sorted(self.spans):
                fh.write(f"{span_id},{parent},{name},{t0!r},{t1!r}\n")


# ---------------------------------------------------------------------------
# hooks reading the program's own work counters
# ---------------------------------------------------------------------------

def _result_hook(tracer: Tracer, name: str, args, kwargs, result) -> None:
    kind = type(result).__name__
    if kind == "SolveReport":
        tracer.add(f"{name}.newton_iters", result.iterations)
        tracer.add(f"{name}.unconverged", 0 if result.converged else 1)
    elif kind == "EigenResult":
        tracer.add(f"{name}.outer_iters", result.iterations)
        tracer.add(f"{name}.unconverged", 0 if result.converged else 1)


def _eigh_hook(tracer: Tracer, name: str, args, kwargs, result) -> None:
    a = args[0] if args else kwargs["a"]
    n = int(a.shape[0])
    tracer.peak(f"{name}.order_max", n)
    tracer.add(f"{name}.flops_computed", eigh_flops(n))


def pcrit_targets(pcrit):
    """(name, function, hook) for every public function of pcrit's modules,
    ``PotentialSpec.sample``, and the scipy kernels bound in pcrit.solver;
    plus the namespaces whose bindings the tracer must replace."""
    mods = {short: importlib.import_module(f"{pcrit.__name__}.{short}") for short in PCRIT_MODULES}
    targets = []
    for short, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                targets.append((f"{short}.{attr}", obj, _result_hook))
    spec = mods["model"].PotentialSpec
    targets.append(("model.PotentialSpec.sample", spec.sample, None))
    for attr in KERNELS:
        hook = _eigh_hook if attr == "eigh" else None
        targets.append((f"kernel.{attr}", getattr(mods["solver"], attr), hook))
    namespaces = [pcrit, *mods.values(), spec]
    return targets, namespaces
