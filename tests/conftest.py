"""Shared fixtures: random smooth compactly supported fields, the work of
the Q >= 0 rule, and the acceptance-criterion reporter."""

from __future__ import annotations

import numpy as np
import pytest

from pcrit import Field, make_field, solver

ACCEPTANCE_LINES: list[tuple[int, str]] = []


def random_compact_values(
    t: np.ndarray, rng: np.random.Generator, modes: int = 3, nonneg: bool = True
) -> np.ndarray:
    """Smooth values on [0, 1]-normalized coordinates, zero at both ends.

    A low-mode sine mixture under a sin(pi t) envelope; squaring makes it
    nonnegative without losing smoothness.
    """
    mix = np.zeros_like(t)
    for k in range(1, modes + 1):
        mix += rng.uniform(-1.0, 1.0) * np.sin(np.pi * k * t)
    if nonneg:
        return mix**2 * np.sin(np.pi * t)
    return mix * np.sin(np.pi * t)


def random_compact_field(
    grid,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    modes: int = 3,
    nonneg: bool = True,
    margin: float = 0.0,
) -> Field:
    """Random smooth field on the grid, compactly supported inside it.

    margin > 0 shrinks the support to the inner fraction of the interval so
    the field also vanishes on a neighborhood of the boundary.
    """
    a, b = grid.interval
    if margin > 0.0:
        a = a + margin * (b - a)
        b = b - margin * (b - a)
    t = (grid.nodes - a) / (b - a)
    vals = np.where((t > 0.0) & (t < 1.0), random_compact_values(np.clip(t, 0.0, 1.0), rng, modes, nonneg), 0.0)
    return make_field(grid, amplitude * vals)


@pytest.fixture
def nonnegativity_work(monkeypatch):
    """(factorizations, eigensolves), filled as the program runs: whether
    each dpttrf call made outside smallest_generalized_eigen factored, and
    the operator of each DiscreteOperator.eigenpair call."""
    factors, eigensolves, inside = [], [], []
    eigen, factor = solver.smallest_generalized_eigen, solver.dpttrf
    eigenpair = solver.DiscreteOperator.eigenpair

    def counted_eigen(*args):
        inside.append(True)
        try:
            return eigen(*args)
        finally:
            inside.pop()

    def counted_factor(*args):
        out = factor(*args)
        if not inside:
            factors.append(out[2] == 0)
        return out

    def recorded_eigenpair(op, config):
        eigensolves.append(op)
        return eigenpair(op, config)

    monkeypatch.setattr(solver, "smallest_generalized_eigen", counted_eigen)
    monkeypatch.setattr(solver, "dpttrf", counted_factor)
    monkeypatch.setattr(solver.DiscreteOperator, "eigenpair", recorded_eigenpair)
    return factors, eigensolves


@pytest.fixture(scope="session")
def criterion():
    """Recorder for acceptance-criterion verdict lines.

    Returns a function (number, ok, detail) that stores one line for the
    terminal summary and raises on failure.
    """

    def record(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
        ACCEPTANCE_LINES.append((num, line))
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
