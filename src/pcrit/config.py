"""INI run configurations for the batch front end.

A config names one problem, optionally an exhaustion schedule, exactly one
command with its parameters, an output directory, and tolerance overrides:

    [problem]
    p = 2.0
    d = 3
    domain = 0 inf
    potential = zero

    [exhaustion]
    style = balls
    count = 9
    base = 2.0
    growth = 2.0
    x0 = 1.0

    [command]
    name = critical
    resolution = 801

    [tolerances]
    residual_tol = 1e-10

    [output]
    dir = out

[tolerances] keys are SolverConfig field names; integer fields take
integers, and residual_tol and eigen_rtol lie in (0, 1).

Potentials are written as "zero", "constant <c>", "power <c> <s>" (c * |r|^s),
"bump <center> <radius> <height>", or a sum of those joined with " + ".
Intervals are two whitespace-separated numbers; "inf" and "-inf" are allowed
where the model allows them.
"""
from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import DomainError, PcritError
from .model import ExhaustionSchedule, PotentialSpec, RadialProblem, make_exhaustion
from .solver import DEFAULT_CONFIG, SolverConfig

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_potential", "COMMANDS"]

COMMANDS = ("eig", "solve", "critical", "capacity", "mingrowth", "certify", "validate")

# ceilings on the sizes a config asks for, checked while parsing so that no
# request reaches an allocation it cannot get
MAX_RESOLUTION = 1_000_000
MAX_LEVELS = 1_000


class ConfigError(PcritError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """A parsed run: ``params`` holds the raw [command] values, which the
    typed getters below parse; ``solver`` carries the [tolerances]
    overrides."""

    problem: RadialProblem
    exhaustion: ExhaustionSchedule | None
    command: str
    params: dict
    out_dir: Path
    config_sha256: str
    source_path: Path
    seed: int
    solver: SolverConfig

    def interval(self, key: str) -> tuple[float, float]:
        if key not in self.params:
            raise ConfigError(f"[command] missing {key!r}")
        return _parse_interval(self.params[key], f"[command] {key}")

    def number(self, key: str, default: float) -> float:
        if key not in self.params:
            return default
        return _parse_number(self.params[key], f"[command] {key}")

    def integer(self, key: str, default: int) -> int:
        if key not in self.params:
            return default
        return _parse_int(self.params[key], f"[command] {key}")

    def boundary(self) -> tuple[float | None, float]:
        """Dirichlet data "<left> <right>" (default "0 0"); a left value of
        "none" marks a ball center, where there is no boundary."""
        text = self.params.get("boundary", "0 0")
        toks = text.split()
        if len(toks) != 2:
            raise ConfigError(f"[command] boundary: expected two entries, got {text!r}")
        left = None if toks[0].lower() == "none" else _parse_number(toks[0], "[command] boundary")
        return left, _parse_number(toks[1], "[command] boundary")

    def candidate(self) -> tuple[str, tuple[float, ...]]:
        """The certify candidate, "power <c> <alpha>" (c * r^alpha) or
        "constant <c>", as (kind, numbers)."""
        text = self.params.get("candidate", "")
        toks = text.split()
        if not toks or {"power": 3, "constant": 2}.get(toks[0]) != len(toks):
            raise ConfigError(
                "[command] candidate: expected 'power <c> <alpha>' or 'constant <c>',"
                f" got {text!r}"
            )
        return toks[0], tuple(_parse_number(t, "[command] candidate") for t in toks[1:])


def _parse_int(tok: str, where: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"{where}: {tok!r} is not an integer") from None


def _parse_size(tok: str, where: str, ceiling: int) -> int:
    value = _parse_int(tok, where)
    if value > ceiling:
        raise ConfigError(f"{where}: {value} exceeds the ceiling {ceiling}")
    return value


def _parse_number(tok: str, where: str) -> float:
    t = tok.strip().lower()
    try:
        if t in ("inf", "+inf", "infinity"):
            return float("inf")
        if t == "-inf":
            return float("-inf")
        return float(tok)
    except ValueError:
        raise ConfigError(f"{where}: {tok!r} is not a number") from None


def _parse_interval(text: str, where: str) -> tuple[float, float]:
    toks = text.split()
    if len(toks) != 2:
        raise ConfigError(f"{where}: expected two numbers, got {text!r}")
    return _parse_number(toks[0], where), _parse_number(toks[1], where)


def parse_potential(text: str) -> PotentialSpec:
    """Parse the potential mini-language (see the module docstring)."""
    total: PotentialSpec | None = None
    for part in text.split("+"):
        toks = part.split()
        if not toks:
            raise ConfigError(f"empty potential term in {text!r}")
        kind, args = toks[0].lower(), toks[1:]
        where = f"potential term {part.strip()!r}"
        if kind == "zero":
            if args:
                raise ConfigError(f"{where}: takes no arguments")
            term = PotentialSpec.zero()
        elif kind == "constant":
            if len(args) != 1:
                raise ConfigError(f"{where}: needs one argument")
            term = PotentialSpec.constant(_parse_number(args[0], where))
        elif kind == "power":
            if len(args) != 2:
                raise ConfigError(f"{where}: needs coefficient and exponent")
            term = PotentialSpec.power(
                _parse_number(args[0], where), _parse_number(args[1], where)
            )
        elif kind == "bump":
            if len(args) not in (2, 3):
                raise ConfigError(f"{where}: needs center, radius [, height]")
            height = _parse_number(args[2], where) if len(args) == 3 else 1.0
            try:
                term = PotentialSpec.bump(
                    _parse_number(args[0], where), _parse_number(args[1], where), height
                )
            except ValueError as e:
                raise ConfigError(f"{where}: {e}") from None
        else:
            raise ConfigError(f"{where}: unknown potential kind {kind!r}")
        total = term if total is None else PotentialSpec.combination(total, term, 1.0)
    assert total is not None
    return total


def _parse_levels(text: str, where: str) -> tuple[tuple[float, float], ...]:
    levels = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            levels.append(_parse_interval(chunk, where))
    if not levels:
        raise ConfigError(f"{where}: no levels given")
    return tuple(levels)


def _get(section, key: str, where: str) -> str:
    if key not in section:
        raise ConfigError(f"missing key {key!r} in [{where}]")
    return section[key]


def parse_config(
    path: str | Path,
    seed: int | None = None,
    out_override: str | None = None,
    tol_override: float | None = None,
    levels_override: int | None = None,
) -> RunConfig:
    """Read and validate a run configuration file."""
    if levels_override is not None and not 1 <= levels_override <= MAX_LEVELS:
        raise ConfigError(f"--levels: {levels_override} is outside 1..{MAX_LEVELS}")
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    digest = hashlib.sha256(raw).hexdigest()

    cp = configparser.ConfigParser()
    try:
        cp.read_string(raw.decode("utf-8"), source=str(path))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8") from None
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from None

    if "problem" not in cp:
        raise ConfigError(f"{path}: missing [problem] section")
    prob_sec = cp["problem"]
    p = _parse_number(_get(prob_sec, "p", "problem"), "[problem] p")
    d = _parse_int(_get(prob_sec, "d", "problem"), "[problem] d")
    domain = _parse_interval(_get(prob_sec, "domain", "problem"), "[problem] domain")
    potential = parse_potential(prob_sec.get("potential", "zero"))
    try:
        problem = RadialProblem(p=p, d=d, domain=domain, potential=potential)
    except (ValueError, DomainError) as e:
        raise ConfigError(f"[problem]: {e}") from None

    exhaustion = None
    if "exhaustion" in cp:
        ex_sec = cp["exhaustion"]
        count = _parse_size(ex_sec.get("count", "8"), "[exhaustion] count", MAX_LEVELS)
        if levels_override is not None:
            count = levels_override
        if "levels" in ex_sec:
            levels = _parse_levels(ex_sec["levels"], "[exhaustion] levels")
            if levels_override is not None:
                levels = levels[:levels_override]
            x0 = _parse_number(ex_sec.get("x0", str(sum(levels[0]) / 2)), "[exhaustion] x0")
            try:
                exhaustion = ExhaustionSchedule(levels, x0=x0)
            except ValueError as e:
                raise ConfigError(f"[exhaustion]: {e}") from None
        else:
            style = ex_sec.get("style", "auto")
            base = _parse_number(ex_sec.get("base", "1.0"), "[exhaustion] base")
            growth = _parse_number(ex_sec.get("growth", "2.0"), "[exhaustion] growth")
            x0 = (
                _parse_number(ex_sec["x0"], "[exhaustion] x0") if "x0" in ex_sec else None
            )
            try:
                exhaustion = make_exhaustion(
                    problem, count, base=base, growth=growth, style=style, x0=x0
                )
            except (ValueError, DomainError) as e:
                raise ConfigError(f"[exhaustion]: {e}") from None
            except OverflowError:
                raise ConfigError("[exhaustion]: level endpoints overflow") from None

    if "command" not in cp:
        raise ConfigError(f"{path}: missing [command] section")
    cmd_sec = cp["command"]
    command = _get(cmd_sec, "name", "command").strip().lower()
    if command not in COMMANDS:
        raise ConfigError(
            f"[command] name: unknown command {command!r} (one of {', '.join(COMMANDS)})"
        )
    params = {k: v for k, v in cmd_sec.items() if k not in ("name", "seed")}
    if "resolution" in params:
        _parse_size(params["resolution"], "[command] resolution", MAX_RESOLUTION)
    file_seed = _parse_int(cmd_sec.get("seed", "12345"), "[command] seed")

    out_dir = Path(cp["output"].get("dir", ".")) if "output" in cp else Path(".")
    if out_override is not None:
        out_dir = Path(out_override)

    # each [tolerances] key is a SolverConfig field, parsed by its default's type
    defaults = {f.name: f.default for f in fields(SolverConfig)}
    tolerances: dict = {}
    for k, v in (cp["tolerances"] if "tolerances" in cp else {}).items():
        if k not in defaults:
            raise ConfigError(f"[tolerances] {k}: unknown key (one of {', '.join(defaults)})")
        parse = _parse_int if isinstance(defaults[k], int) else _parse_number
        tolerances[k] = parse(v, f"[tolerances] {k}")
    if tol_override is not None:
        tolerances["residual_tol"] = float(tol_override)
    try:
        solver = replace(DEFAULT_CONFIG, **tolerances)
    except ValueError as e:
        raise ConfigError(f"[tolerances] {e}") from None

    return RunConfig(
        problem=problem,
        exhaustion=exhaustion,
        command=command,
        params=params,
        out_dir=out_dir,
        config_sha256=digest,
        source_path=path,
        seed=file_seed if seed is None else seed,
        solver=solver,
    )
