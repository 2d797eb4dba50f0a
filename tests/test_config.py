"""parse_config on hostile input: every config either parses, with its
tolerances in (0, 1), or is refused with ConfigError, which the CLI turns
into exit 1.  Nothing here solves."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcrit.config import ConfigError, RunConfig, parse_config

HOSTILE = ("nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "1e-308", "0.5", "2", "abc")

# (section, key) -> a valid value; the configs below override some of them
VALID = {
    ("problem", "p"): "2.0",
    ("problem", "d"): "3",
    ("problem", "domain"): "0 inf",
    ("exhaustion", "style"): "balls",
    ("exhaustion", "count"): "4",
    ("exhaustion", "base"): "1.0",
    ("exhaustion", "growth"): "2.0",
    ("exhaustion", "x0"): "1.0",
    ("command", "resolution"): "101",
    ("tolerances", "residual_tol"): "1e-8",
    ("tolerances", "max_iter_per_stage"): "20",
    ("tolerances", "eigen_rtol"): "1e-8",
    ("tolerances", "eigen_max_iter"): "50",
}

# each potential term with valid arguments; "{}" marks the slots
TERMS = ("constant {}", "power {} {}", "bump {} {}", "bump {} {} {}")


def _ini(changed: dict, potential_text: str) -> str:
    sections: dict[str, list[str]] = {"problem": [f"potential = {potential_text}"]}
    for (section, key), value in {**VALID, **changed}.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    sections["command"].append("name = critical")
    return "".join(
        f"[{name}]\n" + "".join(line + "\n" for line in lines) + "\n"
        for name, lines in sections.items()
    )


def _parses_or_refuses(path, text: str) -> None:
    path.write_text(text)
    try:
        cfg = parse_config(path)
    except ConfigError:
        return
    except Exception as exc:  # the failure names the config that escaped
        pytest.fail(f"{exc!r} escaped parse_config on\n{text}")
    assert isinstance(cfg, RunConfig)
    tol = cfg.solver.residual_tol
    assert tol is None or 0.0 < tol < 1.0, text
    assert 0.0 < cfg.solver.eigen_rtol < 1.0, text


def test_each_hostile_value_in_each_field(tmp_path):
    path = tmp_path / "run.ini"
    for key in VALID:
        for value in HOSTILE:
            _parses_or_refuses(path, _ini({key: value}, "zero"))
    for term in TERMS:
        slots = term.count("{}")
        for slot in range(slots):
            for value in HOSTILE:
                args = ["1"] * slots
                args[slot] = value
                _parses_or_refuses(path, _ini({}, term.format(*args)))


number = st.sampled_from(HOSTILE)
potential = st.lists(
    st.one_of(
        st.just("zero"),
        st.sampled_from(TERMS).flatmap(
            lambda t: st.lists(number, min_size=t.count("{}"), max_size=t.count("{}")).map(
                lambda args: t.format(*args)
            )
        ),
    ),
    min_size=1,
    max_size=3,
).map(" + ".join)
# every example draws a real style, so each make_exhaustion branch meets
# the hostile values; test_each_hostile_value_in_each_field puts hostile
# values in the style key itself
style = st.sampled_from(["line", "annuli", "balls", "halfline", "shrink", "auto"])
overrides = st.dictionaries(
    st.sampled_from(sorted(set(VALID) - {("exhaustion", "style")})),
    st.one_of(number, st.tuples(number, number).map(" ".join)),
    max_size=3,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(style, overrides, potential)
def test_hostile_combinations(tmp_path_factory, style_name, changed, potential_text):
    changed[("exhaustion", "style")] = style_name
    _parses_or_refuses(tmp_path_factory.getbasetemp() / "fuzz.ini", _ini(changed, potential_text))
