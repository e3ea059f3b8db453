"""The README's config table holds one row per `SimConfig` field: the kind
its annotation gives, its default, and for the fields `SimConfig` owns the
bounds or choices of `sim.BOUNDS`. So a new field is one row in code and
one in the README."""

import json
import math
from dataclasses import MISSING, fields
from pathlib import Path

from tdmlink.sim import BOUNDS, SimConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
KINDS = {"int": "whole", "float": "real", "bool": "flag", "str": "text", "list": "list"}


def table_rows(header: str) -> dict[str, list[str]]:
    """The cells of each row of the README table under `header`, keyed by
    the first cell without its backticks."""
    rows = {}
    for line in README[README.index(header):].splitlines()[2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[1:]
    return rows


def bounds_cell(kind: str, rule: tuple) -> str:
    if kind == "str":
        return ", ".join(f"`{choice}`" for choice in rule)
    low, high = rule
    return f"≥ {low}" if high == math.inf else f"{low}..{high}"


def test_readme_config_table_matches_the_schema():
    rows = table_rows("| field | kind | default | bounds |")
    specs = fields(SimConfig)
    assert list(rows) == [spec.name for spec in specs]
    for spec in specs:
        kind, default, bounds = rows[spec.name]
        base = spec.type.removesuffix(" | None")
        assert kind == KINDS[base] + (" or null" if spec.type.endswith(" | None") else ""), spec.name
        value = spec.default if spec.default is not MISSING else spec.default_factory()
        assert json.loads(default.strip("`")) == value, spec.name
        if spec.name in BOUNDS:
            assert bounds == bounds_cell(base, BOUNDS[spec.name]), spec.name


def test_every_bound_names_a_field():
    assert set(BOUNDS) <= {spec.name for spec in fields(SimConfig)}


def test_readme_config_example_loads():
    start = README.index("```json\n", README.index("A scenario config is JSON")) + len("```json\n")
    config = SimConfig.from_json(README[start:README.index("```", start)])
    assert config.abstraction == "symbol_level" and config.num_frontends == 2
    assert config.faults == [{"type": "corrupt_fragment", "link": 1, "event": 2, "channel": 1}]
