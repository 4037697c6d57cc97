"""Structural rules of the package source: one owner per concept.

Each row of ``RULES`` is a regular expression that no line of
``src/gridsec/*.py`` outside the row's exempt files may match, with the
message a match fails with. ``SMALLER`` keeps the byte-size rule: with no
bytecode cache, a process's peak RSS follows the bytes of the largest module
it compiles, so the benchmark's memory bounds hold only while each pair keeps
its order.
"""

import re
from pathlib import Path

import pytest

import gridsec

SRC = Path(gridsec.__file__).parent

RULES = {
    # workers.py is the one module that forks, so one set of rules (unit
    # order, the lowest failure, every child killed and reaped) holds for
    # every fan-out
    "one-owner-of-worker-processes": (
        r"os\.(fork|pipe|waitpid)\b", ("workers.py",),
        "os.fork, os.pipe and os.waitpid belong in src/gridsec/workers.py only"),
    # package code reads islanding from case.topology.cuts before any
    # outage; model.apply_outage raises IslandingError for outside callers only
    "one-islanding-rule": (
        r"except\b.*IslandingError", (),
        "read islanding from case.topology.cuts, not from IslandingError"),
    # arrays.Topology.of maps the generators and loads to bus positions once
    # per parsed case (gen_bus, load_bus), and every edit shares them
    "one-builder-of-the-unit-layout": (
        r"index\[(g|l)\.bus\]", ("arrays.py",),
        "read generator and load bus positions from case.topology, built in "
        "src/gridsec/arrays.py only"),
    # the case view owns the in-service branch positions (branch_table.pos)
    # and the membership test (branch_table.in_service)
    "one-owner-of-branch-service": (
        r"\bbr\.in_service\b|branches\[[^]]*\]\.in_service\b", ("model.py", "arrays.py"),
        "read which branches are in service from case.branch_table (pos, in_service); "
        "only src/gridsec/model.py and arrays.py read Branch.in_service"),
}

SMALLER = [("arrays.py", "model.py"), ("train.py", "powerflow.py")]


def _modules():
    return sorted(SRC.glob("*.py"))


def test_rules_read_every_module():
    names = {path.name for path in _modules()}
    assert {"workers.py", "arrays.py", "model.py", "powerflow.py", "security.py"} <= names
    for pattern, exempt, _ in RULES.values():
        assert set(exempt) <= names


@pytest.mark.parametrize("rule", RULES)
def test_rule(rule):
    pattern, exempt, message = RULES[rule]
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in _modules() if path.name not in exempt
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(pattern, line)]
    assert not hits, message + "\n" + "\n".join(hits)


@pytest.mark.parametrize("smaller, larger", SMALLER)
def test_byte_size_rule(smaller, larger):
    small, large = ((SRC / name).stat().st_size for name in (smaller, larger))
    assert small < large, (f"{smaller} ({small} B) must stay smaller than {larger} ({large} B): "
                           f"peak RSS follows the largest compiled module")
