import dataclasses
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from gridsec.errors import CaseFormatError, CaseValidationError, IslandingError
from gridsec.model import (
    Branch,
    Bus,
    BusKind,
    NetworkCase,
    apply_outage,
    bundled_case_path,
    parse_case,
    reschedule_generation,
    scale_loads,
)
from gridsec.powerflow import build_ybus, solve_powerflow

from tests.conftest import TC_LINES

MINIMAL = """\
format_version: 1
[BASE]
100.0
[BUS]
1 slack 345.0 1.0 0.9 1.1
2 pq 345.0 - 0.9 1.1
[BRANCH]
1 2 0.0 0.1 0.0 1.0 600.0 1
[GEN]
1 0.0 -500.0 500.0 600.0 1
[LOAD]
2 50.0 0.0
"""


def test_parse_minimal_two_bus():
    case = parse_case(MINIMAL)
    assert len(case.buses) == 2
    assert len(case.branches) == 1
    assert case.buses[0].kind is BusKind.SLACK
    assert case.total_load() == (50.0, 0.0)


def test_parse_68_bus_totals(case68):
    p, q = case68.total_load()
    assert p == pytest.approx(17620.7, rel=1e-9)
    assert q == pytest.approx(2021.76, rel=1e-9)
    assert len(case68.buses) == 68
    assert len(case68.generators) == 16
    assert len(case68.branches) == 83


def test_two_slack_buses_rejected():
    bad = MINIMAL.replace("2 pq 345.0 - 0.9 1.1", "2 slack 345.0 1.0 0.9 1.1")
    with pytest.raises(CaseValidationError, match="multiple slack buses"):
        parse_case(bad)


def test_no_slack_rejected():
    bad = MINIMAL.replace("1 slack 345.0 1.0 0.9 1.1", "1 pv 345.0 1.0 0.9 1.1")
    with pytest.raises(CaseValidationError, match="no slack bus"):
        parse_case(bad)


def test_disconnected_bus_rejected():
    bad = MINIMAL.replace("[BRANCH]", "3 pq 345.0 - 0.9 1.1\n[BRANCH]")
    with pytest.raises(CaseValidationError, match="disconnected bus 3"):
        parse_case(bad)
    # an island of two buses, listed and joined after the slack: the lowest id
    island = MINIMAL.replace("[BRANCH]", "4 pq 345.0 - 0.9 1.1\n3 pq 345.0 - 0.9 1.1\n"
                             "[BRANCH]\n4 3 0.0 0.1 0.0 1.0 600.0 1")
    with pytest.raises(CaseValidationError, match="disconnected bus 3"):
        parse_case(island)


def test_outage_without_slack_is_an_error():
    case = parse_case(MINIMAL)
    buses = (dataclasses.replace(case.buses[0], kind=BusKind.PV), case.buses[1])
    with pytest.raises(CaseValidationError, match="no slack bus"):
        apply_outage(dataclasses.replace(case, buses=buses), 0)


def test_syntax_error_carries_line_number():
    bad = MINIMAL.replace("2 50.0 0.0", "2 fifty 0.0")
    with pytest.raises(CaseFormatError, match="line 12"):
        parse_case(bad)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_number_rejected(token):
    bad = MINIMAL.replace("1 2 0.0 0.1", f"1 2 {token} 0.1")
    with pytest.raises(CaseFormatError, match=f"line 8: bad r '{token}'"):
        parse_case(bad)


@pytest.mark.parametrize("tap", ["0.0", "-1.0"])
def test_non_positive_tap_rejected(tap):
    bad = MINIMAL.replace("1 2 0.0 0.1 0.0 1.0 600.0 1", f"1 2 0.0 0.1 0.0 {tap} 600.0 1")
    with pytest.raises(CaseValidationError, match="branch 1-2: tap must be positive"):
        parse_case(bad)


@pytest.mark.parametrize("section, line, flag", [
    ("BRANCH", 8, "7"), ("BRANCH", 8, "-1"), ("GEN", 10, "7"), ("GEN", 10, "-1"),
])
def test_in_service_flag_must_be_0_or_1(section, line, flag):
    rows = {"BRANCH": "1 2 0.0 0.1 0.0 1.0 600.0 1", "GEN": "1 0.0 -500.0 500.0 600.0 1"}
    bad = MINIMAL.replace(rows[section], rows[section][:-1] + flag)
    with pytest.raises(CaseFormatError, match=f"line {line}: bad in_service flag '{flag}'"):
        parse_case(bad)


MINIMAL_ROWS = {  # section: (line, row) of MINIMAL
    "BUS": (5, "1 slack 345.0 1.0 0.9 1.1"),
    "BRANCH": (8, "1 2 0.0 0.1 0.0 1.0 600.0 1"),
    "GEN": (10, "1 0.0 -500.0 500.0 600.0 1"),
    "LOAD": (12, "2 50.0 0.0"),
}


@pytest.mark.parametrize("section, column, name", [
    ("BUS", 0, "bus id"), ("BUS", 1, "bus kind"), ("BUS", 2, "base_kv"),
    ("BUS", 3, "v_setpoint"), ("BUS", 4, "v_min"), ("BUS", 5, "v_max"),
    ("BRANCH", 0, "from bus"), ("BRANCH", 1, "to bus"), ("BRANCH", 2, "r"),
    ("BRANCH", 3, "x"), ("BRANCH", 4, "b_shunt"), ("BRANCH", 5, "tap"),
    ("BRANCH", 6, "mva_rating"), ("BRANCH", 7, "in_service flag"), ("BRANCH", 8, "circuit"),
    ("GEN", 0, "gen bus"), ("GEN", 1, "p_mw"), ("GEN", 2, "q_min"), ("GEN", 3, "q_max"),
    ("GEN", 4, "p_max"), ("GEN", 5, "in_service flag"),
    ("LOAD", 0, "load bus"), ("LOAD", 1, "p_mw"), ("LOAD", 2, "q_mvar"),
])
def test_bad_column_named_with_its_line(section, column, name):
    line, row = MINIMAL_ROWS[section]
    cols = row.split()
    cols[column:column + 1] = ["x"]  # the optional circuit column is appended
    with pytest.raises(CaseFormatError) as err:
        parse_case(MINIMAL.replace(row, " ".join(cols)))
    assert str(err.value) == f"line {line}: bad {name} 'x'"


@pytest.mark.parametrize("section, usage, short, over", [
    ("BUS", "[BUS] needs 6 columns: id kind base_kv v_set v_min v_max", 5, 7),
    ("BRANCH", "[BRANCH] needs 8 or 9 columns: from to r x b tap rating in_service [circuit]",
     7, 10),
    ("GEN", "[GEN] needs 6 columns: bus p_mw q_min q_max p_max in_service", 5, 7),
    ("LOAD", "[LOAD] needs 3 columns: bus p_mw q_mvar", 2, 4),
])
def test_wrong_column_count_names_the_columns(section, usage, short, over):
    line, row = MINIMAL_ROWS[section]
    cols = row.split()
    for n in (short, over):
        with pytest.raises(CaseFormatError) as err:
            parse_case(MINIMAL.replace(row, " ".join((cols + ["1"] * n)[:n])))
        assert str(err.value) == f"line {line}: {usage}"


def test_readme_case_format_block_parses():
    """The README's case-file example parses, and each section's column
    comment is the column list its usage error names."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Case file format\n", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    case = parse_case(block)
    assert (len(case.buses), len(case.branches), len(case.generators), len(case.loads)) \
        == (2, 1, 1, 1)
    lines = block.splitlines()
    for section in ("BUS", "BRANCH", "GEN", "LOAD"):
        at = lines.index(f"[{section}]") + 1
        row, comment = lines[at].split("#")
        too_wide = block.replace(lines[at], row + " 1" * 10)
        with pytest.raises(CaseFormatError) as err:
            parse_case(too_wide)
        assert str(err.value).split(": ", 2)[2] == comment.strip(), section


def test_second_base_value_rejected():
    for extra, line in (("[BASE]\n1.0\n", 5), ("1.0\n", 4)):
        with pytest.raises(CaseFormatError) as err:
            parse_case(MINIMAL.replace("[BUS]\n", extra + "[BUS]\n"))
        assert str(err.value) == f"line {line}: [BASE] takes a single MVA value"


def test_duplicate_branch_label_rejected():
    # "4-1" and "1-4" name the same branch, so the second could never be
    # outaged by label: find_branch("4-1") would return the first
    text = bundled_case_path("case9").read_text(encoding="utf-8")
    first = "1 4 0.0    0.0576 0.0   1.0 300.0 1\n"
    bad = text.replace(first, first + "4 1 0.0 0.0576 0.0 1.0 300.0 1\n")
    with pytest.raises(CaseValidationError,
                       match="branch 4-1: same ends and circuit as branch 1-4"):
        parse_case(bad)
    # a second circuit on the same ends is a different branch
    parse_case(text.replace(first, first + "4 1 0.0 0.0576 0.0 1.0 300.0 1 2\n"))


def test_missing_version_header():
    with pytest.raises(CaseFormatError, match="format_version"):
        parse_case(MINIMAL.replace("format_version: 1\n", ""))


def test_outage_islanding_two_bus(case2):
    with pytest.raises(IslandingError, match="outage disconnects bus set"):
        apply_outage(case2, 0)


def test_outage_68_bus_named_line(case68):
    outaged = apply_outage(case68, case68.find_branch("17-43"))
    assert len(outaged.branch_table.pos) == 82
    # value semantics: original untouched
    assert all(br.in_service for br in case68.branches)


def test_double_outage_rejected(case9):
    once = apply_outage(case9, case9.find_branch("4-5"))
    with pytest.raises(CaseValidationError, match="already out of service"):
        apply_outage(once, once.find_branch("4-5"))


def test_outage_index_out_of_range(case9):
    with pytest.raises(CaseValidationError, match="out of range"):
        apply_outage(case9, 99)


def test_case_is_immutable(case9):
    with pytest.raises(dataclasses.FrozenInstanceError):
        case9.base_mva = 200.0
    scaled = scale_loads(case9, 2.0)
    assert case9.loads[0].p_mw == 125.0
    assert scaled.loads[0].p_mw == 250.0


def test_reschedule_zero_is_identity(case9):
    assert reschedule_generation(case9, 0.0) == case9


@pytest.mark.parametrize("delta_p", [float("nan"), float("inf"), -float("inf")])
def test_reschedule_rejects_a_non_finite_change(case9, delta_p):
    """NaN would leave every unit where it was and an infinite change would
    drive every unit to a bound; both are errors that name ``delta_p``."""
    with pytest.raises(CaseValidationError, match=f"^delta_p must be finite, not {delta_p!r}$"):
        reschedule_generation(case9, delta_p)


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), -float("inf")])
def test_scale_loads_rejects_a_non_finite_factor(case9, factor):
    """A NaN or infinite factor would give loads no solve can meet, scalar or
    one per load; both are errors that name the factor."""
    message = f"^scale factors must be finite, not {factor!r}$"
    with pytest.raises(CaseValidationError, match=message):
        scale_loads(case9, factor)
    with pytest.raises(CaseValidationError, match=message):
        scale_loads(case9, [1.0, factor, 1.0])


def test_reschedule_capacity_proportional():
    case = parse_case("""\
format_version: 1
[BASE]
100.0
[BUS]
1 slack 345.0 1.0 0.9 1.1
2 pv 345.0 1.0 0.9 1.1
3 pv 345.0 1.0 0.9 1.1
[BRANCH]
1 2 0.0 0.1 0.0 1.0 600.0 1
2 3 0.0 0.1 0.0 1.0 600.0 1
[GEN]
1 0.0 -500.0 500.0 600.0 1
2 50.0 -500.0 500.0 100.0 1
3 50.0 -500.0 500.0 300.0 1
[LOAD]
3 100.0 0.0
""")
    up = reschedule_generation(case, 40.0)
    assert up.generators[1].p_mw == pytest.approx(60.0)
    assert up.generators[2].p_mw == pytest.approx(80.0)

    # pushing one unit past p_max clamps it and spills the rest to the others
    big = reschedule_generation(case, 260.0)
    assert big.generators[1].p_mw == pytest.approx(100.0)
    assert big.generators[2].p_mw == pytest.approx(260.0)
    total_delta = (big.generators[1].p_mw - 50.0) + (big.generators[2].p_mw - 50.0)
    assert total_delta == pytest.approx(260.0)

    # beyond aggregate capacity: both units pin at p_max, the slack takes the rest
    over = reschedule_generation(case, 500.0)
    assert over.generators[1].p_mw == 100.0
    assert over.generators[2].p_mw == 300.0


def test_reschedule_waterfilling_oracle():
    # brute-force oracle: tiny increments, proportional to p_max over unclamped units
    case = parse_case("""\
format_version: 1
[BASE]
100.0
[BUS]
1 slack 345.0 1.0 0.9 1.1
2 pv 345.0 1.0 0.9 1.1
3 pv 345.0 1.0 0.9 1.1
4 pv 345.0 1.0 0.9 1.1
[BRANCH]
1 2 0.0 0.1 0.0 1.0 600.0 1
2 3 0.0 0.1 0.0 1.0 600.0 1
3 4 0.0 0.1 0.0 1.0 600.0 1
[GEN]
1 0.0 -500.0 500.0 900.0 1
2 40.0 -500.0 500.0 50.0 1
3 10.0 -500.0 500.0 200.0 1
4 100.0 -500.0 500.0 400.0 1
[LOAD]
4 100.0 0.0
""")
    delta = 180.0
    outputs = np.array([40.0, 10.0, 100.0])
    p_max = np.array([50.0, 200.0, 400.0])
    remaining = delta
    for _ in range(2_000_000):
        free = outputs < p_max
        if remaining <= 1e-9 or not free.any():
            break
        inc = min(remaining, 1e-3) * p_max * free / (p_max * free).sum()
        inc = np.minimum(inc, p_max - outputs)
        outputs += inc
        remaining -= inc.sum()
    got = reschedule_generation(case, delta)
    for g, expected in zip(got.generators[1:], outputs):
        assert g.p_mw == pytest.approx(expected, abs=1e-2)


# --- islanding from the walk from the slack -----------------------------------

def bfs_reached(case):
    """Bus ids reachable from the slack over in-service branches: a
    breadth-first search, the oracle of ``arrays.islands``."""
    adj = {b.id: [] for b in case.buses}
    for br in case.branches:
        if br.in_service:
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)
    seen = {case.buses[case.topology.slack].id}
    queue = deque(seen)
    while queue:
        for v in adj[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _bfs_lost(case, k):
    """Bus ids that a BFS from the slack misses once branch ``k`` is out, on a
    case built cold from field values."""
    branches = list(case.branches)
    branches[k] = dataclasses.replace(branches[k], in_service=False)
    cold = NetworkCase(case.base_mva, case.buses, tuple(branches), case.generators, case.loads)
    return {b.id for b in case.buses} - bfs_reached(cold)


def check_outages(case):
    """Every in-service branch islands iff the BFS misses a bus, and the
    error names the missed set; returns (outages, islanding)."""
    islanding = 0
    live = case.branch_table.pos.tolist()
    for k in live:
        lost = _bfs_lost(case, k)
        if lost:
            islanding += 1
            with pytest.raises(IslandingError) as err:
                apply_outage(case, k)
            assert err.value.buses == lost
            assert str(err.value) == f"outage disconnects bus set {set(sorted(lost))}"
        else:
            assert not apply_outage(case, k).branches[k].in_service
    return len(live), islanding


def test_bridge_rule_matches_bfs_on_bundled_cases(case9, case68):
    check_outages(case9)
    totals = np.array(check_outages(case68))
    for tc in TC_LINES:
        totals += check_outages(apply_outage(case68, case68.find_branch(tc)))
    assert totals.tolist() == [739, 93]


# --- the cached array view ------------------------------------------------------

def _cold(case):
    """The same case rebuilt from its field values, so it inherits no view."""
    return NetworkCase(case.base_mva, case.buses, case.branches, case.generators, case.loads)


# the bus arrays of a topology that every edit of its case shares
SHARED = ("pv", "pq", "v_limits", "gen_bus", "load_bus", "q_limits", "has_gen")


def _assert_same_as_cold(case):
    cold = _cold(case)
    assert "topology" not in cold.__dict__
    topo, kinds = case.topology, [b.kind for b in case.buses]
    assert topo.slack == cold.topology.slack == kinds.index(BusKind.SLACK)
    for mask, kind in ((topo.pv, BusKind.PV), (topo.pq, BusKind.PQ)):
        assert mask.dtype == bool and mask.tolist() == [k is kind for k in kinds]
    assert topo.v_limits.tolist() == [[b.v_min for b in case.buses], [b.v_max for b in case.buses]]
    for field in SHARED:
        assert np.array_equal(getattr(topo, field), getattr(cold.topology, field)), field
    assert np.array_equal(build_ybus(case), build_ybus(cold))
    warm, ref = solve_powerflow(case), solve_powerflow(cold)
    for field in ("v_mag", "v_ang", "p_from", "q_from", "p_to", "q_to", "i_from"):
        assert np.array_equal(getattr(warm, field), getattr(ref, field)), field
    assert warm.q_limited == ref.q_limited


def _outages(case):
    for k in case.branch_table.pos.tolist():
        try:
            yield apply_outage(case, k)
        except IslandingError:
            pass


def test_views_equal_cold_rebuilds(case9, case68):
    """Every view an edit hands on gives the solver what a cold case gives."""
    scaled = scale_loads(case68, np.linspace(0.85, 1.05, len(case68.loads)))
    oc = reschedule_generation(scaled, scaled.total_load()[0] - case68.total_load()[0])
    for case in (case9, case68, oc):
        _assert_same_as_cold(case)
        for outaged in _outages(case):
            _assert_same_as_cold(outaged)
            # every edit hands its parent's bus arrays down instead of rebuilding them
            for field in SHARED:
                assert getattr(outaged.topology, field) is getattr(case.topology, field), field
    for child in (scaled, oc):
        for field in SHARED:
            assert getattr(child.topology, field) is getattr(case68.topology, field), field


def test_view_arrays_are_read_only(case9):
    outaged = apply_outage(case9, case9.find_branch("4-5"))
    for case in (case9, outaged, scale_loads(outaged, 1.1)):
        topo, jmap = case.topology, case.topology.jacobian
        arrays = [*(getattr(topo, field) for field in SHARED), topo.vset, *case.branch_table,
                  *case.injections, *jmap[:7], jmap.mismatch]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
    with pytest.raises(TypeError):
        case9.bus_index()[1] = 5
    # a solve pins Q limits in its own copy of the bus spec, not in the view
    gens = (case9.generators[0], dataclasses.replace(case9.generators[1], q_max=2.0),
            *case9.generators[2:])
    tight = dataclasses.replace(case9, generators=gens)
    topo = tight.topology
    s_spec, pv, pq = tight.injections.s_spec.copy(), topo.pv.copy(), topo.pq.copy()
    assert solve_powerflow(tight).q_limited
    assert np.array_equal(tight.injections.s_spec, s_spec)
    assert np.array_equal(topo.pv, pv) and np.array_equal(topo.pq, pq)


# --- branch labels ----------------------------------------------------------------

def test_find_branch_same_position_in_edited_cases(case68):
    """Edits hand the parsed case's label map down, so every label, the
    outaged branch's own included, keeps its position in either orientation."""
    k = case68.find_branch("17-43")
    oc = scale_loads(case68, np.linspace(0.9, 1.1, len(case68.loads)))
    children = [oc, reschedule_generation(oc, 25.0), apply_outage(case68, k), apply_outage(oc, k)]
    labels = case68.topology.labels
    for child in children:
        assert child.topology.labels is labels
    for position, br in enumerate(case68.branches):
        a, b = br.from_bus, br.to_bus
        for spec in (f"{a}-{b}", f"{b}-{a}", f"{a}-{b}:{br.circuit}", f" {b}-{a}:{br.circuit} "):
            assert case68.find_branch(spec) == position
            for child in children:
                assert child.find_branch(spec) == position
    assert not children[2].branches[k].in_service


def test_find_branch_circuits_and_first_match(case9):
    text = bundled_case_path("case9").read_text(encoding="utf-8")
    line = "4 5 0.010  0.085  0.176 1.0 250.0 1\n"
    parallel = parse_case(text.replace(line, line + "5 4 0.010  0.085  0.176 1.0 250.0 1 2\n"))
    k = case9.find_branch("4-5")
    assert parallel.find_branch("4-5") == parallel.find_branch("5-4:1") == k
    assert parallel.find_branch("4-5:2") == parallel.find_branch("5-4:2") == k + 1
    assert apply_outage(parallel, k).find_branch("4-5:2") == k + 1
    # a case built without validation may repeat a label; the first branch wins
    twin = dataclasses.replace(case9.branches[k], from_bus=5, to_bus=4)
    unchecked = NetworkCase(case9.base_mva, case9.buses, case9.branches + (twin,),
                            case9.generators, case9.loads)
    assert unchecked.find_branch("5-4") == k


@pytest.mark.parametrize("spec, error, message", [
    ("17", CaseFormatError, "bad branch label '17'"),
    ("17-x", CaseFormatError, "bad branch label '17-x'"),
    ("17-43:x", CaseFormatError, "bad branch label '17-43:x'"),
    ("", CaseFormatError, "bad branch label ''"),
    ("17-43:2", CaseValidationError, "no branch '17-43:2' in case"),
    ("17-44", CaseValidationError, "no branch '17-44' in case"),
    ("999-1", CaseValidationError, "no branch '999-1' in case"),
])
def test_find_branch_errors(case68, spec, error, message):
    outaged = apply_outage(case68, case68.find_branch("17-43"))
    for case in (case68, scale_loads(case68, 1.1), outaged):
        with pytest.raises(error) as err:
            case.find_branch(spec)
        assert type(err.value) is error and str(err.value) == message
