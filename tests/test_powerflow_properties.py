"""Property tests of the solver's reactive-limit switching, of the
islanding rule of branch outages and of the ranked N-1 screen."""

import dataclasses

import pytest

from gridsec.data import generate_oc
from gridsec.model import Branch, Bus, BusKind, NetworkCase
from gridsec.powerflow import TOLERANCE, recompute_max_mismatch, solve_powerflow
from gridsec.security import OperatingLimits

from tests.test_grid_model import check_outages
from tests.conftest import CSC_LINES, TC_LINES
from tests.test_powerflow import injections
from tests.test_security import check_ranked_screen

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Unlimited, case9's PV generators supply 6.7 and -10.9 MVar; bounds drawn
# from [-20, 20] MVar pin them at a ceiling, at a floor, or not at all.
bounds = st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)).map(sorted)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(limits=st.tuples(bounds, bounds), warm=st.booleans())
def test_q_limit_pins_hold_their_bound(case9, limits, warm):
    gens = list(case9.generators)
    for k, (q_min, q_max) in enumerate(limits, start=1):
        gens[k] = dataclasses.replace(gens[k], q_min=q_min, q_max=q_max)
    tight = dataclasses.replace(case9, generators=tuple(gens))
    start = None
    if warm:
        base = solve_powerflow(case9)
        start = (base.v_mag, base.v_ang)
    sol = solve_powerflow(tight, start)
    if not sol.converged:
        return
    assert recompute_max_mismatch(tight, sol) <= 10 * TOLERANCE
    idx = tight.bus_index()
    q_load = {idx[l.bus]: l.q_mvar for l in tight.loads}
    q_inj = injections(tight, sol).imag
    for pos, pinned in sol.q_limited:
        at_bus = [g for g in tight.generators if g.in_service and idx[g.bus] == pos]
        q_min = sum(g.q_min for g in at_bus) / tight.base_mva
        q_max = sum(g.q_max for g in at_bus) / tight.base_mva
        assert pinned in (pytest.approx(q_min, abs=1e-12), pytest.approx(q_max, abs=1e-12))
        q_gen = (q_inj[pos] + q_load.get(pos, 0.0)) / tight.base_mva
        assert q_gen == pytest.approx(pinned, abs=10 * TOLERANCE)


@st.composite
def multigraphs(draw):
    """Random cases: a random spanning tree plus extra branches, some of them
    parallel circuits, any of them possibly out of service (so some cases
    are disconnected before the outage)."""
    n = draw(st.integers(2, 9))
    slack = draw(st.integers(0, n - 1))
    buses = tuple(Bus(i + 1, BusKind.SLACK if i == slack else BusKind.PQ, 345.0, 1.0)
                  for i in range(n))
    ends = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    ends += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=2 * n))
    circuits = {}
    branches = []
    for a, b in ends:
        circuit = circuits[frozenset((a, b))] = circuits.get(frozenset((a, b)), 0) + 1
        in_service = draw(st.sampled_from((True, True, True, False)))
        branches.append(Branch(a + 1, b + 1, 0.0, 0.1, in_service=in_service, circuit=circuit))
    return NetworkCase(100.0, buses, tuple(branches), (), ())


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(case=multigraphs())
def test_bridge_rule_matches_bfs(case):
    check_outages(case)


@hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
@hypothesis.given(draw=st.integers(0, 10_000), tc=st.sampled_from((None,) + TC_LINES),
                  bridge=st.sampled_from((None, "11-56", "41-66")), at=st.integers(0, 8))
def test_ranked_screen_matches_exhaustive(case68, draw, tc, bridge, at):
    """Over case68 OCs with and without a TC, and CSC lists with and
    without an islanding branch: the ranked label is the exhaustive one and
    an islanding CSC decides first."""
    csc = list(CSC_LINES)
    if bridge:
        csc.insert(at, bridge)
    oc, sol, _, _ = generate_oc(case68, (11, draw), tc=tc)
    check_ranked_screen(oc, sol, csc, OperatingLimits())
