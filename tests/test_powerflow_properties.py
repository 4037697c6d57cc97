"""Property tests of the solver's reactive-limit switching and convergence
flag, of the chord screen's accepted outages, of the islanding rule of
branch outages and of the ranked N-1 screen."""

import dataclasses
import math

import numpy as np
import pytest

from gridsec.data import generate_oc
from gridsec.model import (
    Branch,
    Bus,
    BusKind,
    NetworkCase,
    apply_outage,
    reschedule_generation,
    scale_loads,
)
from gridsec.powerflow import TOLERANCE, chord_screen, solve_powerflow
from gridsec.security import check_limits

from tests.test_grid_model import check_outages
from tests.conftest import CSC_LINES, CSC_LINES_9BUS, TC_LINES
from tests.test_powerflow import injections, recompute_max_mismatch
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


# a case and no outage or one of its TCs or CSCs
outaged_cases = st.one_of(
    st.tuples(st.just("case9"), st.sampled_from((None,) + CSC_LINES_9BUS)),
    st.tuples(st.just("case68"), st.sampled_from((None,) + TC_LINES + CSC_LINES)),
)


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(outaged=outaged_cases, scale=st.floats(0.5, 4.0))
def test_converged_flag_matches_the_recomputed_mismatch(case9, case68, outaged, scale):
    """Every load scaled by one factor, up to past the nose: a solve that says
    it converged meets the tolerance on the oracle's recomputed mismatch, and
    one that says it did not misses it or is non-finite."""
    name, outage = outaged
    case = case9 if name == "case9" else case68
    oc = scale_loads(case, scale)
    oc = reschedule_generation(oc, oc.total_load()[0] - case.total_load()[0])
    if outage is not None:
        oc = apply_outage(oc, oc.find_branch(outage))
    sol = solve_powerflow(oc)
    with np.errstate(all="ignore"):  # a diverged iterate may overflow
        mismatch = recompute_max_mismatch(oc, sol)
    if sol.converged:
        assert mismatch <= 10 * TOLERANCE
    else:
        assert mismatch > TOLERANCE or not math.isfinite(mismatch)


# a case, a load scale up to past its nose (about 3.0 on case9, 1.35 on
# case68), an OC topology change or none, and a subset of its CSCs in any order
screened_ocs = st.one_of(
    st.tuples(st.just("case9"), st.floats(0.5, 3.5), st.just(None),
              st.lists(st.sampled_from(CSC_LINES_9BUS), min_size=1, unique=True)),
    st.tuples(st.just("case68"), st.floats(0.5, 1.7), st.sampled_from((None,) + TC_LINES),
              st.lists(st.sampled_from(CSC_LINES), min_size=1, unique=True)),
)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(screened=screened_ocs)
def test_chord_accepts_only_exactly_secure_outages(case9, case68, screened):
    """Every outage the chord screen accepts converges under the exact
    solver from the same start, the OC's solution or a flat start where the
    OC diverged, with no limit violation: the chord may decline a secure
    outage, never accept an insecure one."""
    name, scale, tc, cscs = screened
    case = case9 if name == "case9" else case68
    oc = scale_loads(case, scale)
    oc = reschedule_generation(oc, oc.total_load()[0] - case.total_load()[0])
    if tc is not None:
        oc = apply_outage(oc, oc.find_branch(tc))
    sol = solve_powerflow(oc)
    start = (sol.v_mag, sol.v_ang) if sol.converged else None
    outages = [k for k in map(oc.find_branch, cscs) if k not in oc.topology.cuts]
    for k, outcome in zip(outages, chord_screen(oc, start, outages)):
        if outcome == "accepted":
            outaged = apply_outage(oc, k)
            exact = solve_powerflow(outaged, start)
            assert exact.converged, oc.branches[k].label()
            assert check_limits(exact, outaged) == [], oc.branches[k].label()


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


@pytest.mark.usefixtures("blas_threads")
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
    check_ranked_screen(oc, sol, csc)
