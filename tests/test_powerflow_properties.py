"""Property tests of the solver's reactive-limit switching."""

import dataclasses

import pytest

from gridsec.powerflow import TOLERANCE, recompute_max_mismatch, solve_powerflow

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
    for pos, pinned in sol.q_limited:
        at_bus = [g for g in tight.generators if g.in_service and idx[g.bus] == pos]
        q_min = sum(g.q_min for g in at_bus) / tight.base_mva
        q_max = sum(g.q_max for g in at_bus) / tight.base_mva
        assert pinned in (pytest.approx(q_min, abs=1e-12), pytest.approx(q_max, abs=1e-12))
        q_gen = (sol.q_inj[pos] + q_load.get(pos, 0.0)) / tight.base_mva
        assert q_gen == pytest.approx(pinned, abs=10 * TOLERANCE)
