"""The memo that every edit of a parsed case shares (``Topology.recall``):
what it returns warm is what a fresh parse computes, and labelling keeps it
small."""

import numpy as np
import pytest

from gridsec.arrays import BranchTable, JacobianMap, islands
from gridsec.data import GenerationConfig, build_dataset
from gridsec.errors import GridSecError
from gridsec.model import apply_outage, load_bundled_case
from gridsec.powerflow import solve_powerflow
from gridsec.security import predicted_loading, run_contingency_screen

from tests.conftest import CSC_LINES, TC_LINES, use_cpus


def _tcs(case, name):
    """The TCs of criterion 6 on case68; every non-islanding branch on case9."""
    if name == "case68":
        return list(TC_LINES)
    return [case.branches[k].label() for k in case.branch_table.pos.tolist()
            if k not in case.topology.cuts]


def _edit(case, tc):
    """``case`` with ``tc`` out, a new ``Topology`` on ``case``'s memo."""
    return case if tc is None else apply_outage(case, case.find_branch(tc))


def _walk(case):
    """The cuts of ``case`` from a fresh ``islands`` walk over its branch table."""
    tb = case.topology.branches()
    ends = list(zip(tb.pos.tolist(), tb.f.tolist(), tb.t.tolist()))
    cuts = islands(len(case.buses), case.topology.slack, ends)[1]
    return {k: tuple(buses) for k, buses in cuts.items()}


@pytest.mark.parametrize("name", ["case9", "case68"])
def test_warm_memo_reads_what_a_fresh_parse_computes(name):
    """On the base topology and every TC topology, each reached through a new
    ``Topology`` on one memo: ``cuts`` equal a fresh walk, and
    ``predicted_loading`` over drawn flows and outage lists (each also in a
    second order, and the same list on every topology) and the screen's
    in-service CSC positions equal, byte for byte, those of a case parsed
    afresh, whose memo is empty."""
    rng = np.random.default_rng(30)
    warm = load_bundled_case(name)
    tcs = [None] + _tcs(warm, name)
    labels = [br.label() for br in warm.branches]
    base_ok = [k for k in warm.branch_table.pos.tolist() if k not in warm.topology.cuts]
    for draw in range(4):
        picked = rng.permutation(base_ok)[:rng.integers(1, 7)].tolist()
        names = [labels[k] for k in rng.permutation(len(labels))[:rng.integers(1, 9)]]
        for tc in [tcs[j] for j in rng.permutation(len(tcs))]:
            oc = _edit(warm, tc)

            def cold():
                return _edit(load_bundled_case(name), tc)
            assert dict(oc.topology.cuts) == _walk(cold()) == dict(cold().topology.cuts)
            outages = [k for k in picked if k in oc.branch_table.pos and k not in oc.topology.cuts]
            for order in (outages, outages[::-1]):
                if not order:
                    continue
                p = rng.normal(0.0, 150.0, len(warm.branches))
                got = predicted_loading(oc, p, order)
                assert got.tobytes() == predicted_loading(cold(), p, order).tobytes()
                assert got.tobytes() == predicted_loading(oc, p, order).tobytes()
            # the screen's in-service CSCs: its memo entry, and its result
            live = oc.branch_table.pos
            want = [(n, k) for n, k in zip(names, map(oc.find_branch, names)) if k in live]
            if not want:
                with pytest.raises(GridSecError, match="no contingency left"):
                    run_contingency_screen(oc, solve_powerflow(oc), names)
                continue
            sol = solve_powerflow(oc)
            if not sol.converged:
                continue
            assert run_contingency_screen(oc, sol, names) == \
                run_contingency_screen(cold(), sol, names)
            key = (frozenset(oc.topology.out), ("pending", tuple(names)))
            assert list(oc.topology.memo[key]) == want


def test_predicted_loading_rejects_an_islanding_outage(case68):
    """An outage that islands buses has no LODF: ``predicted_loading`` names
    it in a ``GridSecError`` instead of dividing by zero, listed alone or
    among non-islanding outages."""
    k = case68.find_branch("11-56")
    assert k in case68.topology.cuts
    p = solve_powerflow(case68).p_from
    others = [case68.find_branch(n) for n in CSC_LINES[:2]]
    for outages in ([k], others + [k]):
        with pytest.raises(GridSecError, match="branch 11-56: its outage islands buses"):
            predicted_loading(case68, p, outages)
    assert predicted_loading(case68, p, others).shape == (2,)


def test_predicted_loading_rejects_an_outage_out_of_service(case68):
    """A branch already out has no table row: ``predicted_loading`` names it
    instead of reading the next in-service branch's loading."""
    k = case68.find_branch("17-43")
    oc = apply_outage(case68, k)
    p = solve_powerflow(oc).p_from
    assert predicted_loading(oc, p, [k + 1]) == pytest.approx([1.51205193])
    for outages in ([k], [k + 1, k]):
        with pytest.raises(GridSecError, match="branch 17-43 is not in service"):
            predicted_loading(oc, p, outages)


def test_branch_rows_are_in_service_positions_only(case9):
    """``BranchTable.in_service`` tells which positions have a table row,
    ``BranchTable.rows`` maps in-service positions to their rows, and names
    the first listed position that has none."""
    k = case9.find_branch("4-6")
    tb = apply_outage(case9, k).branch_table
    live = tb.pos.tolist()
    every = list(range(-1, len(case9.branches) + 1))
    assert tb.in_service(every).tolist() == [p in live for p in every]
    assert tb.in_service([]).tolist() == []
    assert tb.rows(live, case9.branches).tolist() == list(range(len(live)))
    assert tb.rows([], case9.branches).tolist() == []
    for bad, name in ((k, "4-6"), (len(case9.branches), f"position {len(case9.branches)}"),
                      (-1, "position -1")):
        with pytest.raises(GridSecError, match=f"branch {name} is not in service"):
            tb.rows([live[0], bad], case9.branches)


def _arrays(value):
    """Every numpy array in a memo value, through tuples and mappings."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (BranchTable, JacobianMap)):
        raise AssertionError(f"the memo holds a {type(value).__name__}")
    items = value.values() if hasattr(value, "values") else value
    if isinstance(items, (str, int)):
        return []
    return [a for item in items for a in _arrays(item)]


def test_labelling_memo_stays_small(monkeypatch):
    """The golden case68 dataset, labelled in this process, leaves at most one
    entry of each kind per topology it reached, 3 x (8 TCs + 1), each a
    read-only array no larger than the 83 in-service branches x 8 CSCs, and
    no Ybus, branch table or Jacobian map."""
    use_cpus(monkeypatch, 1)
    case = load_bundled_case("case68")
    build_dataset(case, GenerationConfig(n_samples=60, tc_mix=0.3, tc_list=TC_LINES,
                                         csc_list=CSC_LINES, seed=300))
    memo = case.topology.memo
    kinds = [query[0] for _, query in memo]
    assert sorted(set(kinds)) == ["cuts", "lodf", "pending"]
    assert all(kinds.count(kind) <= len(TC_LINES) + 1 for kind in set(kinds))
    assert len(memo) <= 3 * (len(TC_LINES) + 1)
    for value in memo.values():
        for a in _arrays(value):
            assert a.size <= 83 * len(CSC_LINES) and a.dtype.kind in "fi"
            assert not a.flags.writeable
