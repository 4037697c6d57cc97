"""Read-only numpy arrays derived from a ``NetworkCase``, built once per case.

These arrays are the one source of a case's network layout: the bus index,
the branch-label map, the bus arrays (voltage setpoints, the slack position
and read-only PV and PQ masks), the in-service branch table with its pi
stamps, their flat Ybus cells, DC susceptances and ratings, and the per-bus
injection sums. The solver reads its bus spec from them and builds Ybus
from the table's cells with one ``np.add.at``; the solver, the limit check,
the flow-change rule, the contingency ranking and the feature layout index
branches by ``CaseArrays.branches.pos``. ``model`` keeps one ``CaseArrays``
per case, and its edits hand the new case the parts they leave unchanged,
the label map among them. The set of islanding branches comes from the
same arrays.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np


def _read_only(a):
    a.setflags(write=False)
    return a


class BranchTable(NamedTuple):
    """In-service branches: positions in ``case.branches``, end-bus positions,
    pi-model stamps with the off-nominal tap on the from side, the DC
    susceptance and the rating, and each branch's four Ybus cells (flat
    positions in the n x n matrix) with the admittance it adds to each."""

    pos: np.ndarray
    f: np.ndarray
    t: np.ndarray
    yff: np.ndarray
    yft: np.ndarray  # also y_tf: the tap is real
    ytt: np.ndarray
    b_dc: np.ndarray  # 1 / (x tap), per-unit
    rating: np.ndarray  # mva_rating, MVA
    cells: np.ndarray  # (branches, 4): the ff, tt, ft and tf cells
    stamps: np.ndarray  # (branches, 4): yff, ytt, yft, yft


class Injections(NamedTuple):
    """Per-bus sums over in-service generators and over loads, per-unit."""

    s_spec: np.ndarray  # complex net injection
    qg_min: np.ndarray  # generator Q bounds
    qg_max: np.ndarray
    q_load: np.ndarray
    has_gen: np.ndarray


class Topology:
    """Bus arrays, branch labels, and the branch table of the case that was
    parsed or built, with the positions outaged since then in ``out``."""

    def __init__(self, bus_index, labels, slack, pv, pq, vset, table: BranchTable, out=()):
        self.bus_index = bus_index  # bus id -> position
        self.labels = labels  # (low bus id, high bus id, circuit) -> branch position
        self.slack = slack  # position of the first slack bus, None if there is none
        self.pv = pv  # True at PV buses
        self.pq = pq  # True at PQ buses
        self.vset = vset  # voltage setpoint, 1.0 where none
        self.table = table
        self.out = out

    @classmethod
    def of(cls, case) -> Topology:
        index = {b.id: i for i, b in enumerate(case.buses)}
        labels = {}
        for k, br in enumerate(case.branches):  # in and out of service; the first wins
            labels.setdefault((min(br.from_bus, br.to_bus), max(br.from_bus, br.to_bus),
                               br.circuit), k)
        kinds = [b.kind.value for b in case.buses]
        live = [(k, br) for k, br in enumerate(case.branches) if br.in_service]
        ends = np.array([(k, index[br.from_bus], index[br.to_bus]) for k, br in live], dtype=int)
        stamps = []
        for _, br in live:
            ys = 1.0 / complex(br.r, br.x)
            bc = 1j * br.b_shunt / 2.0
            stamps.append(((ys + bc) / (br.tap * br.tap), -ys / br.tap, ys + bc))
        dc = np.array([(1.0 / (br.x * br.tap), br.mva_rating) for _, br in live], dtype=float)
        pos, f, t = ends.reshape(-1, 3).T
        yff, yft, ytt = np.array(stamps, dtype=complex).reshape(-1, 3).T
        n = len(case.buses)
        # per branch ff, tt, ft, tf: the order build_ybus sums a cell's branches in
        cells = np.stack([f * (n + 1), t * (n + 1), f * n + t, t * n + f], axis=1)
        columns = (pos, f, t, yff, yft, ytt, *dc.reshape(-1, 2).T, cells,
                   np.stack([yff, ytt, yft, yft], axis=1))
        return cls(
            index,
            labels,
            kinds.index("slack") if "slack" in kinds else None,
            _read_only(np.array([k == "pv" for k in kinds], dtype=bool)),
            _read_only(np.array([k == "pq" for k in kinds], dtype=bool)),
            _read_only(np.array([1.0 if b.v_setpoint is None else b.v_setpoint for b in case.buses])),
            BranchTable(*(_read_only(c) for c in columns)),
        )

    def without(self, k) -> Topology:
        """This topology with the branch at position ``k`` switched out."""
        return Topology(self.bus_index, self.labels, self.slack, self.pv, self.pq, self.vset,
                        self.table, self.out + (k,))

    def branches(self) -> BranchTable:
        """The in-service rows of ``table``. Dropping rows, rather than
        subtracting stamps, keeps Ybus bit-identical to a rebuild; deriving
        them at each call keeps a stored outaged case small."""
        if not self.out:
            return self.table
        keep = self.table.pos != self.out[0]
        for k in self.out[1:]:
            keep &= self.table.pos != k
        return BranchTable(*(_read_only(c[keep]) for c in self.table))

    @cached_property
    def bridges(self) -> frozenset:
        """Positions of the in-service branches whose outage disconnects the
        network: its bridges, from one iterative Tarjan depth-first search
        (Tarjan, IPL 1974), or every branch when it is disconnected already."""
        tb = self.branches()
        adj = [[] for _ in self.vset]
        for k, a, b in zip(tb.pos.tolist(), tb.f.tolist(), tb.t.tolist()):
            adj[a].append((b, k))
            adj[b].append((a, k))
        order = [-1] * len(adj)  # discovery order
        low = [0] * len(adj)  # lowest order its subtree reaches by one back edge
        order[0] = 0
        visited = 1
        found = set()
        # (bus, branch it was entered by, its edges left to scan); skipping
        # only the entering branch keeps parallel circuits out of the set
        stack = [(0, -1, iter(adj[0]))]
        while stack:
            u, via, edges = stack[-1]
            for v, k in edges:
                if order[v] < 0:
                    order[v] = low[v] = visited
                    visited += 1
                    stack.append((v, k, iter(adj[v])))
                    break
                if k != via:
                    low[u] = min(low[u], order[v])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[u])
                    if low[u] > order[parent]:
                        found.add(via)
        return frozenset(tb.pos.tolist() if visited < len(adj) else found)


class CaseArrays:
    """Read-only arrays derived from one ``NetworkCase``, each built at first
    use: ``topology`` from its buses and branches, ``branches`` from the
    topology, ``injections`` from its generators and loads."""

    def __init__(self, case, topology: Topology | None = None,
                 injections: Injections | None = None):
        self.topology = Topology.of(case) if topology is None else topology
        self._sources = (case.base_mva, case.generators, case.loads)
        if injections is not None:
            self.injections = injections

    @cached_property
    def branches(self) -> BranchTable:
        return self.topology.branches()

    @cached_property
    def injections(self) -> Injections:
        base_mva, generators, loads = self._sources
        index, n = self.topology.bus_index, len(self.topology.vset)
        gens = [g for g in generators if g.in_service]
        gen_bus = np.array([index[g.bus] for g in gens], dtype=int)
        load_bus = np.array([index[l.bus] for l in loads], dtype=int)
        p, qmin, qmax, p_load, q_load = np.zeros((5, n))
        # np.add.at sums the units of a bus in case order
        np.add.at(p, gen_bus, [g.p_mw for g in gens])
        np.add.at(qmin, gen_bus, [g.q_min for g in gens])
        np.add.at(qmax, gen_bus, [g.q_max for g in gens])
        np.add.at(p_load, load_bus, [l.p_mw for l in loads])
        np.add.at(q_load, load_bus, [l.q_mvar for l in loads])
        has_gen = np.zeros(n, dtype=bool)
        has_gen[gen_bus] = True
        s_spec = ((p - p_load) + 1j * (0.0 - q_load)) / base_mva
        return Injections(*(_read_only(a) for a in (
            s_spec, qmin / base_mva, qmax / base_mva, q_load / base_mva, has_gen)))
