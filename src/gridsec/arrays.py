"""Read-only numpy arrays derived from a ``NetworkCase``, built once per case.

These arrays are the one source of a case's network layout. ``Topology.of``
builds, once per parsed case, what no edit changes: the bus index, the
branch-label map, the bus arrays (voltage setpoints and limits, the slack
position, PV and PQ masks, the bus positions of the in-service generators
and of the loads, each bus's summed generator Q bounds), the branch table
with its pi stamps (the one copy of each branch admittance), Ybus cells, DC
susceptances and ratings, and the Newton-Raphson Jacobian's cells and map.
``Injections`` holds what an operating condition changes: the per-bus net
injection and load Q (``bus_injections``). A case caches its ``topology``,
``branch_table`` and ``injections``, and ``model``'s edits hand the new case
those they leave unchanged; an outage only extends a topology's ``out``. A
``Topology`` is a named tuple, so nothing can be stored on one. The solver,
the limit check, the flow-change rule, the contingency ranking and the
feature layout index branches by ``NetworkCase.branch_table.pos``, and
``BranchTable.rows`` maps positions back to rows, rejecting one that is out
of service. One walk from the slack (``islands``) finds the buses a case
leaves disconnected and the buses each outage cuts off.

``Topology.of`` also makes one memo per parsed case, which every edit
shares: small read-only values that a topology alone fixes, keyed by its
outage set (order-free) and a query (``Topology.recall``). Package code
keeps three kinds there: a topology's ``cuts``, the contingency ranking's
LODF columns (``security.predicted_loading``) and a screen's resolved CSC
positions. Labelling reaches at most 3 x (TCs + 1) entries, each no larger
than one float per in-service branch and CSC; no Ybus, branch table or
Jacobian is kept there. A case also caches its feature layout
(``measurement_layout``), which its loads and in-service branches fix.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import CaseValidationError, GridSecError


def _read_only(a):
    a.setflags(write=False)
    return a


class BranchTable(NamedTuple):
    """In-service branches: positions in ``case.branches``, end-bus positions,
    the DC susceptance and the rating, and each branch's four Ybus cells (flat
    positions in the n x n matrix) with its pi-model stamps there (tap on the
    from side): the one copy of each branch admittance."""

    pos: np.ndarray
    f: np.ndarray
    t: np.ndarray
    b_dc: np.ndarray  # 1 / (x tap), per-unit
    rating: np.ndarray  # mva_rating, MVA
    cells: np.ndarray  # (branches, 4): the ff, tt, ft and tf cells
    stamps: np.ndarray  # (branches, 4): y_ff, y_tt, y_ft, y_tf (= y_ft: the tap is real)

    def in_service(self, positions) -> np.ndarray:
        """Whether each of the branch positions ``positions`` is in service,
        that is, has a row in the table."""
        positions = np.asarray(positions, dtype=int)
        rows = np.searchsorted(self.pos, positions)
        found = rows < len(self.pos)
        found[found] = self.pos[rows[found]] == positions[found]
        return found

    def rows(self, positions, branches) -> np.ndarray:
        """The table rows of the branch positions ``positions``. A position
        that is not in service, which would otherwise read the next row, is
        a ``GridSecError`` naming its branch in ``branches``."""
        positions = np.asarray(positions, dtype=int)
        found = self.in_service(positions)
        if not found.all():
            k = int(positions[~found][0])
            name = branches[k].label() if 0 <= k < len(branches) else f"position {k}"
            raise GridSecError(f"branch {name} is not in service")
        return np.searchsorted(self.pos, positions)


class Injections(NamedTuple):
    """What an operating condition changes: per-bus sums over in-service
    generators and over loads, per-unit."""

    s_spec: np.ndarray  # complex net injection
    q_load: np.ndarray


class JacobianMap(NamedTuple):
    """The Ybus cells where the Jacobian of the parsed case, or of any edit
    of it, can be nonzero (edits only remove branches), and where the reduced
    Newton-Raphson Jacobian of one pair of PV/PQ masks takes its entries from
    the dP/dVa, dP/dVm, dQ/dVa and dQ/dVm values at those cells, and its
    mismatch vector its floats."""

    # flat positions in the n x n Ybus: the n diagonal cells in bus order,
    # then the off-diagonal cells that in-service branches stamp, ascending
    flat: np.ndarray
    rows: np.ndarray  # bus positions of each cell
    cols: np.ndarray
    pvpq: np.ndarray  # the buses whose angle NR solves for ...
    pq: np.ndarray  # ... and whose magnitude
    src: np.ndarray  # flat positions in the (4, cells) block values ...
    dest: np.ndarray  # ... and their flat positions in the m x m Jacobian
    m: int
    mismatch: np.ndarray  # positions in (S_bus - S_spec).view(float): P at pvpq, Q at pq


def jacobian_map(flat, rows, cols, pv, pq) -> JacobianMap:
    """The map of the Jacobian cells ``flat`` at ``rows``/``cols`` for the
    masks ``pv``/``pq``: a cell goes to each block at those of its row and
    column buses that NR solves for; the rest of the matrix is zero."""
    pvpq, pq = np.flatnonzero(pv | pq), np.flatnonzero(pq)
    m = len(pvpq) + len(pq)
    # row or column of each bus's angle and magnitude unknown; -1 if none
    ang, mag = np.full(len(pv), -1), np.full(len(pv), -1)
    ang[pvpq] = np.arange(len(pvpq))
    mag[pq] = np.arange(len(pvpq), m)
    ra, rm, ca, cm = ang[rows], mag[rows], ang[cols], mag[cols]
    r = np.concatenate([ra, ra, rm, rm])
    c = np.concatenate([ca, cm, ca, cm])
    src = np.flatnonzero((r >= 0) & (c >= 0))
    return JacobianMap(flat, rows, cols, pvpq, pq, src, r[src] * m + c[src], m,
                       np.concatenate([2 * pvpq, 2 * pq + 1]))


def islands(n, root, ends):
    """One iterative Tarjan depth-first search (Tarjan, IPL 1974) from bus
    position ``root`` over ``ends``, a sequence of (branch, from bus, to bus)
    position triples of the ``n`` buses. Returns the bus positions it misses
    and, for each branch whose outage cuts buses off from ``root``, those
    buses: a bridge's subtree and the missed ones. When some buses are
    missed already, every branch cuts off at least those."""
    adj = [[] for _ in range(n)]
    for k, a, b in ends:
        adj[a].append((b, k))
        adj[b].append((a, k))
    order = [-1] * n  # discovery order
    low = [0] * n  # lowest order its subtree reaches by one back edge
    order[root] = 0
    seen = [root]  # buses in discovery order; a finished subtree is its tail
    cuts = {}
    # (bus, branch it was entered by, its edges left to scan); skipping
    # only the entering branch keeps parallel circuits out of the cuts
    stack = [(root, -1, iter(adj[root]))]
    while stack:
        u, via, edges = stack[-1]
        for v, k in edges:
            w = order[v]
            if w < 0:
                order[v] = low[v] = len(seen)
                seen.append(v)
                stack.append((v, k, iter(adj[v])))
                break
            if w < low[u] and k != via:
                low[u] = w
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                if low[u] < low[parent]:
                    low[parent] = low[u]
                elif low[u] > order[parent]:
                    cuts[via] = seen[order[u]:]
    missed = [p for p in range(n) if order[p] < 0] if len(seen) < n else []
    if missed:
        cuts = {k: cuts.get(k, []) + missed for k, _, _ in ends}
    return missed, cuts


class Topology(NamedTuple):
    """Bus arrays, branch labels, the generator and load layout, the branch
    table and the Jacobian map of the case that was parsed or built, which
    every edit shares, and the positions outaged since then, ``out``."""

    bus_index: dict  # bus id -> position
    labels: dict  # (low bus id, high bus id, circuit) -> branch position
    slack: int  # position of the first slack bus; ``of`` rejects a case with none
    pv: np.ndarray  # True at PV buses
    pq: np.ndarray  # True at PQ buses
    vset: np.ndarray  # voltage setpoint, 1.0 where none
    v_limits: np.ndarray  # (2, n): each bus's v_min, then its v_max
    gen_bus: np.ndarray  # bus position of each in-service generator, in case order
    load_bus: np.ndarray  # bus position of each load
    q_limits: np.ndarray  # (2, n): per-unit sums of each bus's generators' q_min, then q_max
    has_gen: np.ndarray  # True at buses with an in-service generator
    table: BranchTable
    jacobian: JacobianMap  # shared by every edit, as labels is
    memo: dict  # (frozenset of out, query) -> value; shared by every edit
    out: tuple = ()

    @classmethod
    def of(cls, case) -> Topology:
        index = {b.id: i for i, b in enumerate(case.buses)}
        labels = {}
        for k, br in enumerate(case.branches):  # in and out of service; the first wins
            labels.setdefault((min(br.from_bus, br.to_bus), max(br.from_bus, br.to_bus),
                               br.circuit), k)
        kinds = [b.kind.value for b in case.buses]
        if "slack" not in kinds:  # every solve, edit and walk starts from it
            raise CaseValidationError("no slack bus")
        live = [(k, br) for k, br in enumerate(case.branches) if br.in_service]
        ends = np.array([(k, index[br.from_bus], index[br.to_bus]) for k, br in live], dtype=int)
        stamps = []
        for _, br in live:
            ys = 1.0 / complex(br.r, br.x)
            bc = 1j * br.b_shunt / 2.0
            stamps.append(((ys + bc) / (br.tap * br.tap), ys + bc, -ys / br.tap))
        dc = np.array([(1.0 / (br.x * br.tap), br.mva_rating) for _, br in live], dtype=float)
        pos, f, t = ends.reshape(-1, 3).T
        n = len(case.buses)
        # per branch ff, tt, ft, tf: the order build_ybus sums a cell's branches in
        cells = np.stack([f * (n + 1), t * (n + 1), f * n + t, t * n + f], axis=1)
        columns = (pos, f, t, *dc.reshape(-1, 2).T, cells,
                   np.array(stamps, dtype=complex).reshape(-1, 3)[:, [0, 1, 2, 2]])
        pv = np.array([k == "pv" for k in kinds], dtype=bool)
        pq = np.array([k == "pq" for k in kinds], dtype=bool)
        stamped = np.zeros(n * n, dtype=bool)
        stamped[cells[:, 2:]] = True  # the ft and tf cells
        stamped[::n + 1] = False
        flat = np.concatenate([np.arange(n) * (n + 1), np.flatnonzero(stamped)])
        jmap = jacobian_map(flat, *np.divmod(flat, n), pv, pq)
        for a in jmap[:7] + jmap[8:]:  # every array; m is an int
            _read_only(a)
        gens = [g for g in case.generators if g.in_service]
        gen_bus = np.array([index[g.bus] for g in gens], dtype=int)
        q_limits = np.zeros((2, n))
        # np.add.at sums the units of a bus in case order
        np.add.at(q_limits[0], gen_bus, [g.q_min for g in gens])
        np.add.at(q_limits[1], gen_bus, [g.q_max for g in gens])
        buses = (pv, pq, np.array([1.0 if b.v_setpoint is None else b.v_setpoint for b in case.buses]),
                 np.array([[b.v_min for b in case.buses], [b.v_max for b in case.buses]]),
                 gen_bus, np.array([index[l.bus] for l in case.loads], dtype=int),
                 q_limits / case.base_mva, np.bincount(gen_bus, minlength=n) > 0)
        return cls(index, labels, kinds.index("slack"), *map(_read_only, buses),
                   BranchTable(*map(_read_only, columns)), jmap, {})

    def without(self, k) -> Topology:
        """This topology with the branch at position ``k`` switched out."""
        return self._replace(out=self.out + (k,))

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

    def recall(self, query, make):
        """The memo's value for this topology's outage set and ``query``, a
        hashable tuple that names its kind first; ``make()`` computes it the
        first time. Only small read-only values that the topology alone
        fixes belong there."""
        key = (frozenset(self.out), query)
        try:
            return self.memo[key]
        except KeyError:
            value = self.memo[key] = make()
            return value

    @property
    def cuts(self) -> MappingProxyType:
        """Read-only: position of each in-service branch whose outage islands
        buses -> the positions of those buses, from one walk from the slack
        (``islands``) per outage set."""
        return self.recall(("cuts",), self._walk)

    def _walk(self):
        tb = self.branches()
        ends = list(zip(tb.pos.tolist(), tb.f.tolist(), tb.t.tolist()))
        cuts = islands(len(self.vset), self.slack, ends)[1]
        return MappingProxyType({k: tuple(buses) for k, buses in cuts.items()})


# The measurement layout in column order: (feature name prefix,
# ``PowerFlowSolution`` field, True for a block over load buses, False for one
# over in-service branches).
MEASUREMENTS = (
    ("vm_bus", "v_mag", True),
    ("va_bus", "v_ang", True),
    ("imag_br", "i_from", False),
    ("pf_br", "p_from", False),
    ("qf_br", "q_from", False),
)


class FeatureLayout(NamedTuple):
    """A case's features: their names in column order, each bus block by
    load bus id and each branch block by in-service branch, and the
    positions of the buses that carry load, by ascending id."""

    names: tuple
    load_pos: np.ndarray


def measurement_layout(case) -> FeatureLayout:
    """``case``'s ``MEASUREMENTS`` blocks over its load buses and its
    in-service branches."""
    load_ids = sorted({l.bus for l in case.loads})
    labels = [case.branches[k].label() for k in case.branch_table.pos.tolist()]
    names = tuple(f"{prefix}{key}" for prefix, _, by_bus in MEASUREMENTS
                  for key in (load_ids if by_bus else labels))
    index = case.topology.bus_index
    return FeatureLayout(names, _read_only(np.array([index[i] for i in load_ids], dtype=int)))


def _bus_sums(n, base_mva, gen_bus, p_gen, load_bus, p_load, q_load):
    """The per-unit net complex injection and load Q of ``n`` buses, from
    the in-service generators' MW at bus positions ``gen_bus`` and the
    loads' MW and MVar at ``load_bus``."""
    p, pl, ql = np.zeros((3, n))
    # np.add.at sums the units of a bus in case order
    np.add.at(p, gen_bus, p_gen)
    np.add.at(pl, load_bus, p_load)
    np.add.at(ql, load_bus, q_load)
    return ((p - pl) + 1j * (0.0 - ql)) / base_mva, ql / base_mva


def bus_injections(case) -> Injections:
    """``case``'s net injection and load Q, summed on its topology's
    generator and load bus positions by ``_bus_sums``, which
    ``powerflow.trace_pv_curve``'s load steps call too."""
    topo, gens = case.topology, [g for g in case.generators if g.in_service]
    sums = _bus_sums(len(case.buses), case.base_mva, topo.gen_bus, [g.p_mw for g in gens],
                     topo.load_bus, [l.p_mw for l in case.loads], [l.q_mvar for l in case.loads])
    return Injections(*map(_read_only, sums))
