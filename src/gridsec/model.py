"""In-memory network model, case-file parsing, and topology edits.

All quantities are carried in physical units (MW, MVar, kV) except branch
impedances, which are per-unit on the system MVA base. Cases are immutable
values: every edit returns a new ``NetworkCase``. Each case carries one
cached array view (``NetworkCase.arrays``, see ``arrays``) that the solver
reads; an edit hands the new case the parts of its view that it leaves
unchanged.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType

from .arrays import CaseArrays
from .errors import (
    CaseFormatError,
    CaseValidationError,
    IslandingError,
    open_text,
)


class BusKind(enum.Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


@dataclass(frozen=True)
class Bus:
    id: int
    kind: BusKind
    base_kv: float
    v_setpoint: float | None = None  # per-unit, PV/slack only
    v_min: float = 0.9
    v_max: float = 1.1


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float  # per-unit series resistance
    x: float  # per-unit series reactance
    b_shunt: float = 0.0  # per-unit total line charging
    tap: float = 1.0  # off-nominal ratio, on the from side; 1.0 for lines
    mva_rating: float = 9999.0
    in_service: bool = True
    circuit: int = 1

    def label(self):
        if self.circuit != 1:
            return f"{self.from_bus}-{self.to_bus}:{self.circuit}"
        return f"{self.from_bus}-{self.to_bus}"


@dataclass(frozen=True)
class Generator:
    bus: int
    p_mw: float
    q_min: float
    q_max: float
    p_max: float
    in_service: bool = True


@dataclass(frozen=True)
class Load:
    bus: int
    p_mw: float
    q_mvar: float


@dataclass(frozen=True)
class NetworkCase:
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    loads: tuple[Load, ...]

    @cached_property
    def arrays(self) -> CaseArrays:
        """The case's derived arrays, built once per case (``CaseArrays``)."""
        return CaseArrays(self)

    def bus_index(self):
        """Read-only map bus id -> position in ``buses``."""
        return MappingProxyType(self.arrays.topology.bus_index)

    def slack_bus(self):
        for b in self.buses:
            if b.kind is BusKind.SLACK:
                return b
        raise CaseValidationError("no slack bus")

    def total_load(self):
        """(P_MW, Q_MVar) summed over all loads."""
        return (sum(l.p_mw for l in self.loads), sum(l.q_mvar for l in self.loads))

    def find_branch(self, spec):
        """Resolve a ``from-to[:circuit]`` label to a branch index.

        The label is orientation-insensitive; every edit of a case keeps the
        label map of the case it was made from.
        """
        text, colon, circ_text = spec.strip().partition(":")
        try:
            circuit = int(circ_text) if colon else 1
            a_text, b_text = text.split("-", 1)
            a, b = int(a_text), int(b_text)
        except ValueError:
            raise CaseFormatError(f"bad branch label {spec!r}") from None
        k = self.arrays.topology.labels.get((min(a, b), max(a, b), circuit))
        if k is None:
            raise CaseValidationError(f"no branch {spec!r} in case")
        return k


def _with_arrays(case: NetworkCase, topology, injections=None) -> NetworkCase:
    """Seed an edited ``case``'s view with what the edit left unchanged."""
    case.__dict__["arrays"] = CaseArrays(case, topology, injections)
    return case


def connected_buses(case: NetworkCase):
    """Bus ids reachable from the slack over in-service branches (BFS)."""
    start_id = case.slack_bus().id
    adj = {b.id: [] for b in case.buses}
    for br in case.branches:
        if br.in_service:
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)
    seen = {start_id}
    queue = deque([start_id])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def validate_case(case: NetworkCase):
    """Raise ``CaseValidationError`` on the first violated invariant."""
    if case.base_mva <= 0:
        raise CaseValidationError("base_mva must be positive")
    ids = [b.id for b in case.buses]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise CaseValidationError(f"duplicate bus ids {dupes}")
    slacks = [b.id for b in case.buses if b.kind is BusKind.SLACK]
    if not slacks:
        raise CaseValidationError("no slack bus")
    if len(slacks) > 1:
        raise CaseValidationError(f"multiple slack buses {slacks}")
    id_set = set(ids)
    for b in case.buses:
        if b.id < 1:
            raise CaseValidationError(f"bus id {b.id} < 1")
        if b.base_kv <= 0:
            raise CaseValidationError(f"bus {b.id}: base_kv must be positive")
        if not b.v_min < b.v_max:
            raise CaseValidationError(f"bus {b.id}: v_min must be below v_max")
        if b.kind is not BusKind.PQ and b.v_setpoint is None:
            raise CaseValidationError(f"bus {b.id}: {b.kind.value} bus needs v_setpoint")
    circuits = {}
    for br in case.branches:
        if br.x == 0.0:
            raise CaseValidationError(f"branch {br.label()}: zero reactance")
        if br.from_bus == br.to_bus:
            raise CaseValidationError(f"branch {br.label()}: from equals to")
        for end in (br.from_bus, br.to_bus):
            if end not in id_set:
                raise CaseValidationError(f"branch {br.label()}: unknown bus {end}")
        if br.mva_rating <= 0:
            raise CaseValidationError(f"branch {br.label()}: rating must be positive")
        if br.tap <= 0:
            raise CaseValidationError(f"branch {br.label()}: tap must be positive")
        # find_branch reads labels either way round, so a second branch on
        # the same ends and circuit could never be named
        first = circuits.setdefault((min(br.from_bus, br.to_bus), max(br.from_bus, br.to_bus),
                                     br.circuit), br)
        if first is not br:
            raise CaseValidationError(
                f"branch {br.label()}: same ends and circuit as branch {first.label()}")
    for g in case.generators:
        if g.bus not in id_set:
            raise CaseValidationError(f"generator at unknown bus {g.bus}")
        if g.q_min > g.q_max:
            raise CaseValidationError(f"generator at bus {g.bus}: q_min > q_max")
        if not 0.0 <= g.p_mw <= g.p_max:
            raise CaseValidationError(
                f"generator at bus {g.bus}: p_mw {g.p_mw} outside [0, {g.p_max}]"
            )
    for l in case.loads:
        if l.bus not in id_set:
            raise CaseValidationError(f"load at unknown bus {l.bus}")
    reachable = connected_buses(case)
    missing = sorted(id_set - reachable)
    if missing:
        raise CaseValidationError(f"disconnected bus {missing[0]}")
    capacity = sum(g.p_max for g in case.generators if g.in_service)
    p_load, _ = case.total_load()
    if capacity < 1.05 * p_load:
        raise CaseValidationError(
            f"generation capacity {capacity:.1f} MW below 1.05 x load {p_load:.1f} MW"
        )


def apply_outage(case: NetworkCase, branch_index: int) -> NetworkCase:
    """Return a copy of the case with one branch switched out.

    Raises ``IslandingError`` when the outage disconnects buses from the
    slack; the caller decides how to treat that (screening labels it
    Insecure).
    """
    if not 0 <= branch_index < len(case.branches):
        raise CaseValidationError(f"branch index {branch_index} out of range")
    br = case.branches[branch_index]
    if not br.in_service:
        raise CaseValidationError(f"branch {br.label()} is already out of service")
    branches = list(case.branches)
    branches[branch_index] = replace(br, in_service=False)
    outaged = NetworkCase(case.base_mva, case.buses, tuple(branches), case.generators, case.loads)
    view = case.arrays
    if branch_index in view.topology.bridges:
        reachable = connected_buses(outaged)
        lost = sorted(b.id for b in case.buses if b.id not in reachable)
        raise IslandingError(f"outage disconnects bus set {set(lost)}", lost)
    return _with_arrays(outaged, view.topology.without(branch_index), view.injections)


def scale_loads(case: NetworkCase, factors) -> NetworkCase:
    """Scale each load's P and Q by its factor (scalar or one per load)."""
    try:
        factors = [float(factors)] * len(case.loads)
    except TypeError:
        factors = [float(f) for f in factors]
    if len(factors) != len(case.loads):
        raise CaseValidationError("one scale factor per load required")
    loads = tuple(
        Load(l.bus, l.p_mw * f, l.q_mvar * f) for l, f in zip(case.loads, factors)
    )
    scaled = NetworkCase(case.base_mva, case.buses, case.branches, case.generators, loads)
    return _with_arrays(scaled, case.arrays.topology)


def reschedule_generation(case: NetworkCase, delta_p: float) -> NetworkCase:
    """Spread a load change over non-slack generators, capacity-proportional.

    Each in-service generator off the slack bus moves by
    ``delta_p * p_max_g / sum(p_max)``; units pinned at a bound have their
    residual redistributed over the rest. The slack picks up whatever no
    unit can absorb, inside the power flow.
    """
    if delta_p == 0.0:
        return case
    slack_id = case.slack_bus().id
    gens = list(case.generators)
    movable = [
        i for i, g in enumerate(gens)
        if g.in_service and g.bus != slack_id and g.p_max > 0
    ]
    if not movable:
        # Only the slack can balance; it does so inside the power flow.
        return case
    outputs = {i: gens[i].p_mw for i in movable}
    remaining = float(delta_p)
    active = set(movable)
    while abs(remaining) > 1e-12 and active:
        cap = sum(gens[i].p_max for i in active)
        moved = 0.0
        pinned = set()
        for i in active:
            share = remaining * gens[i].p_max / cap
            target = outputs[i] + share
            clamped = min(max(target, 0.0), gens[i].p_max)
            moved += clamped - outputs[i]
            outputs[i] = clamped
            if clamped in (0.0, gens[i].p_max) and clamped != target:
                pinned.add(i)
        remaining -= moved
        active -= pinned
        if not pinned and abs(remaining) > 1e-12:
            break  # nothing pinned but residual left: numerical dead end
    new_gens = tuple(
        Generator(g.bus, outputs[i], g.q_min, g.q_max, g.p_max, g.in_service)
        if i in outputs else g
        for i, g in enumerate(gens)
    )
    moved = NetworkCase(case.base_mva, case.buses, case.branches, new_gens, case.loads)
    return _with_arrays(moved, case.arrays.topology)


# ---------------------------------------------------------------------------
# Case-file format (format_version 1)
#
# UTF-8 text; '#' starts a comment; sections [BASE] [BUS] [BRANCH] [GEN]
# [LOAD]; whitespace-delimited columns; '-' marks an absent optional field.

FORMAT_VERSION = 1

_SECTIONS = ("BASE", "BUS", "BRANCH", "GEN", "LOAD")


def _parse_float(token, what, line_no):
    try:
        value = float(token)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise CaseFormatError(f"bad {what} {token!r}", line_no)


def _parse_int(token, what, line_no):
    try:
        return int(token)
    except ValueError:
        raise CaseFormatError(f"bad {what} {token!r}", line_no) from None


def _parse_flag(token, line_no):
    """An in_service column: 1 is in service, 0 is out, anything else an error."""
    flag = _parse_int(token, "in_service flag", line_no)
    if flag not in (0, 1):
        raise CaseFormatError(f"bad in_service flag {token!r}", line_no)
    return flag == 1


def parse_case(text: str) -> NetworkCase:
    """Parse case-file text into a validated ``NetworkCase``."""
    base_mva = None
    buses, branches, gens, loads = [], [], [], []
    section = None
    saw_version = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("format_version"):
            _, _, ver = line.partition(":")
            if _parse_int(ver.strip(), "format version", line_no) != FORMAT_VERSION:
                raise CaseFormatError(f"unsupported format version {ver.strip()}", line_no)
            saw_version = True
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().upper()
            if name not in _SECTIONS:
                raise CaseFormatError(f"unknown section [{name}]", line_no)
            section = name
            continue
        if not saw_version:
            raise CaseFormatError("missing format_version header", line_no)
        if section is None:
            raise CaseFormatError("data before any section", line_no)
        cols = line.split()
        if section == "BASE":
            if len(cols) != 1:
                raise CaseFormatError("[BASE] takes a single MVA value", line_no)
            base_mva = _parse_float(cols[0], "base MVA", line_no)
        elif section == "BUS":
            if len(cols) != 6:
                raise CaseFormatError("[BUS] needs 6 columns: id kind base_kv v_set v_min v_max", line_no)
            kind_text = cols[1].lower()
            try:
                kind = BusKind(kind_text)
            except ValueError:
                raise CaseFormatError(f"bad bus kind {cols[1]!r}", line_no) from None
            v_set = None if cols[3] == "-" else _parse_float(cols[3], "v_setpoint", line_no)
            buses.append(Bus(
                id=_parse_int(cols[0], "bus id", line_no),
                kind=kind,
                base_kv=_parse_float(cols[2], "base_kv", line_no),
                v_setpoint=v_set,
                v_min=_parse_float(cols[4], "v_min", line_no),
                v_max=_parse_float(cols[5], "v_max", line_no),
            ))
        elif section == "BRANCH":
            if len(cols) not in (8, 9):
                raise CaseFormatError(
                    "[BRANCH] needs 8 or 9 columns: from to r x b tap rating in_service [circuit]",
                    line_no,
                )
            branches.append(Branch(
                from_bus=_parse_int(cols[0], "from bus", line_no),
                to_bus=_parse_int(cols[1], "to bus", line_no),
                r=_parse_float(cols[2], "r", line_no),
                x=_parse_float(cols[3], "x", line_no),
                b_shunt=_parse_float(cols[4], "b_shunt", line_no),
                tap=_parse_float(cols[5], "tap", line_no),
                mva_rating=_parse_float(cols[6], "mva_rating", line_no),
                in_service=_parse_flag(cols[7], line_no),
                circuit=_parse_int(cols[8], "circuit", line_no) if len(cols) == 9 else 1,
            ))
        elif section == "GEN":
            if len(cols) != 6:
                raise CaseFormatError("[GEN] needs 6 columns: bus p_mw q_min q_max p_max in_service", line_no)
            gens.append(Generator(
                bus=_parse_int(cols[0], "gen bus", line_no),
                p_mw=_parse_float(cols[1], "p_mw", line_no),
                q_min=_parse_float(cols[2], "q_min", line_no),
                q_max=_parse_float(cols[3], "q_max", line_no),
                p_max=_parse_float(cols[4], "p_max", line_no),
                in_service=_parse_flag(cols[5], line_no),
            ))
        elif section == "LOAD":
            if len(cols) != 3:
                raise CaseFormatError("[LOAD] needs 3 columns: bus p_mw q_mvar", line_no)
            loads.append(Load(
                bus=_parse_int(cols[0], "load bus", line_no),
                p_mw=_parse_float(cols[1], "p_mw", line_no),
                q_mvar=_parse_float(cols[2], "q_mvar", line_no),
            ))
    if base_mva is None:
        raise CaseFormatError("missing [BASE] section")
    case = NetworkCase(
        base_mva=base_mva,
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(gens),
        loads=tuple(loads),
    )
    validate_case(case)
    return case


def load_case(path) -> NetworkCase:
    with open_text(path) as fh:
        return parse_case(fh.read())


def bundled_case_path(name: str):
    """Path to a case file shipped with the package (e.g. 'case9')."""
    from importlib.resources import files

    return files("gridsec").joinpath("cases", f"{name}.case")


def load_bundled_case(name: str) -> NetworkCase:
    return parse_case(bundled_case_path(name).read_text(encoding="utf-8"))
