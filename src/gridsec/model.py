"""In-memory network model, case-file parsing, and topology edits.

All quantities are carried in physical units (MW, MVar, kV) except branch
impedances, which are per-unit on the system MVA base. Cases are immutable
values: every edit returns a new ``NetworkCase``. Each case caches the
read-only arrays that the solver reads (``topology``, ``branch_table`` and
``injections``, see ``arrays``) and its ``feature_layout``; an edit hands
the new case those of the first three that it leaves unchanged, and every
edit shares the parsed case's generator layout (no edit moves a unit) and
memo (``Topology.recall``). Connectivity has one source, a walk from the
slack (``arrays.islands``): validation reads the buses it misses, and an
outage the buses it cuts off.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from types import MappingProxyType

from .arrays import Topology, bus_injections, islands, measurement_layout
from .errors import (
    CaseFormatError,
    CaseValidationError,
    IslandingError,
    open_text,
)


def _total(values):
    """The floats ``values`` added left to right: Python 3.12's ``sum``
    compensates its rounding (gh-100425) and so moves the last bits of the
    load and capacity totals that rescheduling divides by."""
    return reduce(operator.add, values, 0.0)


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

    # the case's read-only arrays (see ``arrays``), each built at first use
    topology = cached_property(Topology.of)
    branch_table = cached_property(lambda self: self.topology.branches())  # in-service rows
    injections = cached_property(bus_injections)
    feature_layout = cached_property(measurement_layout)  # for datasets made from this case

    def bus_index(self):
        """Read-only map bus id -> position in ``buses``."""
        return MappingProxyType(self.topology.bus_index)

    def total_load(self):
        """(P_MW, Q_MVar) summed over all loads."""
        return (_total(l.p_mw for l in self.loads), _total(l.q_mvar for l in self.loads))

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
        k = self.topology.labels.get((min(a, b), max(a, b), circuit))
        if k is None:
            raise CaseValidationError(f"no branch {spec!r} in case")
        return k


def _with_arrays(case: NetworkCase, **arrays) -> NetworkCase:
    """Seed an edited ``case`` with the arrays that the edit left unchanged."""
    case.__dict__.update(arrays)
    return case


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
    index = {b.id: i for i, b in enumerate(case.buses)}
    ends = [(k, index[br.from_bus], index[br.to_bus])
            for k, br in enumerate(case.branches) if br.in_service]
    missed, _ = islands(len(ids), index[slacks[0]], ends)
    if missed:
        raise CaseValidationError(f"disconnected bus {min(ids[p] for p in missed)}")
    capacity = _total(g.p_max for g in case.generators if g.in_service)
    p_load, _ = case.total_load()
    if capacity < 1.05 * p_load:
        raise CaseValidationError(
            f"generation capacity {capacity:.1f} MW below 1.05 x load {p_load:.1f} MW"
        )


def apply_outage(case: NetworkCase, branch_index: int) -> NetworkCase:
    """Return a copy of the case with one branch switched out.

    Raises ``IslandingError`` when the outage disconnects buses from the
    slack; package code reads ``case.topology.cuts`` first, so only an
    outside caller meets it.
    """
    if not 0 <= branch_index < len(case.branches):
        raise CaseValidationError(f"branch index {branch_index} out of range")
    br = case.branches[branch_index]
    if not br.in_service:
        raise CaseValidationError(f"branch {br.label()} is already out of service")
    cut = case.topology.cuts.get(branch_index)
    if cut:
        lost = sorted(case.buses[p].id for p in cut)
        raise IslandingError(f"outage disconnects bus set {set(lost)}", lost)
    branches = list(case.branches)
    branches[branch_index] = replace(br, in_service=False)
    outaged = NetworkCase(case.base_mva, case.buses, tuple(branches), case.generators, case.loads)
    return _with_arrays(outaged, topology=case.topology.without(branch_index),
                        injections=case.injections)


def scale_loads(case: NetworkCase, factors) -> NetworkCase:
    """Scale each load's P and Q by its factor (scalar or one per load)."""
    try:
        factors = [float(factors)] * len(case.loads)
    except TypeError:
        factors = [float(f) for f in factors]
    if len(factors) != len(case.loads):
        raise CaseValidationError("one scale factor per load required")
    for f in factors:
        if not math.isfinite(f):
            raise CaseValidationError(f"scale factors must be finite, not {f!r}")
    loads = tuple(
        Load(l.bus, l.p_mw * f, l.q_mvar * f) for l, f in zip(case.loads, factors)
    )
    scaled = NetworkCase(case.base_mva, case.buses, case.branches, case.generators, loads)
    return _with_arrays(scaled, topology=case.topology)


def _dispatch(gens, slack_id, delta_p) -> dict:
    """The outputs (MW), by index in ``gens``, of the in-service generators
    off bus ``slack_id`` with ``p_max > 0``, once ``delta_p`` is spread over
    them as ``reschedule_generation`` says; empty when there are none."""
    movable = [
        i for i, g in enumerate(gens)
        if g.in_service and g.bus != slack_id and g.p_max > 0
    ]
    outputs = {i: gens[i].p_mw for i in movable}
    remaining = float(delta_p)
    active = set(movable)
    while abs(remaining) > 1e-12 and active:
        cap = _total(gens[i].p_max for i in active)
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
    return outputs


def reschedule_generation(case: NetworkCase, delta_p: float) -> NetworkCase:
    """Spread a load change over non-slack generators, capacity-proportional.

    Each in-service generator off the slack bus moves by
    ``delta_p * p_max_g / sum(p_max)``; units pinned at a bound have their
    residual redistributed over the rest. The slack picks up whatever no
    unit can absorb, inside the power flow. ``_dispatch`` does the
    arithmetic, for ``powerflow.trace_pv_curve`` too.
    """
    if not math.isfinite(delta_p):
        raise CaseValidationError(f"delta_p must be finite, not {delta_p!r}")
    if delta_p == 0.0:
        return case
    outputs = _dispatch(case.generators, case.buses[case.topology.slack].id, delta_p)
    if not outputs:
        # Only the slack can balance; it does so inside the power flow.
        return case
    new_gens = tuple(
        Generator(g.bus, outputs[i], g.q_min, g.q_max, g.p_max, g.in_service)
        if i in outputs else g
        for i, g in enumerate(case.generators)
    )
    moved = NetworkCase(case.base_mva, case.buses, case.branches, new_gens, case.loads)
    return _with_arrays(moved, topology=case.topology)


# ---------------------------------------------------------------------------
# Case-file format (format_version 1)
#
# UTF-8 text; '#' starts a comment; sections [BASE] [BUS] [BRANCH] [GEN]
# [LOAD]; whitespace-delimited columns; '-' marks an absent optional field.
# [BASE] holds one MVA value. ``_ROWS`` is the format of the other four: each
# row is one record, and the table gives its class, the column counts a row
# may have, the usage error, and its columns in file order as (name in
# errors, reader). A reader takes one token and raises ValueError on a bad one.

FORMAT_VERSION = 1


def _float(token):
    value = float(token)
    if math.isfinite(value):
        return value
    raise ValueError(token)


def _flag(token):
    """An in_service column: 1 is in service, 0 is out, anything else an error."""
    flag = int(token)
    if flag not in (0, 1):
        raise ValueError(token)
    return flag == 1


def _kind(token):
    return BusKind(token.lower())


def _setpoint(token):
    return None if token == "-" else _float(token)


_ROWS = {
    "BUS": (Bus, (6,), "needs 6 columns: id kind base_kv v_set v_min v_max", (
        ("bus id", int), ("bus kind", _kind), ("base_kv", _float),
        ("v_setpoint", _setpoint), ("v_min", _float), ("v_max", _float),
    )),
    # a row without the trailing circuit takes Branch's default, 1
    "BRANCH": (Branch, (8, 9),
               "needs 8 or 9 columns: from to r x b tap rating in_service [circuit]", (
        ("from bus", int), ("to bus", int), ("r", _float), ("x", _float),
        ("b_shunt", _float), ("tap", _float), ("mva_rating", _float),
        ("in_service flag", _flag), ("circuit", int),
    )),
    "GEN": (Generator, (6,), "needs 6 columns: bus p_mw q_min q_max p_max in_service", (
        ("gen bus", int), ("p_mw", _float), ("q_min", _float), ("q_max", _float),
        ("p_max", _float), ("in_service flag", _flag),
    )),
    "LOAD": (Load, (3,), "needs 3 columns: bus p_mw q_mvar", (
        ("load bus", int), ("p_mw", _float), ("q_mvar", _float),
    )),
}

_SECTIONS = ("BASE", *_ROWS)


def _read(read, token, what, line_no):
    """``read(token)``, where a ValueError is reported as a bad ``what``."""
    try:
        return read(token)
    except ValueError:
        raise CaseFormatError(f"bad {what} {token!r}", line_no) from None


def parse_case(text: str) -> NetworkCase:
    """Parse case-file text into a validated ``NetworkCase``."""
    base_mva = None
    rows = {name: [] for name in _ROWS}
    section = None
    saw_version = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("format_version"):
            _, _, ver = line.partition(":")
            if _read(int, ver.strip(), "format version", line_no) != FORMAT_VERSION:
                raise CaseFormatError(f"unsupported format version {ver.strip()}", line_no)
            saw_version = True
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().upper()
            if name not in _SECTIONS:
                raise CaseFormatError(f"unknown section [{name}]", line_no)
            section = name
            if name in _ROWS:  # looked up once per section, not once per row
                record, counts, usage, columns = _ROWS[name]
                readers = [read for _, read in columns]
                records = rows[name]
            continue
        if not saw_version:
            raise CaseFormatError("missing format_version header", line_no)
        if section is None:
            raise CaseFormatError("data before any section", line_no)
        cols = line.split()
        if section == "BASE":
            if len(cols) != 1 or base_mva is not None:
                raise CaseFormatError("[BASE] takes a single MVA value", line_no)
            base_mva = _read(_float, cols[0], "base MVA", line_no)
        elif len(cols) not in counts:
            raise CaseFormatError(f"[{section}] {usage}", line_no)
        else:
            try:
                records.append(record(*[read(token) for read, token in zip(readers, cols)]))
            except ValueError:  # name the first bad column
                for (what, read), token in zip(columns, cols):
                    _read(read, token, what, line_no)
    if base_mva is None:
        raise CaseFormatError("missing [BASE] section")
    case = NetworkCase(base_mva, *map(tuple, rows.values()))
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
