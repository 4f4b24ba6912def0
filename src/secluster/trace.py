"""Messages on the air, and the trace that records every transmission.

A local broadcast is one `TraceEvent`.  A blind flood puts one
transmission on the air for every node of its origin's component, so it
is stored as one `FloodEvent` and expanded into its origin broadcast and
relays only when read, from the neighbourhood snapshot it holds.  A
`Trace` therefore takes memory in proportion to the messages sent, not
to the transmissions, and knows its length without expanding anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator, Optional, Union


class Kind(Enum):
    JOIN_REQ = "JOIN_REQ"
    JOIN_APRV = "JOIN_APRV"
    GD_ERR = "GD_ERR"
    ORP_ERR = "ORP_ERR"
    REKEY_TO_NEW = "REKEY_TO_NEW"
    REKEY_BCAST = "REKEY_BCAST"
    LEAVE = "LEAVE"


@dataclass(frozen=True)
class Envelope:
    """One encrypted transmission.

    A receiver can open the payload iff it holds the key whose fingerprint
    is `key_fingerprint`; with any other key, authenticated decryption
    fails detectably.
    """

    sender: int
    kind: Kind
    key_fingerprint: str
    payload: bytes


@dataclass(frozen=True)
class TraceEvent:
    """One local broadcast of `envelope` by `transmitter` to `receivers`."""

    round: int
    envelope: Envelope
    receivers: tuple[int, ...]
    group_id: Optional[int]  # group context of the encrypting key
    transmitter: int  # who put it on the air (relays differ from sender)


def flood_order(nbrs: dict[int, tuple[int, ...]], origin: int) -> list[int]:
    """Every node a blind flood from `origin` reaches over `nbrs`, in the
    order they transmit: the origin, then breadth first, each node's
    neighbours in tuple order."""
    order, reached = [origin], {origin}
    add, append = reached.add, order.append
    for v in order:  # the list grows while it is walked
        for nb in nbrs[v]:
            if nb not in reached:
                add(nb)
                append(nb)
    return order


@dataclass(frozen=True)
class FloodEvent:
    """One blind flood, stored once.

    It stands for the origin's broadcast and a relay of the same envelope
    by every other node of the origin's component, in `flood_order` over
    `nbrs`; each transmitter's receivers are its `nbrs` tuple.  `nbrs` is
    the formation-time deployed neighbourhood map, shared by that
    formation's floods and never changed, so later joins and leaves do
    not change what a flood expands to.  `reach` is the component's size:
    the number of transmissions the flood put on the air.
    """

    round: int
    envelope: Envelope
    group_id: Optional[int]
    reach: int
    nbrs: dict[int, tuple[int, ...]] = field(repr=False, compare=False)

    def events(self) -> Iterator[TraceEvent]:
        """The flood's transmissions, origin broadcast first."""
        nbrs, env = self.nbrs, self.envelope
        for t in flood_order(nbrs, env.sender):
            yield TraceEvent(self.round, env, nbrs[t], self.group_id, t)


Record = Union[TraceEvent, FloodEvent]


class Trace:
    """An append-only log, read as TraceEvents, one per transmission.

    `records` holds TraceEvents and FloodEvents in order.  Iteration
    expands a flood only when it reaches it, and every event of a flood
    carries the origin's `Envelope` object.
    """

    def __init__(self) -> None:
        self.records: list[Record] = []
        self._len = 0

    def append(self, record: Record) -> None:
        self.records.append(record)
        self._len += record.reach if type(record) is FloodEvent else 1

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[TraceEvent]:
        for rec in self.records:
            if type(rec) is FloodEvent:
                yield from rec.events()
            else:
                yield rec


def write_trace_csv(trace: Trace, path: Path | str) -> None:
    """Write one `round,sender,kind,key_fingerprint,receivers` row per
    transmission; sender is the transmitter, -1 the base station, and
    receivers are joined by `;`."""
    # No field can hold a comma, quote or newline (ints, kind names, hex
    # fingerprints), so rows are formatted directly, as csv.writer would
    # write them.  A flood is written in one piece straight from its flood
    # order, with each transmitter's id and receivers cached by node id
    # within one snapshot; other events join each distinct receiver tuple
    # once.
    kind_value = {k: k.value for k in Kind}
    joined: dict[tuple[int, ...], str] = {}
    snapshot, tails = None, {}
    with open(path, "w", newline="") as f:
        write = f.write
        write("round,sender,kind,key_fingerprint,receivers\n")
        for rec in trace.records:
            env = rec.envelope
            if type(rec) is FloodEvent:
                if rec.nbrs is not snapshot:
                    snapshot, tails = rec.nbrs, {}
                rnd, rows = f"{rec.round},", []
                kind_fp = f",{kind_value[env.kind]},{env.key_fingerprint},"
                for t in flood_order(snapshot, env.sender):
                    tail = tails.get(t)
                    if tail is None:
                        tail = tails[t] = (str(t), ";".join(map(str, snapshot[t])) + "\n")
                    rows.append(f"{rnd}{tail[0]}{kind_fp}{tail[1]}")
                write("".join(rows))
                continue
            receivers = joined.get(rec.receivers)
            if receivers is None:
                receivers = joined[rec.receivers] = ";".join(map(str, rec.receivers))
            write(f"{rec.round},{rec.transmitter},{kind_value[env.kind]},"
                  f"{env.key_fingerprint},{receivers}\n")
