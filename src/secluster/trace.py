"""Messages on the air, and the trace that records every transmission.

A local broadcast is one `TraceEvent`.  A blind flood puts one
transmission on the air for every node of its origin's component, so it
is stored as one `FloodEvent` and expanded into its origin broadcast and
relays only when read, by a `udg.walk` over the neighbourhood snapshot it
holds.  A `Trace` therefore takes memory in proportion to the messages
sent, not to the transmissions: it is its list of records, and it counts
a flood's transmissions by the flood's `reach`, without expanding it.

An `Envelope` records what was sealed: the key and the plaintext.  Who
can read it is decided by key possession, so no ciphertext is built; the
tests' reference cipher (`tests/oracle.py`) rebuilds the payload bytes
from these fields and the record's position in the trace.  `Envelope`
and `TraceEvent` are immutable named tuples: one of each is built for
every message sent, and a tuple is built in half the time of a frozen
dataclass.  The keys they carry (`keying.Key`) and the node positions
(`udg.Point`) are named tuples for the same reason.  The simulator builds
its records with `from_fields(TraceEvent, fields)`, which makes the same
tuple as `TraceEvent(*fields)` without the generated constructor's
Python-level argument parsing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from .keying import Key
from .udg import walk


# `from_fields(cls, fields)` builds named tuple `cls` from the tuple of its
# field values, in field order, as the generated `cls.__new__` does after
# it has bound its arguments; skipping that binding saves about 150 ns of
# the 350 ns a `TraceEvent` takes (Python 3.11, timeit).  It checks
# nothing, so `fields` must hold exactly one value per field.
from_fields = tuple.__new__


class Kind(Enum):
    JOIN_REQ = "JOIN_REQ"
    JOIN_APRV = "JOIN_APRV"
    GD_ERR = "GD_ERR"
    ORP_ERR = "ORP_ERR"
    REKEY_TO_NEW = "REKEY_TO_NEW"
    REKEY_BCAST = "REKEY_BCAST"
    LEAVE = "LEAVE"


class Envelope(NamedTuple):
    """One sealed message: `plaintext` from `sender` under `key`.

    A receiver opens it iff it holds the key whose id is `key_fingerprint`;
    a key's fingerprint is its id, the label it was planned under.
    """

    sender: int
    kind: Kind
    key: Key
    plaintext: bytes

    key_fingerprint = property(lambda self: self.key.key_id)


class TraceEvent(NamedTuple):
    """One local broadcast of `envelope` by `transmitter` to `receivers`."""

    round: int
    envelope: Envelope
    receivers: tuple[int, ...]
    group_id: Optional[int]  # group context of the encrypting key
    transmitter: int  # who put it on the air (relays differ from sender)


@dataclass(frozen=True)
class FloodEvent:
    """One blind flood, stored once.

    It stands for the origin's broadcast and a relay of the same envelope
    by every other node of the origin's component, in `udg.walk` order
    over `nbrs`; each transmitter's receivers are its `nbrs` tuple.
    `nbrs` is the formation-time deployed neighbourhood map, shared by
    that formation's floods and never changed, so later joins and leaves
    do not change what a flood expands to.  `reach` is the component's size:
    the number of transmissions the flood put on the air.
    """

    round: int
    envelope: Envelope
    group_id: Optional[int]
    reach: int
    nbrs: dict[int, tuple[int, ...]] = field(repr=False, compare=False)


class Trace:
    """An append-only log, read as TraceEvents, one per transmission.

    `records` holds TraceEvents and FloodEvents in order, one per message
    sent.  Iteration expands a flood only when it reaches it, origin
    broadcast first, and every event of a flood carries the origin's
    `Envelope` object.
    """

    def __init__(self) -> None:
        self.records: list[TraceEvent | FloodEvent] = []

    def __len__(self) -> int:
        return sum(rec.reach if type(rec) is FloodEvent else 1 for rec in self.records)

    def __iter__(self) -> Iterator[TraceEvent]:
        for rec in self.records:
            if type(rec) is FloodEvent:
                nbrs, env = rec.nbrs, rec.envelope
                for t in walk(nbrs, env.sender):
                    yield TraceEvent(rec.round, env, nbrs[t], rec.group_id, t)
            else:
                yield rec


def write_trace_csv(trace: Trace, path: Path | str) -> None:
    """Write one `round,sender,kind,key_fingerprint,receivers` row per
    transmission; sender is the transmitter, -1 the base station, and
    receivers are joined by `;`."""
    # No field can hold a comma, quote or newline (ints, kind names, key
    # labels such as `rekey:3:1`), so rows are formatted directly, as
    # csv.writer would write them.  A flood is written in one piece
    # straight from its flood order, with each transmitter's id and
    # receivers cached by node id within one snapshot.
    kind_value = {k: k.value for k in Kind}
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
                for t in walk(snapshot, env.sender):
                    tail = tails.get(t)
                    if tail is None:
                        tail = tails[t] = (str(t), ";".join(map(str, snapshot[t])) + "\n")
                    rows.append(f"{rnd}{tail[0]}{kind_fp}{tail[1]}")
                write("".join(rows))
                continue
            write(f"{rec.round},{rec.transmitter},{kind_value[env.kind]},"
                  f"{env.key_fingerprint},{';'.join(map(str, rec.receivers))}\n")
