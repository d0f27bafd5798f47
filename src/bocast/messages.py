"""Broadcast message identity and canonical ordering.

A message is identified by the string ``"sender:index"``: the index is
the position of the message in its sender's broadcast sequence, so
identities are globally unique as long as each process broadcasts each
of its messages once.  Ids are plain strings everywhere.  The simulator
makes each id once, at its invoke (``sim._Process.main_step``), and MEM
keeps it beside the count that names it (``kscd.MemCounts.ids``), so a
run's rows and engines hold one string per id.  The canonical
order (sender, then index) is the tie-break order used everywhere a
deterministic choice among messages is needed.  A run parses each id
into that order's key once: MEM also owns the run's ``MsgKeys``
(``kscd.MemCounts.keys``), through which the engines and the per-message
unpacking (``kbo.unpack_order``) look keys up.  The checker calls
``msg_key`` and ``sort_ids`` directly.  An id is written in
canonical form: two decimal integers without sign, space, underscore or
leading zero.  Scenario validation and the trace reader accept ids in
that form only; whether the sender is one of 1..n is left to the
checker's validity verdicts.
"""

from __future__ import annotations

import re

_CANONICAL_ID = re.compile(r"(?:0|[1-9][0-9]*):(?:0|[1-9][0-9]*)")


def is_msg_id(value) -> bool:
    """Whether ``value`` is a message id string in canonical form."""
    return type(value) is str and _CANONICAL_ID.fullmatch(value) is not None


def msg_key(mid: str) -> tuple[int, int]:
    """Canonical sort key of a message id string."""
    sender, index = mid.split(":")
    return (int(sender), int(index))


def sort_ids(mids) -> list[str]:
    return sorted(mids, key=msg_key)


class MsgKeys(dict):
    """Each message id looked up so far, mapped to its canonical key: the
    first lookup of an id parses it with ``msg_key`` and keeps the key, so
    a run that looks its ids up here parses each one once."""

    __slots__ = ()

    def __missing__(self, mid: str) -> tuple[int, int]:
        key = self[mid] = msg_key(mid)
        return key
