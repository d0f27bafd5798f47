"""Per-message broadcast on top of set delivery.

Broadcasting is a direct delegation to the set broadcast; each delivered
message set is unpacked into individual message deliveries.  Within one
set the emission order is the canonical (sender, index) order: members of
one set carry no order information of their own, and a fixed rule keeps
every process's per-message delivery sequence deterministic.  A run sorts
by the keys of its ``messages.MsgKeys`` (MEM's, ``kscd.MemCounts.keys``),
so no delivery parses an id again.

Traces record both granularities: deliver-set events preserve the set
boundaries (needed by the set-level checks) and deliver-msg events carry
the per-message sequence (the source of the delivery partial order).
"""

from __future__ import annotations


def unpack_order(mids, key) -> list[str]:
    """Order in which the members of one delivered set are emitted.
    ``key`` maps an id to its canonical key: a run passes its
    ``MsgKeys`` lookup, which parses each id once; ``messages.msg_key``
    parses it on every call."""
    return sorted(mids, key=key)
