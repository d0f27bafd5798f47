"""Broadcast message identity and canonical ordering.

A message is identified by the string ``"sender:index"``: the index is
the position of the message in its sender's broadcast sequence, so
identities are globally unique as long as each process broadcasts each
of its messages once.  Ids are plain strings everywhere; the simulator
keeps a message's payload in a table keyed by its id.  The canonical
order (sender, then index) is the tie-break order used everywhere a
deterministic choice among messages is needed.
"""

from __future__ import annotations


def msg_key(mid: str) -> tuple[int, int]:
    """Canonical sort key of a message id string."""
    sender, index = mid.split(":")
    return (int(sender), int(index))


def sort_ids(mids) -> list[str]:
    return sorted(mids, key=msg_key)


def min_id(mids) -> str:
    return min(mids, key=msg_key)
