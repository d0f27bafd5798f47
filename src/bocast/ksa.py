"""Repeated k-set agreement on top of per-message broadcast.

A proposer broadcasts the pair (instance, value) and returns the value of
the first pair with that instance number it delivers.  Only proposals are
pairs: each process knows which delivered messages are proposals by their
ids, so a broadcast payload is never decided, whatever it holds.  The
decisions table keeps at most one pair per instance number ever: later
pairs with a seen instance number are ignored.  A decided pair is removed
from the pending table when the proposer returns, but the instance number
stays recorded so re-deliveries can never resurrect it.
"""

from __future__ import annotations


class DecisionTable:
    def __init__(self):
        self.pending: dict[int, str] = {}
        self.seen: set[int] = set()

    def on_deliver(self, nb: int, value: str) -> None:
        """Feed one delivered proposal of ``value`` to instance ``nb``."""
        if nb in self.seen:
            return
        self.seen.add(nb)
        self.pending[nb] = value

    def ready(self, nb: int) -> bool:
        return nb in self.pending

    def take(self, nb: int) -> str:
        return self.pending.pop(nb)
