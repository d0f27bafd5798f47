"""Repeated k-set agreement on top of per-message broadcast.

A proposer broadcasts the pair (instance, value) and returns the value of
the first pair with that instance number it delivers.  Only proposals are
pairs: each process knows which delivered messages are proposals by their
ids, so a broadcast payload is never decided, whatever it holds.  The
decisions table holds the first delivered value of each instance number;
later pairs with that number are ignored, so no re-delivery changes it.
``take`` reads without removing: a process's propose instances strictly
increase (validation enforces it), so it never waits on a taken one.
"""

from __future__ import annotations


class DecisionTable:
    def __init__(self):
        self.first: dict[int, str] = {}  # instance -> its first delivered value

    def on_deliver(self, nb: int, value: str) -> None:
        """Feed one delivered proposal of ``value`` to instance ``nb``."""
        self.first.setdefault(nb, value)

    def ready(self, nb: int) -> bool:
        return nb in self.first

    def take(self, nb: int) -> str:
        return self.first[nb]
