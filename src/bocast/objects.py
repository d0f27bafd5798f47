"""Primitive shared objects: snapshot arrays and k-set-agreement objects.

The simulator executes every operation on these objects as a single
atomic scheduler step, so linearizability holds by construction and the
one-shot containment property (any two snapshot views are related by
inclusion) follows directly from the array semantics.  Each object
records the trace row of every access it performs through the ``emit``
it is built with (``Recorder.emit``): a write is ``[value]`` -> null, a
snapshot null -> the n cells, and a propose to the agreement object of
round r is the object ``KSET[r]`` with ``[value]`` -> the decided value.

A k-set-agreement object is the one primitive the stack cannot build
from reads and writes, so its behavior is a configurable policy:

* ``first-1``           - every caller decides the first proposed value.
* ``first-k-adversarial`` - default; each caller decides a seeded draw from
  the first min(k, distinct-so-far) proposed values at the moment of its
  call.  This maximizes disagreement while honoring the k-bound.
* ``echo``              - every caller decides its own value; only sound
  when at most k distinct values are proposed (k = n stress).
* ``first-k-plus-one-permissive`` - a deliberately broken oracle drawing
  from the first k+1 values; used as a mutation to prove the checker
  notices downstream violations.
"""

from __future__ import annotations

from .rng import SplitMix64


class ProtocolViolation(RuntimeError):
    """An object was driven outside its usage contract."""


class SnapshotArray:
    """Array of n single-writer cells with atomic write and read-all.

    ``one_shot=True`` additionally enforces the one-write-then-one-snapshot
    discipline per process.  A one-shot array's cells start empty (None);
    a multi-shot array's are counts and start at 0.  ``cells`` is the cells
    as written so far: a write replaces the list by a changed copy and never
    changes it, so a snapshot holds it as it is.
    """

    def __init__(self, n: int, object_id: str, emit, one_shot: bool = False):
        self.n = n
        self.object_id = object_id
        self.emit = emit
        self.one_shot = one_shot
        self.cells = [None if one_shot else 0] * n
        self._wrote = set()
        self._snapped = set()

    def write(self, pid: int, value) -> None:
        if not 1 <= pid <= self.n:
            raise ProtocolViolation(f"{self.object_id}: unknown process {pid}")
        if self.one_shot:
            if pid in self._wrote:
                raise ProtocolViolation(f"{self.object_id}: p{pid} wrote a one-shot cell twice")
            self._wrote.add(pid)
        cells = self.cells[:]
        cells[pid - 1] = value
        self.cells = cells
        self.emit(pid, self.object_id, "write", [value], None)

    def snapshot(self, pid: int) -> list:
        """The n cells as written so far: the array's own list, until its
        next write, which the trace row holds too.  Callers must not modify
        it."""
        if not 1 <= pid <= self.n:
            raise ProtocolViolation(f"{self.object_id}: unknown process {pid}")
        if self.one_shot:
            if pid not in self._wrote:
                raise ProtocolViolation(f"{self.object_id}: p{pid} snapshot before write")
            if pid in self._snapped:
                raise ProtocolViolation(f"{self.object_id}: p{pid} took two one-shot snapshots")
            self._snapped.add(pid)
        cells = self.cells
        self.emit(pid, self.object_id, "snapshot", None, cells)
        return cells


class SetAgreementOracle:
    """One k-set-agreement object, to which each process proposes at most once.

    Decisions always satisfy validity (a proposed value) and, for the
    sound policies, agreement (at most k distinct decided values).
    """

    def __init__(self, k: int, policy: str, seed: int, object_id: str, emit):
        self.k = k
        self.policy = policy
        self.rng = SplitMix64(seed)  # the object's own draws, for the adversarial policies
        self.object_id = object_id
        self.emit = emit
        self.distinct: list = []  # distinct proposed values in arrival order
        self._proposed = set()

    def propose(self, pid: int, value: str) -> str:
        if pid in self._proposed:
            raise ProtocolViolation(f"{self.object_id}: p{pid} proposed twice")
        self._proposed.add(pid)
        if value not in self.distinct:
            self.distinct.append(value)
        decided = self._decide(value)
        self.emit(pid, self.object_id, "propose", [value], decided)
        return decided

    def _decide(self, value: str) -> str:
        if self.policy == "first-1":
            return self.distinct[0]
        if self.policy == "echo":
            return value
        if self.policy == "first-k-adversarial":
            pool = self.distinct[: self.k]
        elif self.policy == "first-k-plus-one-permissive":
            pool = self.distinct[: self.k + 1]
        else:
            raise ProtocolViolation(f"unknown oracle policy {self.policy!r}")
        return pool[self.rng.randrange(len(pool))]
