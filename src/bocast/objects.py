"""Primitive shared objects: snapshot arrays and a k-set-agreement oracle.

The simulator executes every operation on these objects as a single
atomic scheduler step, so linearizability holds by construction and the
one-shot containment property (any two snapshot views are related by
inclusion) follows directly from the array semantics.  Each object
records the trace row of every access it performs through the ``emit``
it is built with (``Recorder.emit``): a write is ``[value]`` -> null, a
snapshot null -> the n cells, and a propose to instance r is the object
``KSET[r]`` with ``[value]`` -> the decided value.

The agreement oracle is the one primitive the stack cannot build from
reads and writes, so its behavior is a configurable policy:

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

from dataclasses import dataclass, field

from .rng import SplitMix64, derive

BOTTOM = None


class ProtocolViolation(RuntimeError):
    """An object was driven outside its usage contract."""


class SnapshotArray:
    """Array of n single-writer cells with atomic write and read-all.

    ``one_shot=True`` additionally enforces the one-write-then-one-snapshot
    discipline per process.
    """

    def __init__(self, n: int, object_id: str, emit, one_shot: bool = False, initial=BOTTOM):
        self.n = n
        self.object_id = object_id
        self.emit = emit
        self.one_shot = one_shot
        self.cells = [initial] * n
        self._wrote = set()
        self._snapped = set()

    def write(self, pid: int, value) -> None:
        self._check_pid(pid)
        if self.one_shot:
            if pid in self._wrote:
                raise ProtocolViolation(f"{self.object_id}: p{pid} wrote a one-shot cell twice")
            self._wrote.add(pid)
        self.cells[pid - 1] = value
        self.emit(pid, self.object_id, "write", [value], None)

    def snapshot(self, pid: int) -> tuple:
        self._check_pid(pid)
        if self.one_shot:
            if pid not in self._wrote:
                raise ProtocolViolation(f"{self.object_id}: p{pid} snapshot before write")
            if pid in self._snapped:
                raise ProtocolViolation(f"{self.object_id}: p{pid} took two one-shot snapshots")
            self._snapped.add(pid)
        self.emit(pid, self.object_id, "snapshot", None, self.cells[:])
        return tuple(self.cells)

    def _check_pid(self, pid: int) -> None:
        if not (1 <= pid <= self.n):
            raise ProtocolViolation(f"{self.object_id}: unknown process {pid}")


@dataclass
class KsaInstance:
    rng: SplitMix64  # the instance's own draws, for the adversarial policies
    distinct: list = field(default_factory=list)  # distinct values in arrival order


class SetAgreementOracle:
    """Repeated k-set agreement with lazily created instances.

    Per-process instance numbers must strictly increase and each process
    may call each instance at most once.  Decisions always satisfy
    validity (a proposed value) and, for the sound policies, agreement
    (at most k distinct decided values per instance).
    """

    def __init__(self, k: int, policy: str, seed: int, emit):
        self.k = k
        self.policy = policy
        self.seed = seed
        self.emit = emit
        self.instances: dict[int, KsaInstance] = {}
        self._last_instance: dict[int, int] = {}

    def instance(self, instance_no: int) -> KsaInstance:
        inst = self.instances.get(instance_no)
        if inst is None:
            inst = KsaInstance(SplitMix64(derive(self.seed, "ksa", instance_no)))
            self.instances[instance_no] = inst
        return inst

    def propose(self, instance_no: int, pid: int, value: str) -> str:
        last = self._last_instance.get(pid)
        if last is not None and instance_no <= last:
            raise ProtocolViolation(
                f"oracle: p{pid} proposed to instance {instance_no} after instance {last}"
            )
        self._last_instance[pid] = instance_no

        inst = self.instance(instance_no)
        if value not in inst.distinct:
            inst.distinct.append(value)

        decided = self._decide(inst, pid, value)
        self.emit(pid, f"KSET[{instance_no}]", "propose", [value], decided)
        return decided

    def _decide(self, inst: KsaInstance, pid: int, value: str) -> str:
        if self.policy == "first-1":
            return inst.distinct[0]
        if self.policy == "echo":
            return value
        if self.policy == "first-k-adversarial":
            pool = inst.distinct[: self.k]
        elif self.policy == "first-k-plus-one-permissive":
            pool = inst.distinct[: self.k + 1]
        else:
            raise ProtocolViolation(f"unknown oracle policy {self.policy!r}")
        return pool[inst.rng.randrange(len(pool))]
