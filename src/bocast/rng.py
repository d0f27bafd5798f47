"""Deterministic pseudo-random primitives.

Every random choice in the simulator (schedule selection, oracle draws,
fuzz plan sampling) flows through SplitMix64, a public-domain 64-bit
mixing generator (Steele, Lea, Flood 2014).  It was picked because its
output is a pure function of the seed on every platform and substreams
can be re-derived from labels, which keeps traces byte-reproducible.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive(seed: int, *labels: object) -> int:
    """Derive a substream seed from a parent seed and a label path.

    Labels are folded byte-wise through the finalizer, so distinct label
    paths give independent-looking streams.
    """
    h = seed & MASK64
    for label in labels:
        for b in str(label).encode("utf-8"):
            h = mix64(h ^ b)
        h = mix64(h ^ 0xFF)  # separator so ("ab","c") != ("a","bc")
    return h


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & MASK64

    def randrange(self, n: int) -> int:
        """Uniform-ish integer in [0, n): mix64 of the advanced state,
        modulo n.  mix64 is spelled out so that a draw is one frame; the
        state is below 2**64, so its masks on entry and exit are no-ops
        here.  n must be >= 1."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        z = self._state = (self._state + _GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) % n

    def sample(self, seq, count: int) -> list:
        """Deterministic sample without replacement, order preserved by draw."""
        pool = list(seq)
        picked = []
        for _ in range(count):
            picked.append(pool.pop(self.randrange(len(pool))))
        return picked
