"""Finite partial orders: width, maximum antichains, chain covers.

The strict order is stored as int bitsets: ``less[x]`` has bit ``i`` set
when the i-th element, in the order the elements were given, lies
strictly above ``x``.  ``Poset`` is given a strict partial order and
does not check its laws.  The agreed order of delivery sequences
(``order_bitsets``) is one by construction: x lies below y iff every
sequence that holds y holds x before it, so ``less[x]`` is the AND over
the sequences of what each puts at or after x (the elements after x and
all it lacks, or only what it lacks when it lacks x), given that every
element lies in some sequence.  ``checker.build_order`` lists its
elements along a linear extension.

The width (maximum antichain size) is computed exactly through a maximum
bipartite matching on the strict comparability relation: a poset of n
elements has a minimum chain cover of size n - |maximum matching|, and
that size equals the width (Dilworth, via Fulkerson 1956).  The matching
is seeded greedily and then augmented, all on the bitsets: each element,
in bit order, takes the lowest free element above it, which along a
linear extension is the nearest one (on a chain, the whole matching in
O(n) big-int operations), and Kuhn's augmenting-path search, run as an
iterative depth-first search, starts only from the left vertices still
exposed.  It needs no recursion, so chains of any length work, and one
search step costs O(n/64) word operations.  The matching also yields a
maximum antichain witness (via a minimum vertex cover), which is the
same for every maximum matching (Dulmage and Mendelsohn 1958), and a
minimum chain cover, which is not: which cover ``min_chain_cover``
returns is not part of its contract.  The cover is what turns a delivery
order of width <= k into k total-order channels.

A brute-force maximum-antichain enumerator over element subsets is the
tests' independent oracle on small relations.
"""

from __future__ import annotations


class PosetError(ValueError):
    """Malformed ``Poset`` arguments (a duplicate element, a bit outside the
    elements), or a failed self-check of the antichain machinery."""


class BoundViolation(ValueError):
    """Width exceeds the requested channel bound; carries a witness."""

    def __init__(self, k: int, antichain: list):
        self.k = k
        self.antichain = antichain
        super().__init__(f"width {len(antichain)} exceeds bound k={k}; antichain {antichain}")


def iter_bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def order_bitsets(sequences, index: dict) -> list[int]:
    """The agreed order of several delivery sequences, as bitsets over ``index``.

    x lies below y iff every sequence that holds y holds x before it.  So
    ``less[x]`` is the AND over the sequences of what each puts at or
    after x, without x: when the sequence holds x, the elements after x
    and everything it lacks; when it lacks x, only what it lacks.  That is
    positions compared coordinate by coordinate, pos_s(x) <= pos_s(y) in
    every sequence s, an absent element tied after all present ones.  Each
    coordinate is a preorder, so their intersection is transitive, and it
    is antisymmetric because each element has a position of its own in
    some sequence: a strict partial order, once x itself is left out.

    It is the same relation as this wording: a sequence orders x before y
    when it holds x before y, or holds x and not y; x lies below y iff
    some sequence orders x before y and none orders y before x.  "None
    orders y before x" is the AND above, and it implies "some orders x
    before y": a sequence that holds y holds x before it.

    Preconditions: each sequence lists an element at most once, and every
    element of ``index`` lies in some sequence, whose sweep clears the
    element's own bit.  One list of ``len(index)`` bitsets, started full,
    and per sequence one suffix sweep: O(len(index) * |sequences|) big-int
    operations.
    """
    everything = (1 << len(index)) - 1
    less = [everything] * len(index)
    for seq in sequences:
        positions = [index[x] for x in seq]
        held = 0
        for i in positions:
            held |= 1 << i
        above = everything ^ held
        for i in iter_bits(above):
            less[i] &= above
        for i in reversed(positions):
            less[i] &= above
            above |= 1 << i
    return less


def greedy_matching(up: list[int]) -> tuple[list[int], list[int], list[int]]:
    """A matching of each element to one above it, seeded greedily, as
    (match_l, match_r, exposed): ``up[i]`` is the bitset above element i,
    -1 marks an unmatched vertex and ``exposed`` lists, by index, the
    left vertices still unmatched.

    Each element, in bit order, takes the lowest free element above it.
    When the bits follow a linear extension, everything above an element
    comes after it, so that is the free element above it nearest in the
    extension: on a chain, the successor map.  Any other bit order still
    gives a matching, only one that leaves more for Kuhn's search to
    augment.  O(n) big-int operations.
    """
    n = len(up)
    match_l = [-1] * n
    match_r = [-1] * n
    free_r = (1 << n) - 1
    exposed = []
    for u in range(n):
        cand = up[u] & free_r
        if not cand:
            exposed.append(u)
            continue
        low = cand & -cand
        free_r ^= low
        v = low.bit_length() - 1
        match_l[u] = v
        match_r[v] = u
    return match_l, match_r, exposed


class Poset:
    """Strict partial order over hashable elements, stored transitively closed.

    Element ``elements[i]`` is bit ``i``, in the order the elements are
    given; given along a linear extension, they make the greedy seed of
    the matching nearest-above (``greedy_matching``).  ``key`` orders
    only the outputs: the antichain and the chains.  Each value of
    ``less`` is the int bitset of the elements strictly above its key.
    The caller gives a strict partial order (irreflexive and transitive);
    only the arguments' shape is checked, in O(n): no element twice and no
    bit outside the elements.
    """

    def __init__(self, elements, less: dict, key=None):
        self.key = key if key is not None else lambda x: x
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise PosetError("duplicate elements")
        outside = -1 << len(self.elements)  # bits of no element, and the sign
        self.less = {x: less.get(x, 0) for x in self.elements}
        for x, ups in self.less.items():
            if ups & outside:
                raise PosetError(f"unknown element above {x!r}")
        self._matching = None

    # --- matching machinery ------------------------------------------------

    def _max_matching(self) -> tuple[list[int], list[int]]:
        """A maximum matching of each element (left copy) to one above it
        (right copy), as (match_l, match_r) index lists, -1 if unmatched.

        ``greedy_matching`` seeds it; Kuhn's augmenting-path search, run as
        an iterative depth-first search taking the lowest unvisited
        neighbour first, then starts once from each left vertex the seed
        left exposed.  Augmenting never unmatches a left vertex, and a
        vertex with no augmenting path never gains one from a later
        augmentation, so by Berge the result is maximum.
        """
        if self._matching is not None:
            return self._matching
        up = list(self.less.values())
        match_l, match_r, roots = greedy_matching(up)
        everyone = (1 << len(up)) - 1
        for root in roots:
            unvisited = everyone
            path = [root]  # left vertices of the alternating path
            taken = []  # taken[d]: right vertex leading out of path[d]
            while path:
                free = up[path[-1]] & unvisited
                if not free:
                    path.pop()
                    if taken:
                        taken.pop()
                    continue
                low = free & -free
                unvisited ^= low
                v = low.bit_length() - 1
                taken.append(v)
                w = match_r[v]
                if w == -1:
                    for u, v in zip(path, taken):
                        match_l[u] = v
                        match_r[v] = u
                    break
                path.append(w)
        self._matching = (match_l, match_r)
        return self._matching

    def width(self) -> int:
        if not self.elements:
            return 0
        match_l, _ = self._max_matching()
        matched = sum(1 for v in match_l if v != -1)
        return len(self.elements) - matched

    def max_antichain(self) -> list:
        """A maximum antichain, derived from a minimum vertex cover, in key
        order."""
        if not self.elements:
            return []
        match_l, match_r = self._max_matching()
        up = list(self.less.values())
        queue = [u for u, v in enumerate(match_l) if v == -1]
        in_zl = sum(1 << u for u in queue)
        in_zr = 0
        while queue:
            u = queue.pop()
            reached = up[u] & ~in_zr
            in_zr |= reached
            for v in iter_bits(reached):
                w = match_r[v]
                if w != -1 and not in_zl >> w & 1:
                    in_zl |= 1 << w
                    queue.append(w)
        antichain = sorted((self.elements[i] for i in iter_bits(in_zl & ~in_zr)), key=self.key)
        if len(antichain) != self.width():
            raise PosetError("internal: antichain size disagrees with width")
        return antichain

    def min_chain_cover(self) -> list[list]:
        """Chains (each totally ordered, bottom-up) covering all elements."""
        if not self.elements:
            return []
        match_l, match_r = self._max_matching()
        heads = [i for i in range(len(self.elements)) if match_r[i] == -1]
        chains = []
        for head in heads:
            chain = []
            cur = head
            while cur != -1:
                chain.append(self.elements[cur])
                cur = match_l[cur]
            chains.append(chain)
        chains.sort(key=lambda ch: self.key(ch[0]))
        return chains

    def decompose_channels(self, k: int) -> tuple[dict, list[list]]:
        """Partition into <= k chains; map element -> channel in [1..#chains].

        Raises BoundViolation carrying a maximum antichain when width > k.
        """
        if self.width() > k:
            raise BoundViolation(k, self.max_antichain())
        chains = self.min_chain_cover()
        assignment = {}
        for ch_no, chain in enumerate(chains, start=1):
            for x in chain:
                assignment[x] = ch_no
        return assignment, chains


# --- brute force: the tests' independent oracle ------------------------------

BRUTE_FORCE_LIMIT = 20  # the most elements brute_force_antichain searches


def brute_force_antichain(elements, comparable, key=None) -> list:
    """Maximum antichain witness by exhaustive subset DP.

    Only the tests use it, as an oracle independent of the matching path.
    ``comparable`` is a predicate over element pairs.  Works on any
    irreflexive relation (no transitivity needed), limited to
    BRUTE_FORCE_LIMIT elements.
    """
    elements = sorted(elements, key=key) if key else sorted(elements)
    n = len(elements)
    if n == 0:
        return []
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force oracle limited to {BRUTE_FORCE_LIMIT} elements")
    conflict = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and comparable(elements[i], elements[j]):
                conflict[i] |= 1 << j
    best = [0] * (1 << n)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        bit = 1 << v
        skip = best[mask ^ bit]
        take = 1 + best[mask & ~(conflict[v] | bit)]
        best[mask] = skip if skip > take else take
    picked = []
    mask = (1 << n) - 1
    while mask:
        v = (mask & -mask).bit_length() - 1
        bit = 1 << v
        if best[mask] == best[mask ^ bit]:
            mask ^= bit
        else:
            picked.append(elements[v])
            mask &= ~(conflict[v] | bit)
    return picked
