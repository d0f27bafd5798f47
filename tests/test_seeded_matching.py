"""The seeded matching gives the width and antichain Kuhn's full search gives.

``Poset._max_matching`` seeds its matching greedily (``greedy_matching``)
and augments only from the left vertices the seed leaves exposed.  The
unseeded search it replaced, which starts Kuhn's search from every
element, is kept here as the reference: both must give the same width
and the same ``max_antichain`` (the antichain does not depend on which
maximum matching it is read from; see test_witness_invariance.py).  The
chain covers may differ, so they are checked for validity only.
"""

from __future__ import annotations

import pytest

from bocast.checker import build_order
from bocast.messages import sort_ids
from bocast.poset import Poset, greedy_matching, iter_bits
from bocast.rng import SplitMix64

from _drivers import (
    crossing_chains, intersect_orders, is_chain, random_poset, shuffled, trace_of_deliveries,
)
from test_poset import delivery_poset
from test_witness_invariance import _agreed_orders, antichain_from, hopcroft_karp

RANDOM_SEEDS = range(600)
DELIVERY_CASES = [(1, 500, 3, 10), (2, 1000, 3, 1000), (3, 2000, 4, 2000)]


def unseeded_kuhn(poset: Poset) -> tuple[list[int], list[int]]:
    """Kuhn's maximum matching (match_l, match_r), searched from every
    element in index order, lowest unvisited neighbour first."""
    up = list(poset.less.values())
    n = len(up)
    match_l = [-1] * n
    match_r = [-1] * n
    everyone = (1 << n) - 1
    for root in range(n):
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
    return match_l, match_r


def renumbered(poset: Poset, order) -> Poset:
    """The same order over the same elements, with bit i standing for order[i]."""
    position = {x: i for i, x in enumerate(order)}
    less = {
        x: sum(1 << position[poset.elements[i]] for i in iter_bits(poset.less[x]))
        for x in order
    }
    return Poset(order, less, key=poset.key)


def interleaving(seed: int, m: int, w: int, random_keys: bool) -> Poset:
    """The agreed order of two random merges of w chains of m elements in
    all, numbered along the first merge, a linear extension.  Chain c is
    c, c + w, c + 2w, ... (the way one sender's messages sort by key).
    With ``random_keys`` the elements are a random relabelling of that,
    numbered in label order instead, far from every extension, as
    ``test_bits_off_the_extension_still_match_exactly`` numbers them."""
    rng = SplitMix64(seed)
    label = shuffled(range(m), rng) if random_keys else list(range(m))
    chains = [[label[x] for x in range(c, m, w)] for c in range(w)]
    sequences = []
    for _ in range(2):
        heads = [0] * w
        merged = []
        while len(merged) < m:
            c = rng.randrange(w)
            if heads[c] < len(chains[c]):
                merged.append(chains[c][heads[c]])
                heads[c] += 1
        sequences.append(merged)
    poset = intersect_orders(sequences)
    return renumbered(poset, sorted(poset.elements)) if random_keys else poset


def assert_valid_chain_cover(poset: Poset) -> None:
    chains = poset.min_chain_cover()
    assert len(chains) == poset.width()
    flat = [x for chain in chains for x in chain]
    assert len(flat) == len(poset.elements) and set(flat) == set(poset.elements)
    for chain in chains:
        assert is_chain(poset, chain)


def assert_agrees_with_reference(poset: Poset) -> None:
    """Width and antichain equal the unseeded search's; the cover is valid."""
    assert antichain_from(poset, unseeded_kuhn(poset)) == poset.max_antichain()
    assert_valid_chain_cover(poset)


def test_random_posets():
    for seed in RANDOM_SEEDS:
        assert_agrees_with_reference(random_poset(seed, max_elems=12 if seed % 2 else 24))


@pytest.mark.parametrize("seed, n, processes, block", DELIVERY_CASES)
def test_delivery_posets(seed, n, processes, block):
    assert_agrees_with_reference(delivery_poset(seed, n, processes, block))


@pytest.mark.parametrize(
    "w, m, random_keys",
    [(2, 3000, False), (3, 2000, False), (4, 1000, False), (5, 1000, False),
     (2, 1000, True), (3, 600, True), (4, 600, True), (5, 600, True)],
)
def test_interleavings(w, m, random_keys):
    poset = interleaving(w, m, w, random_keys)
    # in label order some element is numbered after one above it
    off_extension = any(poset.less[x] & ((1 << i) - 1) for i, x in enumerate(poset.elements))
    assert off_extension == random_keys
    assert_agrees_with_reference(poset)
    assert poset.width() <= w


@pytest.mark.parametrize("w", [2, 3, 4, 5])
@pytest.mark.parametrize("random_keys", [False, True])
def test_interleaving_width_matches_hopcroft_karp(w, random_keys):
    # networkx holds every comparable pair as an edge, so M stays small
    poset = interleaving(10 + w, 300, w, random_keys)
    match_l, _ = hopcroft_karp(poset)
    assert poset.width() == sum(1 for v in match_l if v == -1)


def test_agreed_orders():
    posets = _agreed_orders()
    assert posets
    for poset in posets:
        assert_agrees_with_reference(poset)


@pytest.mark.parametrize("order", ["key", "reverse-key", "random-key"])
def test_greedy_seed_is_the_successor_map_on_a_chain(order):
    # bits follow the chain whatever its key order, so bit i's successor is i + 1
    seq = list(range(3000))
    if order == "reverse-key":
        seq.reverse()
    elif order == "random-key":
        seq = shuffled(seq, SplitMix64(3000))
    poset = intersect_orders([seq])
    assert poset.elements == seq
    n = len(seq)
    match_l, match_r, exposed = greedy_matching(list(poset.less.values()))
    assert exposed == [n - 1]
    assert match_l == [*range(1, n), -1]
    assert match_r == [-1, *range(n - 1)]
    assert poset.min_chain_cover() == [seq]


# On 2,000 crossing messages the seed leaves about 150 exposed roots with
# the bits in key order, and 8 to 25 (seeds 1 to 30) along first appearance.
CROSSING_EXPOSED_BOUND = 40


def test_crossing_chains_are_seeded_along_their_extension():
    sequences = crossing_chains(1, 2000, 4, 20)
    poset = build_order(trace_of_deliveries(sequences, set()))
    assert poset.elements == list(dict.fromkeys(mid for seq in sequences for mid in seq))
    assert poset.width() == 4
    assert len(poset.max_antichain()) == 4
    _, _, exposed = greedy_matching(list(poset.less.values()))
    assert len(exposed) <= CROSSING_EXPOSED_BOUND


def test_bits_off_the_extension_still_match_exactly():
    # key order is far from every extension of crossing chains: the seed
    # leaves more to augment, and the width and antichain are the same
    poset = build_order(trace_of_deliveries(crossing_chains(2, 400, 4, 20), set()))
    in_key_order = renumbered(poset, sort_ids(poset.elements))
    exposed = [len(greedy_matching(list(p.less.values()))[2]) for p in (poset, in_key_order)]
    assert exposed[0] < exposed[1]
    assert in_key_order.max_antichain() == poset.max_antichain()
    assert_agrees_with_reference(in_key_order)


def test_greedy_seed_is_a_matching_on_the_relation():
    for seed in RANDOM_SEEDS:
        up = list(random_poset(seed, max_elems=24).less.values())
        match_l, match_r, exposed = greedy_matching(up)
        assert exposed == [u for u, v in enumerate(match_l) if v == -1]
        for u, v in enumerate(match_l):
            if v != -1:
                assert up[u] >> v & 1 and match_r[v] == u
        assert sorted(u for u in match_r if u != -1) == [u for u, v in enumerate(match_l) if v != -1]
