import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from bocast.messages import msg_key
from bocast.poset import (
    BoundViolation, Poset, PosetError, brute_force_antichain, order_bitsets,
)
from bocast.rng import SplitMix64

from _drivers import (
    brute_force_width, comparable, crossing_chains, from_edges, intersect_orders, is_antichain,
    is_chain, lt, random_poset, shuffled,
)
from test_witness_invariance import hopcroft_karp

# The six-message reference delivery profile: three processes, width 2.
PROFILE = [
    ["m1", "m2", "m3", "m4", "m5", "m6"],
    ["m2", "m1", "m5", "m3", "m4", "m6"],
    ["m2", "m3", "m1", "m5", "m4", "m6"],
]


def profile_poset() -> Poset:
    return intersect_orders(PROFILE)


class TestBasics:
    def test_empty_and_singleton(self):
        assert Poset([], {}).width() == 0
        assert Poset(["x"], {}).width() == 1
        assert Poset(["x"], {}).max_antichain() == ["x"]

    def test_total_order_has_width_one(self):
        p = intersect_orders([list("abcd"), list("abcd")])
        assert p.width() == 1
        assert p.min_chain_cover() == [list("abcd")]

    def test_reversed_sequences_make_an_antichain(self):
        p = intersect_orders([list("abcd"), list("dcba")])
        assert p.width() == 4
        assert p.max_antichain() == list("abcd")

    def test_cycle_rejected(self):
        with pytest.raises(PosetError):
            from_edges(["a", "b"], [("a", "b"), ("b", "a")])

    def test_long_edge_chain_needs_no_recursion(self):
        # 0 < 1 < ... < 3000: closing 0 first walks the whole chain
        n = 3001
        p = from_edges(range(n), [(i, i + 1) for i in range(n - 1)])
        assert p.less[0] == (1 << n) - 2
        assert p.less[n - 1] == 0
        assert is_chain(p, list(range(n)))

    def test_cycle_behind_a_long_chain_rejected(self):
        edges = [(i, i + 1) for i in range(3000)] + [(3000, 1500)]
        with pytest.raises(PosetError, match="cycle"):
            from_edges(range(3001), edges)
        with pytest.raises(PosetError, match="cycle"):
            from_edges(["x"], [("x", "x")])

    def test_duplicate_elements_rejected(self):
        with pytest.raises(PosetError, match="duplicate elements"):
            Poset(["a", "a"], {})

    @pytest.mark.parametrize("less", [{"a": 1 << 64}, {"a": 0b1000}, {"a": -1}])
    def test_unknown_elements_rejected(self, less):
        with pytest.raises(PosetError, match="unknown element"):
            Poset(["a", "b", "c"], less)


class TestReferenceProfile:
    def test_width_is_two(self):
        assert profile_poset().width() == 2

    def test_incomparable_pairs_include_the_known_ones(self):
        p = profile_poset()
        for x, y in (("m1", "m2"), ("m1", "m3"), ("m4", "m5")):
            assert not comparable(p, x, y)
        # m4 is ordered against every message of {m1, m2, m3}
        for x in ("m1", "m2", "m3"):
            assert lt(p, x, "m4")

    def test_known_two_chain_cover_is_valid(self):
        p = profile_poset()
        assert is_chain(p, ["m1", "m5", "m6"])
        assert is_chain(p, ["m2", "m3", "m4"])

    def test_decompose_with_k2_covers_everything(self):
        p = profile_poset()
        assignment, chains = p.decompose_channels(2)
        assert len(chains) == 2
        assert sorted(assignment) == sorted(PROFILE[0])
        for chain in chains:
            assert is_chain(p, chain)
            for seq in PROFILE:
                inner = [m for m in seq if m in set(chain)]
                assert inner == chain  # chain order is a subsequence everywhere

    def test_decompose_with_k1_reports_a_two_antichain(self):
        with pytest.raises(BoundViolation) as exc:
            profile_poset().decompose_channels(1)
        assert len(exc.value.antichain) == 2

    def test_three_chain_cover_also_accepted(self):
        # wider bounds keep the minimum cover; k only caps it
        _, chains = profile_poset().decompose_channels(3)
        assert len(chains) == 2


class TestMatchingAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(150))
    def test_random_posets_agree_with_enumeration(self, seed):
        p = random_poset(seed, max_elems=12)
        assert p.width() == brute_force_width(p)

    @given(st.integers(min_value=0, max_value=2**60))
    @settings(max_examples=120, deadline=None)
    def test_antichain_witness_is_a_maximum_antichain(self, seed):
        p = random_poset(seed, max_elems=10)
        witness = p.max_antichain()
        assert len(witness) == p.width()
        assert is_antichain(p, witness)

    @given(st.integers(min_value=0, max_value=2**60))
    @settings(max_examples=120, deadline=None)
    def test_chain_cover_partitions_into_width_chains(self, seed):
        p = random_poset(seed, max_elems=10)
        chains = p.min_chain_cover()
        if p.elements:
            assert len(chains) == p.width()
        flat = [x for ch in chains for x in ch]
        assert sorted(flat) == sorted(p.elements)
        for chain in chains:
            assert is_chain(p, chain)


class TestBruteForceHelper:
    def test_witness_on_non_transitive_relation(self):
        # a<b, b<c, but a and c incomparable: fine for antichain search
        strict = {"a": {"b"}, "b": {"c"}, "c": set()}

        def comparable(x, y):
            return y in strict[x] or x in strict[y]

        witness = brute_force_antichain(["a", "b", "c"], comparable)
        assert witness == ["a", "c"]

    def test_respects_message_key_ordering(self):
        ids = ["2:0", "10:0", "1:0"]
        witness = brute_force_antichain(ids, lambda x, y: False, key=msg_key)
        assert witness == ["1:0", "2:0", "10:0"]


def delivery_poset(seed: int, n: int, processes: int, block: int) -> Poset:
    """The agreed order of ``processes`` sequences that share one random
    order of blocks but each shuffle every block: the shape a bounded
    disagreement per round gives."""
    rng = SplitMix64(seed)
    base = shuffled(range(n), rng)
    sequences = [
        [x for start in range(0, n, block) for x in shuffled(base[start : start + block], rng)]
        for _ in range(processes)
    ]
    return intersect_orders(sequences)


class TestLargePosets:
    """No recursion, whatever the chain's order against the key."""

    @pytest.mark.parametrize("order", ["reverse-key", "random-key"])
    def test_3000_element_chain(self, order):
        seq = list(range(3000))
        if order == "reverse-key":
            seq.reverse()
        else:
            seq = shuffled(seq, SplitMix64(3000))
        p = intersect_orders([seq])
        assert p.width() == 1
        assert len(p.max_antichain()) == 1
        assert p.min_chain_cover() == [seq]

    @pytest.mark.parametrize(
        "seed, n, processes, block",
        [(1, 500, 3, 10), (2, 1000, 3, 1000), (3, 2000, 4, 2000)],
    )
    def test_width_matches_hopcroft_karp(self, seed, n, processes, block):
        p = delivery_poset(seed, n, processes, block)
        match_l, _ = hopcroft_karp(p)
        assert p.width() == n - sum(v != -1 for v in match_l)
        antichain = p.max_antichain()
        assert len(antichain) == p.width()
        assert is_antichain(p, antichain)


def test_order_bitsets_peak_within_a_quarter_of_its_result():
    # one list of bitsets, started full and narrowed in place, so the
    # peak is the result plus a few bitsets in flight: 1.06 times its
    # size here
    sequences = crossing_chains(1, 2000, 4, 20)
    index = {x: i for i, x in enumerate(dict.fromkeys(chain.from_iterable(sequences)))}
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        less = order_bitsets(sequences, index)
        size, peak = (traced - start for traced in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert Poset(index, dict(zip(index, less))).width() == 4
    assert peak <= 1.25 * size, peak / size


@pytest.mark.parametrize("m", [2000, 8000])
def test_order_bitsets_is_position_dominance_at_scale(m):
    # x < y iff x != y and, in every sequence, x's position is at most y's,
    # an absent element sitting at infinity; checked on seeded pairs of
    # orders far beyond pairwise_less's reach.  One more process crashed
    # after delivering a third of the same messages in chains of another
    # seed, so what it delivered and what it lacks cut across the order.
    sequences = crossing_chains(1, m, 4, 20) + [crossing_chains(2, m, 4, 20)[0][: m // 3]]
    index = {x: i for i, x in enumerate(dict.fromkeys(chain.from_iterable(sequences)))}
    less = order_bitsets(sequences, index)
    positions = []
    for seq in sequences:
        pos = [float("inf")] * len(index)
        for at, x in enumerate(seq):
            pos[index[x]] = at
        positions.append(pos)
    rng = SplitMix64(m)
    pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(20_000)]
    expected = [x != y and all(pos[x] <= pos[y] for pos in positions) for x, y in pairs]
    assert [bool(less[x] >> y & 1) for x, y in pairs] == expected
    assert 0.25 < sum(expected) / len(pairs) < 0.45  # 0.32 and 0.34 comparable
