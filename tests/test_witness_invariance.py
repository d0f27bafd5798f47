"""``max_antichain`` does not depend on which maximum matching it starts from.

The antichain is read off the elements that alternating paths reach from
the exposed left vertices (König).  In a bipartite graph that set is the
same for every maximum matching (Dulmage and Mendelsohn 1958; the
Gallai-Edmonds structure theorem in Lovász and Plummer, *Matching Theory*,
1986).  So a Kuhn search with shuffled roots and neighbours, and
networkx's Hopcroft-Karp, must give the witness the checker gives, on
random posets and on the agreed orders of the checked-in scenarios.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bocast.checker import build_order
from bocast.cli import instantiate_template
from bocast.poset import Poset, iter_bits
from bocast.rng import SplitMix64
from bocast.scenario import load_scenario
from bocast.sim import run_scenario
from bocast.trace import parse_trace

from _drivers import random_poset, shuffled

SCENARIOS = sorted(Path("scenarios").glob("*/*.scenario.json"))
GOLDEN_TRACES = sorted(Path("scenarios/golden").glob("*.trace"))
TEMPLATE = Path("scenarios/templates/n5_k2_propose.template.json")
RANDOM_SEEDS = range(600)
SHUFFLES = 3


def shuffled_kuhn(poset: Poset, rng: SplitMix64) -> tuple[list[int], list[int]]:
    """A maximum matching (match_l, match_r) by Kuhn's search, taking the
    roots and each vertex's neighbours in a shuffled order."""
    up = list(poset.less.values())
    n = len(up)
    match_l = [-1] * n
    match_r = [-1] * n

    def augment(u: int, seen: set) -> bool:
        for v in shuffled(iter_bits(up[u]), rng):
            if v in seen:
                continue
            seen.add(v)
            if match_r[v] == -1 or augment(match_r[v], seen):
                match_l[u], match_r[v] = v, u
                return True
        return False

    for u in shuffled(range(n), rng):
        augment(u, set())
    return match_l, match_r


def hopcroft_karp(poset: Poset) -> tuple[list[int], list[int]]:
    nx = pytest.importorskip("networkx")
    up = list(poset.less.values())
    n = len(up)
    graph = nx.Graph()
    left = [("L", u) for u in range(n)]
    graph.add_nodes_from(left)
    graph.add_nodes_from(("R", v) for v in range(n))
    graph.add_edges_from((("L", u), ("R", v)) for u in range(n) for v in iter_bits(up[u]))
    matching = nx.bipartite.hopcroft_karp_matching(graph, top_nodes=left)
    match_l = [matching[("L", u)][1] if ("L", u) in matching else -1 for u in range(n)]
    match_r = [matching[("R", v)][1] if ("R", v) in matching else -1 for v in range(n)]
    return match_l, match_r


def antichain_from(poset: Poset, matching) -> list:
    """``max_antichain`` of a copy of ``poset`` that uses ``matching``.  It
    raises if the antichain's size is not the width the matching gives."""
    other = Poset(poset.elements, poset.less, key=poset.key)
    other._matching = matching  # the cache _max_matching fills
    assert other.width() == poset.width()
    return other.max_antichain()


def _agreed_orders():
    traces = [parse_trace(path.read_text(encoding="utf-8")) for path in GOLDEN_TRACES]
    traces += [run_scenario(load_scenario(path)) for path in SCENARIOS]
    template = json.loads(TEMPLATE.read_text(encoding="utf-8"))
    traces += [run_scenario(instantiate_template(template, i)) for i in range(10)]
    return [build_order(trace) for trace in traces]


def _random_posets():
    for seed in RANDOM_SEEDS:
        yield random_poset(seed, max_elems=12 if seed % 2 else 24)


def _assert_invariant(posets) -> None:
    for i, poset in enumerate(posets):
        want = poset.max_antichain()
        rng = SplitMix64(i)
        for _ in range(SHUFFLES):
            assert antichain_from(poset, shuffled_kuhn(poset, rng)) == want, i


def test_shuffled_kuhn_gives_the_same_antichain():
    _assert_invariant(_random_posets())


def test_shuffled_kuhn_on_agreed_orders():
    posets = _agreed_orders()
    assert posets and max(len(p.elements) for p in posets) >= 10
    _assert_invariant(posets)


def test_hopcroft_karp_gives_the_same_antichain():
    posets = [*_random_posets(), *_agreed_orders()]
    for i, poset in enumerate(posets):
        assert antichain_from(poset, hopcroft_karp(poset)) == poset.max_antichain(), i
