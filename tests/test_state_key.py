"""Equal state keys give equal futures.

``_drivers.state_key`` claims that two simulations with equal keys step
the same tokens and emit the same deliver and decide rows under the same
further picks.  Each example draws a small scenario (n = 2 or 3) and
drives two runs through ``Simulation.step``: the first with picks drawn
from ``sim.tokens``, the second with the first's tokens, some adjacent
pairs swapped, while they stay enabled.  Wherever the two runs reach
equal keys by different token sequences, once the crash plan is spent,
it replays each prefix and drives both on with the same picks to
quiescence.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from bocast.scenario import WorkItem
from bocast.sim import Simulation

from _drivers import stack_config, state_key

POLICIES = ("first-1", "first-k-adversarial", "echo", "first-k-plus-one-permissive")
FUTURE_KINDS = ("deliver-set", "deliver-msg", "decide")
MEETINGS_PER_EXAMPLE = 3
MAX_TURNS = 1_000  # far above any run here: every step makes progress


@st.composite
def small_scenarios(draw):
    n = draw(st.integers(2, 3))
    workload = {}
    for pid in range(1, n + 1):
        ops = draw(st.lists(st.sampled_from(("broadcast", "propose")), min_size=1, max_size=2))
        workload[pid] = tuple(
            WorkItem(op="broadcast", payload=f"m{pid}.{i}") if op == "broadcast"
            else WorkItem(op="propose", instance=i, value=draw(st.sampled_from("ab")))
            for i, op in enumerate(ops)
        )
    victims = draw(st.lists(st.integers(1, n), unique=True, max_size=n - 1))
    plan = tuple((pid, draw(st.integers(0, 12))) for pid in victims)
    return stack_config(n, draw(st.integers(1, n)), draw(st.integers(0, 2**32)), workload,
                        crash_plan=plan, oracle_policy=draw(st.sampled_from(POLICIES)))


def walk(config, choose):
    """Step ``choose(i, sim.tokens)`` at each step i until it gives None
    or nothing is enabled; the tokens stepped, and the key before each
    step and at the end."""
    sim = Simulation(config)
    tokens, keys = [], [state_key(sim)]
    while sim.tokens and (token := choose(len(tokens), sim.tokens)) is not None:
        sim.step(token)
        tokens.append(token)
        keys.append(state_key(sim))
    return tokens, keys


def future(config, prefix, indices):
    """Step the tokens of ``prefix``, then ``indices`` cyclically to
    quiescence; the token lists offered and the deliver and decide rows
    emitted after the prefix, without turns, and the final key."""
    sim = Simulation(config)
    for token in prefix:
        sim.step(token)
    start, offered = len(sim.recorder.rows), []
    while sim.tokens:
        assert len(offered) < MAX_TURNS
        index = indices[len(offered) % len(indices)]
        offered.append(sim.tokens)
        sim.step(sim.tokens[index % len(sim.tokens)])
    rows = [row[1:] for row in sim.recorder.rows[start:] if len(row) == 4 and row[2] in FUTURE_KINDS]
    return offered, rows, state_key(sim)


def meetings(config, indices, swaps):
    """Run a steps ``indices`` (each taken modulo the enabled count); run
    b steps a's tokens, with the adjacent pairs at ``swaps`` (modulo its
    length) exchanged, while they are enabled.  The pairs (prefix of a,
    prefix of b) of different token sequences that reach equal keys once
    the crash plan is spent."""
    tokens_a, keys_a = walk(config, lambda i, tokens: (
        tokens[indices[i] % len(tokens)] if i < len(indices) else None))
    b = list(tokens_a)
    for i in swaps:
        i %= max(len(b) - 1, 1)
        b[i : i + 2] = b[i : i + 2][::-1]
    tokens_b, keys_b = walk(config, lambda i, tokens: (
        b[i] if i < len(b) and b[i] in tokens else None))
    spent = max((turn for _, turn in config.crash_plan), default=0)
    first_b = {}
    for j in range(spent, len(keys_b)):
        first_b.setdefault(keys_b[j], j)
    found = []
    for i in range(spent, len(keys_a)):
        j = first_b.get(keys_a[i])
        if j is not None and tokens_a[:i] != tokens_b[:j]:
            found.append((tokens_a[:i], tokens_b[:j]))
    return found


@settings(max_examples=150, deadline=None)
@given(config=small_scenarios(), indices=st.lists(st.integers(0, 5), min_size=20, max_size=60),
       swaps=st.lists(st.integers(0, 59), min_size=1, max_size=4),
       then=st.lists(st.integers(0, 5), min_size=1, max_size=8))
def test_equal_keys_give_equal_futures(config, indices, swaps, then):
    for prefix_a, prefix_b in meetings(config, indices, swaps)[:MEETINGS_PER_EXAMPLE]:
        assert future(config, prefix_a, then) == future(config, prefix_b, then)


def test_two_orders_of_independent_writes_meet():
    # p1 and p2 publish in either order: the MEM rows differ, the keys do not
    config = stack_config(2, 1, 0, {1: (WorkItem(op="broadcast", payload="x"),),
                                    2: (WorkItem(op="propose", instance=0, value="a"),)})
    found = meetings(config, [0, 2], [0])
    assert found == [([(1, "main"), (2, "main")], [(2, "main"), (1, "main")])]
    (prefix_a, prefix_b), = found
    assert future(config, prefix_a, [1, 0, 2]) == future(config, prefix_b, [1, 0, 2])
