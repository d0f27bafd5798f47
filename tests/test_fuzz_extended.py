"""Wider randomized sweeps than the unit tests: alternate oracle policies,
schedule policies and workload shapes, all checked by the full suite."""

import ast
import re

import pytest
from hypothesis import given, settings, strategies as st

from bocast.checker import any_failure, check_all
from bocast.kscd import EngineInvariantError, unfold_views
from bocast.rng import derive
from bocast.scenario import WorkItem
from bocast.sim import run_scenario

from _drivers import sampled_stack_config, stack_config


@pytest.mark.parametrize("seed", range(30))
def test_round_robin_schedules_pass_all_suites(seed):
    cfg = sampled_stack_config(4, 2, derive(41, seed))
    cfg = stack_config(
        cfg.n, cfg.k, cfg.seed, cfg.workload,
        crash_plan=cfg.crash_plan, schedule="round-robin",
    )
    trace = run_scenario(cfg)
    assert trace.quiescent
    assert not any_failure(check_all(trace))


@pytest.mark.parametrize("seed", range(20))
def test_first_1_oracle_passes_all_suites(seed):
    cfg = sampled_stack_config(5, 3, derive(42, seed), oracle_policy="first-1")
    trace = run_scenario(cfg)
    assert trace.quiescent
    assert not any_failure(check_all(trace))


@pytest.mark.parametrize("seed", range(20))
def test_echo_oracle_at_k_equals_n_passes_all_suites(seed):
    # echo is only an agreement oracle when k covers all proposers
    cfg = sampled_stack_config(3, 3, derive(43, seed), oracle_policy="echo")
    trace = run_scenario(cfg)
    assert trace.quiescent
    assert not any_failure(check_all(trace))


@pytest.mark.parametrize("seed", range(20))
def test_broadcast_only_workloads_pass_all_suites(seed):
    wl = {
        pid: tuple(WorkItem(op="broadcast", payload=f"b{pid}.{i}") for i in range(1 + seed % 3))
        for pid in range(1, 4)
    }
    cfg = stack_config(3, 2, derive(44, seed), wl, crash_plan=((2, 7 + seed),))
    trace = run_scenario(cfg)
    assert trace.quiescent
    assert not any_failure(check_all(trace))


@st.composite
def nested_views(draw):
    universe = [f"{s}:{i}" for s in range(1, 5) for i in range(3)]
    sizes = draw(st.lists(st.integers(min_value=1, max_value=len(universe)),
                          min_size=1, max_size=4, unique=True))
    perm = draw(st.permutations(universe))
    return {frozenset(perm[:size]) for size in sorted(sizes)}


@given(nested_views())
@settings(max_examples=150, deadline=None)
def test_unfold_views_partitions_the_largest_view(views):
    parts = unfold_views(views)
    union = set().union(*parts)
    assert union == max(views, key=len)
    flat = [m for part in parts for m in part]
    assert len(flat) == len(union)  # disjoint
    assert all(parts)  # no empty increments
    # increments rebuild the chain: prefixes are exactly the views
    prefix = set()
    rebuilt = []
    for part in parts:
        prefix |= part
        rebuilt.append(frozenset(prefix))
    assert set(rebuilt) == set(views)


def unfold_by_minimum(sets) -> list[frozenset]:
    """The reference unfolding of a chain: take the non-empty view of
    minimal size, subtract it from every view, repeat."""
    work = list(sets)
    out = []
    while nonempty := [s for s in work if s]:
        chosen = min(nonempty, key=len)
        out.append(chosen)
        work = [s - chosen for s in work]
    return out


def is_chain(views) -> bool:
    return all(a <= b or b <= a for a in views for b in views)


@given(st.one_of(
    nested_views(),
    st.lists(st.frozensets(st.sampled_from("abcd")), max_size=5),
    nested_views().map(lambda views: [frozenset(), *views, *views]),
))
@settings(max_examples=300, deadline=None)
def test_unfold_views_matches_the_reference(views):
    # chains, their repeats and empty views, and families that are no chain
    if is_chain(views):
        assert unfold_views(views) == unfold_by_minimum(views)
        return
    with pytest.raises(EngineInvariantError, match="non-nested view family") as err:
        unfold_views(views)
    # it names two of the views, the first not within the second
    first, second = (
        frozenset(ast.literal_eval(listed)) for listed in re.findall(r"\[[^]]*\]", str(err.value))
    )
    assert first in views and second in views and not first <= second
