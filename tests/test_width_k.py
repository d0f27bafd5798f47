"""Width k from the stack itself, at every k.

The paper shows that k-BO-Broadcast captures k-set agreement: the stack's
agreed delivery order has width at most k, and in the wait-free model it
cannot do better, so some schedule reaches width k.  ``width_k_scenario``
is such a schedule, with n = k + 1 and the ``echo`` oracle.  Its
broadcast variant ends with the k messages pairwise incomparable; its
propose variant ends with k distinct decisions.  Every verdict passes on
both: width k is within the bound.

With k + 1 writers and n = k + 2 the same schedule asks whether the
bound is tight.  Under ``first-k-adversarial``, a sound k-set agreement
oracle, every seed stays within width k.  Under
``first-k-plus-one-permissive``, which may return k + 1 distinct values,
a seed that lets every writer keep its own value reaches width k + 1 and
fails ``kbo.bounded``.  So what holds the width at k is the oracle's
bound, and the bound is tight.

Width k is no artefact of the ``echo`` oracle either: with k writers
and n = k + 1, the same schedule under ``first-k-adversarial`` reaches
width k at some seeds (146, 68, 25 and 6 of seeds 0..199 for k = 2..5),
and every verdict passes on it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from bocast.checker import TraceIndex, any_failure, build_order, check_all
from bocast.cli import main
from bocast.sim import run_scenario
from bocast.trace import write_trace

from _drivers import dumps, width_k_scenario

GOLDEN_DIR = Path("scenarios/golden")
KS = range(2, 7)
MAX_EVENTS = 300


def ids(k: int) -> list[str]:
    return [f"{p}:0" for p in range(1, k + 1)]


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("variant", ("broadcast", "propose"))
def test_the_checked_in_goldens_are_the_generated_scenarios(k, variant):
    path = GOLDEN_DIR / f"width{k}_{variant}.scenario.json"
    assert path.read_text(encoding="utf-8") == dumps(width_k_scenario(k, variant))


@pytest.mark.parametrize("k", KS)
def test_the_broadcast_variant_reaches_width_k(k, tmp_path, capsys):
    trace = run_scenario(width_k_scenario(k, "broadcast"))
    assert trace.quiescent and len(trace.rows) <= MAX_EVENTS
    poset = build_order(trace)
    assert (poset.width(), poset.max_antichain()) == (k, ids(k))
    assert not any_failure(check_all(trace))
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    capsys.readouterr()
    assert main(["decompose", "--trace", str(path), "--k", str(k - 1)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"width {k} exceeds k={k - 1}", f"antichain witness: {' '.join(ids(k))}"]


@pytest.mark.parametrize("k", KS)
def test_the_propose_variant_decides_k_values(k):
    trace = run_scenario(width_k_scenario(k, "propose"))
    assert trace.quiescent and len(trace.rows) <= MAX_EVENTS
    decided = {value for _pid, _instance, value in TraceIndex(trace).decides}
    assert decided == {f"v{p}" for p in range(1, k + 1)}
    verdicts = {v.property: v for v in check_all(trace)}
    assert verdicts["ksa.agreement"].status == "pass"
    assert not any_failure(verdicts.values())


# For each k, the first seed in 0..199 at which k writers reach width k
# under the sound oracle, found by search.
SOUND_SEEDS = {2: 0, 3: 0, 4: 0, 5: 8}


@pytest.mark.parametrize("k, seed", SOUND_SEEDS.items())
def test_k_writers_reach_width_k_under_a_sound_oracle(k, seed):
    config = width_k_scenario(k, "broadcast", seed=seed, oracle_policy="first-k-adversarial")
    assert config.n == k + 1
    trace = run_scenario(config)
    assert trace.quiescent and len(trace.rows) <= MAX_EVENTS
    poset = build_order(trace)
    assert (poset.width(), poset.max_antichain()) == (k, ids(k))
    assert not any_failure(check_all(trace))


# Seeds, found by search, under which the permissive oracle lets all
# k + 1 writers keep their own value in K2S round 0.
TIGHT_SEEDS = {1: 0, 2: 0, 3: 0, 4: 8, 5: 31}


@pytest.mark.parametrize("k, seed", TIGHT_SEEDS.items())
def test_k_plus_one_writers_break_the_bound_under_the_permissive_oracle(k, seed):
    config = width_k_scenario(
        k, "broadcast", writers=k + 1, seed=seed, oracle_policy="first-k-plus-one-permissive"
    )
    assert config.n == k + 2
    trace = run_scenario(config)
    assert trace.quiescent and len(trace.rows) <= MAX_EVENTS
    bounded = {v.property: v for v in check_all(trace)}["kbo.bounded"]
    assert bounded.failed
    assert bounded.witness["width"] == k + 1
    assert bounded.witness["antichain"] == ids(k + 1)


@pytest.mark.parametrize("k", range(1, 6))
def test_k_plus_one_writers_stay_within_k_under_a_sound_oracle(k):
    for seed in range(10):
        config = width_k_scenario(
            k, "broadcast", writers=k + 1, seed=seed, oracle_policy="first-k-adversarial"
        )
        trace = run_scenario(config)
        assert build_order(trace).width() <= k, seed
        assert not any_failure(check_all(trace)), seed
