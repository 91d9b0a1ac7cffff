import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from affinekit import core, instances
from affinekit.core import FiniteAlgebra, Partition
from affinekit.errors import BudgetExceeded, NotInVariety, UnknownSymbol
from affinekit.free import free_algebra, ground_space
from affinekit.galois import radical_of_partition
from affinekit.instances import (
    builtin,
    classify_fixed,
    list_builtins,
    stone_demo,
)

import oracles
from test_clone import generators, ground_cases


def test_builtin_catalog():
    assert list_builtins() == (
        "bool2", "distlat2", "semilat2", "z2", "z2-in-z4", "z4",
    )
    with pytest.raises(UnknownSymbol):
        builtin("nope")


def test_builtin_tables_match_oracles():
    for name, opdefs in [
        ("bool2", oracles.BOOL2),
        ("distlat2", oracles.DISTLAT2),
        ("semilat2", oracles.SEMILAT2),
        ("z2", oracles.Z2),
        ("z4", oracles.Z4),
    ]:
        alg = builtin(name)
        assert dict(alg.signature.symbols) == {s: r for s, (r, _) in opdefs.items()}
        for sym, (_, tab) in opdefs.items():
            assert alg.table(sym) == tab


def test_z2_in_z4_is_the_halved_subalgebra():
    z4 = builtin("z4")
    sub = builtin("z2-in-z4")
    # relabel 0 -> 0, 1 -> 2 and read the tables inside z4
    lift = (0, 2)
    for a in range(2):
        for b in range(2):
            assert lift[sub.op("add", (a, b))] == z4.op("add", (lift[a], lift[b]))
        assert lift[sub.op("neg", (a,))] == z4.op("neg", (lift[a],))
    assert lift[sub.op("0")] == z4.op("0")
    # and it carries the same tables as the plain two-element group
    assert sub == builtin("z2")


def test_stone_demo_small_arities():
    for n, expect in [(0, 2), (1, 4), (2, 16)]:
        rep = stone_demo(n)
        assert rep.congruence_count == expect
        assert rep.closed_count == expect
        assert rep.subset_count == expect
        assert rep.subsets_checked == expect
        assert rep.all_fixed and rep.all_subsets_closed
        assert rep.bijective and rep.order_reversing_ok
        assert rep.pairs_checked == min(expect * expect, 4096)


def test_stone_demo_fails_off_theorem():
    # the 4-element cyclic group is not supposed to satisfy the
    # correspondence: 3 congruences cannot match 16 subsets
    rep = stone_demo(1, generator=builtin("z4"))
    assert rep.congruence_count == 3
    assert rep.closed_count == 3
    assert rep.subset_count == 16
    assert not rep.all_subsets_closed
    assert not rep.bijective
    # the connection is antitone regardless, so order reversal survives
    assert rep.all_fixed and rep.order_reversing_ok


def test_classify_z4_over_z2():
    rep = classify_fixed(builtin("z4"), builtin("z2"), 1)
    assert (rep.total, rep.fixed_count) == (3, 2)
    by_labels = {e.partition.labels: e for e in rep.entries}
    assert [e.partition.labels for e in rep.entries] == sorted(by_labels)
    total = by_labels[(0, 0, 0, 0)]
    halves = by_labels[(0, 1, 0, 1)]
    identity = by_labels[(0, 1, 2, 3)]
    assert total.fixed and halves.fixed and not identity.fixed
    assert identity.radical.labels == (0, 1, 0, 1)
    assert total.radical == total.partition


def test_classify_self_grounds_all_fixed():
    for name in ["bool2", "z4"]:
        alg = builtin(name)
        rep = classify_fixed(alg, alg, 1)
        assert rep.fixed_count == rep.total
        for e in rep.entries:
            assert e.radical == e.partition


def test_stone_demo_quick():
    t0 = time.monotonic()
    stone_demo(2)
    assert time.monotonic() - t0 < 10.0


# two constants and nothing else: F(n) is the constants and the variables,
# every partition of it is a congruence, and the first subset that is not
# closed comes neither first nor last
CONSTANTS = FiniteAlgebra.make(2, [("0", 0, (0,)), ("1", 0, (1,))])


@pytest.mark.parametrize("n, counts, checked", [
    (1, (5, 4, 4), 4),
    (2, (15, 11, 16), 7),
    (3, (52, 38, 256), 7),
])
def test_stone_demo_off_theorem_pinned(n, counts, checked):
    rep = stone_demo(n, generator=CONSTANTS)
    assert (rep.congruence_count, rep.closed_count, rep.subset_count) == counts
    assert rep.subsets_checked == checked
    assert rep.all_subsets_closed == (n == 1)
    assert not (rep.all_fixed or rep.bijective or rep.order_reversing_ok)
    assert rep == oracles.stone_report(n, CONSTANTS)


def test_stone_demo_matches_the_per_subset_loop_on_sampled_pairs():
    # 203 congruences: 4096 of the 41209 pairs are sampled
    rep = stone_demo(4, generator=CONSTANTS, seed=5)
    assert rep.pairs_checked == 4096
    assert rep == oracles.stone_report(4, CONSTANTS, seed=5)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(generators(), st.integers(0, 2 ** 32), st.sampled_from([1, 64, core._CHUNK]))
@example((CONSTANTS, 2), 2026, 1)
def test_stone_demo_matches_the_per_subset_loop_on_random_algebras(case, seed, chunk):
    g, n = case
    assume(free_algebra(g, n).size <= 7)
    with mock.patch.object(core, "_CHUNK", chunk):
        rep = stone_demo(n, generator=g, seed=seed)
    assert rep == oracles.stone_report(n, g, seed)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(ground_cases())
def test_classify_fixed_matches_radical_of_partition_on_random_algebras(case):
    g, n, ground, _ = case
    space = ground_space(g, ground, n)
    assume(space.free.size <= 10)
    if not space.ok:
        with pytest.raises(NotInVariety):
            classify_fixed(g, ground, n)
        return
    rep = classify_fixed(g, ground, n)
    for e in rep.entries:
        rad = radical_of_partition(space, e.partition)
        assert e.radical == rad and e.fixed == (rad == e.partition)
    assert rep.fixed_count == sum(e.fixed for e in rep.entries)


def test_classify_over_an_empty_ground():
    # no points: every mask is the empty row, and the one congruence of
    # F_semilat2(1), the identity, is its own radical
    empty = FiniteAlgebra.make(0, [("and", 2, ())])
    rep = classify_fixed(builtin("semilat2"), empty, 1)
    assert (rep.total, rep.fixed_count) == (1, 1)
    assert rep.entries[0].radical == rep.entries[0].partition == Partition(1, (0,))


@pytest.mark.parametrize("name, count", [("distlat2", 256), ("z4", 129)])
def test_classify_fixed_budget_is_the_lattice_size(monkeypatch, name, count):
    # the space is built under the default budget: the clone's operand
    # tuple cap (20**2 on F_distlat2(3)) would stop a budget of the lattice
    # size first, so only the lattice, here on the orbit route, meets it
    monkeypatch.setattr(instances, "ground_space", lambda g, a, n, budget: ground_space(g, a, n))
    alg = builtin(name)
    assert classify_fixed(alg, alg, 3, budget=count).total == count
    with pytest.raises(BudgetExceeded, match=f"^congruence lattice exceeds budget {count - 1}$"):
        classify_fixed(alg, alg, 3, budget=count - 1)


def test_reports_compare_by_their_entries():
    z4, z2 = builtin("z4"), builtin("z2-in-z4")
    a, b = (classify_fixed(z4, z2, 2) for _ in "ab")
    assert a == b and hash(a) == hash(b)
    assert a != classify_fixed(z4, z4, 2)
    assert a != classify_fixed(z4, z2, 1)
    assert "_rows" not in repr(a)
