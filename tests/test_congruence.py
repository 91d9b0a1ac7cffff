"""The congruence engine: one worklist closure, over a generating set of
the translations, serves generate_congruence (one row) and the principal
congruences of all_congruences (one row per pair a < b that no known
principal settles, one call per b), whose lattice is the join closure of
the join-irreducible principals, found from one generating pair each.

Builtin lattices are pinned to frozen digests (sha256 of the canonical
JSON of the sorted label tuples) recorded from the earlier routes: the
per-pair fixpoint for carriers up to 48 elements and the pair-graph
condensation sweep above; those of F_bool2(3) and F_semilat2(4), and the
generate_congruence digests on F_bool2(3), from the closure that ran once
per pair. Random small algebras and their free algebras are checked
against the brute-force oracles.
"""

import hashlib
import json
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from affinekit import core
from affinekit.core import (
    DEFAULT_BUDGET,
    FiniteAlgebra,
    _congruence_rows,
    _join_irreducibles,
    _join_rows,
    _labels,
    _least_members,
    _partitions,
    _principals,
    _unary_translations,
    all_congruences,
    generate_congruence,
    power_algebra,
)
from affinekit.errors import BudgetExceeded
from affinekit.free import free_algebra
from affinekit.instances import builtin, list_builtins

import oracles
from test_clone import generators
from test_core import _ops_dict


def digest(obj):
    return hashlib.sha256(json.dumps(obj, default=int).encode()).hexdigest()[:16]


def free(name, n):
    return free_algebra(builtin(name), n).as_algebra()


LATTICE_DIGESTS = {
    # (algebra, its size, number of congruences, digest of the sorted labels)
    "F_bool2(2)": (lambda: free("bool2", 2), 16, 16, "5b9757c5e2b26a80"),
    "F_distlat2(3)": (lambda: free("distlat2", 3), 20, 256, "9194cd75fe1d0c75"),
    "F_z4(3)": (lambda: free("z4", 3), 64, 129, "436be26b103264aa"),
    "z4^2": (lambda: power_algebra(builtin("z4"), 2), 16, 15, "4fd614caf3d334fd"),
    "F_bool2(3)": (lambda: free("bool2", 3), 256, 256, "a313ee9c1166a349"),
    "F_semilat2(4)": (lambda: free("semilat2", 4), 15, 2271, "166da3955c0a7d46"),
}


@pytest.mark.parametrize("name", sorted(LATTICE_DIGESTS))
def test_all_congruences_matches_frozen_digest(name):
    make, size, count, want = LATTICE_DIGESTS[name]
    alg = make()
    cons = all_congruences(alg)
    assert alg.size == size and len(cons) == count
    assert [c.labels for c in cons] == sorted(c.labels for c in cons)
    assert digest([c.labels for c in cons]) == want


@pytest.mark.parametrize("name", ["F_distlat2(3)", "F_z4(3)"])
def test_all_congruences_budget_is_the_lattice_size(name):
    make, _, count, _ = LATTICE_DIGESTS[name]
    alg = make()
    assert len(all_congruences(alg, budget=count)) == count
    with pytest.raises(BudgetExceeded):
        all_congruences(alg, budget=count - 1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_partitions_of_least_member_rows_match_from_labels(data):
    k = data.draw(st.integers(1, 7))
    drawn = data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=k, max_size=k),
                               max_size=6))
    dtype = data.draw(st.sampled_from([np.uint8, np.int32, np.int64]))
    rows = _least_members(drawn).reshape(len(drawn), k).astype(dtype)
    want = tuple(core.Partition.from_labels(row) for row in rows.tolist())
    for chunk in (1, core._CHUNK):
        with mock.patch.object(core, "_CHUNK", chunk):
            assert _partitions(rows) == want


def test_congruence_rows_of_an_empty_free_algebra():
    alg = free("semilat2", 0)
    assert alg.size == 0 and _congruence_rows(alg, DEFAULT_BUDGET).shape == (1, 0)
    assert all_congruences(alg) == (core.Partition(0, ()),)


def test_join_rows_pins_no_chunk_arrays():
    # a kept row that is a view of its chunk's array keeps all of that
    # array alive: F_z4(4)'s 1983 rows of 256 bytes then peaked at about
    # 40 MB traced, against about 10 MB with the rows rebuilt from bytes
    reps, pairs, _ = _principals(free("z4", 4), DEFAULT_BUDGET)
    gens = reps[_join_irreducibles(reps, pairs)]
    tracemalloc.start()
    try:
        rows = _join_rows(gens, DEFAULT_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (1983, 256)
    assert peak < 20 * 10 ** 6


def test_join_irreducibles_of_known_lattices():
    # Con(F_bool2(2)) is the Boolean lattice on 4 atoms and Con(z4) a
    # 3-element chain; the join-irreducibles among the non-identity
    # congruences are the 4 atoms and the 2 non-identity links
    for alg, count in [(free("bool2", 2), 4), (builtin("z4"), 2)]:
        cons = [c for c in all_congruences(alg) if c.num_blocks < alg.size]
        reps = np.array([_least_members(c.labels) for c in cons])
        assert len(oracles.join_irreducibles(reps)) == count


@pytest.mark.parametrize("name", list_builtins())
def test_join_irreducibles_from_generating_pairs_match_oracle(name):
    for n in (1, 2, 3, 4) if name in ("distlat2", "z4") else (1, 2, 3):
        alg = free(name, n)
        k = alg.size
        reps, pairs, of_pair = _principals(alg, DEFAULT_BUDGET)
        assert (of_pair[pairs[:, 0] * k + pairs[:, 1]] == np.arange(len(reps))).all()
        got = [reps[i].tolist() for i in _join_irreducibles(reps, pairs)]
        assert got == [rep.tolist() for rep in oracles.join_irreducibles(reps)]


@pytest.mark.parametrize("name, n", [("bool2", 3), ("distlat2", 3), ("z4", 4), ("semilat2", 4)])
def test_join_irreducibles_settle_once_per_level_chunk(name, n):
    # rows of one block count cannot lie one below the other, so a level
    # is tested in one flat _settle a chunk at a time, not a row at a time
    reps, pairs, _ = _principals(free(name, n), DEFAULT_BUDGET)
    want = _join_irreducibles(reps, pairs)
    levels = len(set((reps == np.arange(reps.shape[1])).sum(axis=1).tolist()))
    split = core._chunks
    for size in (1, 4096, core._CHUNK):
        chunks = []
        with (mock.patch.object(core, "_CHUNK", size),
              mock.patch.object(core, "_chunks",
                                side_effect=lambda *a: chunks.append(split(*a)) or chunks[-1]),
              mock.patch.object(core, "_settle", wraps=core._settle) as settle):
            assert np.array_equal(_join_irreducibles(reps, pairs), want)
        assert len(chunks) == levels
        assert settle.call_count <= sum(map(len, chunks))
        if size == core._CHUNK:
            assert settle.call_count < len(reps)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ordered_keys_give_the_rows_of_unique_over_axis_0(data):
    dtype = data.draw(st.sampled_from([np.uint8, np.uint16, np.bool_]))
    shape = data.draw(st.tuples(st.integers(0, 40), st.integers(0, 6)))
    # mostly a few values, so that rows repeat and tie on leading columns;
    # 255 and 256 order one way as numbers and the other way as
    # little-endian bytes
    top = 1 if dtype is np.bool_ else np.iinfo(dtype).max
    values = st.sampled_from(sorted({0, 1, min(255, top), min(256, top)})) | st.integers(0, top)
    a = data.draw(arrays(dtype, shape, elements=values))
    want, want_inverse = np.unique(a, axis=0, return_inverse=True)
    _, first, inverse = np.unique(core._ordered_keys(a), return_index=True, return_inverse=True)
    assert np.array_equal(a[first], want)
    assert np.array_equal(inverse, want_inverse.ravel())


# --------------------------------------------------------------------------
# the principal table: round 0 against the closure


def principal_table(alg, principals):
    """The labels of Cg(a, b) for every pair a < b, from _principals'
    output."""
    k = alg.size
    reps, _, of_pair = principals
    parts = _partitions(reps)
    return {(a, b): parts[of_pair[a * k + b]].labels
            for b in range(k) for a in range(b)}


def closed_pairs(monkeypatch, alg):
    """The pairs that _principals leaves to _closure, and its output."""
    got, closure = [], core._closure
    k = alg.size

    def spy(images, x, y, rows, known):
        got.extend(zip((x % k).tolist(), (y % k).tolist()))
        return closure(images, x, y, rows, known)

    monkeypatch.setattr(core, "_closure", spy)
    return got, _principals(alg, DEFAULT_BUDGET)


# sha256 prefixes of the bytes of _principals' reps (int32), pairs (int64)
# and of_pair (int32), and of the (a, b) pairs it hands to _closure as an
# int64 array, recorded from the round 0 that compared the block count of
# the coarsest known Cg(t(a), t(b)) with that of the finest known
# congruence holding (a, b). "f0/0" is a 2-element algebra whose one
# operation is a constant, so it has no translations; "one" a 1-element
# algebra with a binary operation
PINNED_ALGEBRAS = {
    "f0/0": lambda: FiniteAlgebra.make(2, [("f0", 0, (0,))]),
    "one": lambda: FiniteAlgebra.make(1, [("f0", 2, (0,))]),
}
PRINCIPAL_DIGESTS = {
    ("bool2", 1): ("410a01938ebd63f9", "79804fd005319925", "371ebe1650847a1b", "02b1a41cfe305bf0"),
    ("bool2", 2): ("bf2d148310b20a5b", "e6d0a4d177a63050", "5c9596ebefff7183", "0761bafdda19512c"),
    ("bool2", 3): ("ad5964df6eee64cd", "6fbadfe07ffa1979", "59a9ef95b9db5db4", "4a5b65aa6ccf59db"),
    ("distlat2", 1): ("38582a150baac43d", "79804fd005319925", "437056011faab0da", "79804fd005319925"),
    ("distlat2", 2): ("ac1403012158750a", "785e1e029f68cdaf", "54637aa311b56073", "864671509d99a91e"),
    ("distlat2", 3): ("5a425c5732868495", "a34cff7fa0c2c8d3", "729b8d4f62c1f813", "c708e8b972386bc2"),
    ("distlat2", 4): ("ec28ee36bccc9885", "e1a144423fb34386", "b7bf9145cf6acd9c", "9bd103ed1c1b536e"),
    ("semilat2", 1): ("e3b0c44298fc1c14", "e3b0c44298fc1c14", "ad95131bc0b799c0", "e3b0c44298fc1c14"),
    ("semilat2", 2): ("b67bfd122cbf3e19", "79804fd005319925", "437056011faab0da", "79804fd005319925"),
    ("semilat2", 3): ("a758cf2ba4b86cd5", "4a0d45150b11888a", "b6e406c1d4817611", "4a0d45150b11888a"),
    ("z2", 1): ("af5570f5a1810b7a", "9d34149fbd1fe777", "ccaba7b6346a4560", "9d34149fbd1fe777"),
    ("z2", 2): ("1cafb774d09f5107", "79804fd005319925", "371ebe1650847a1b", "79804fd005319925"),
    ("z2", 3): ("c0cb28cb5b6a7bfa", "230a60e599fb9214", "4019954a80a89a3c", "d50b22c936f41bd4"),
    ("z2-in-z4", 1): ("af5570f5a1810b7a", "9d34149fbd1fe777", "ccaba7b6346a4560", "9d34149fbd1fe777"),
    ("z2-in-z4", 2): ("1cafb774d09f5107", "79804fd005319925", "371ebe1650847a1b", "79804fd005319925"),
    ("z2-in-z4", 3): ("c0cb28cb5b6a7bfa", "230a60e599fb9214", "4019954a80a89a3c", "d50b22c936f41bd4"),
    ("z4", 1): ("9f06ac8cf187637e", "4cea01406733b6dd", "3c0fec8efb3f07f2", "6403243e22075780"),
    ("z4", 2): ("1bfd66d4c21f332b", "5740cdaca5955a84", "38aa04e0731fc5e3", "06090ac1b18497fe"),
    ("z4", 3): ("f46e702b41f03c4e", "41fba40d903bdca6", "b6e9cfc7b5877baf", "8d5755d1b2a5f01e"),
    ("z4", 4): ("7f7d84427036c6c9", "158a6fd4ac6e45d9", "38489db2cd67ecea", "0052dbf640be02b9"),
    ("f0/0", 0): ("af5570f5a1810b7a", "9d34149fbd1fe777", "ccaba7b6346a4560", "9d34149fbd1fe777"),
    ("one", 0): ("e3b0c44298fc1c14", "e3b0c44298fc1c14", "ad95131bc0b799c0", "e3b0c44298fc1c14"),
}


@pytest.mark.parametrize("name, n", sorted(PRINCIPAL_DIGESTS))
def test_principals_match_frozen_digest(monkeypatch, name, n):
    alg = PINNED_ALGEBRAS[name]() if name in PINNED_ALGEBRAS else free(name, n)
    got, principals = closed_pairs(monkeypatch, alg)
    arrays = (*principals, np.array(got, dtype=np.int64).reshape(-1, 2))
    assert tuple(hashlib.sha256(x.tobytes()).hexdigest()[:16]
                 for x in arrays) == PRINCIPAL_DIGESTS[name, n]


def test_round_0_settles_translates_of_known_principals(monkeypatch):
    # in z4, Cg(0, 1) is total and Cg(0, 2) = {0, 2 | 1, 3}. (0, 2) still
    # needs the closure: its translates by x -> x + c are (0, 2) and
    # (1, 3), unknown while b = 2. Each later pair p has a translate t(p)
    # among (0, 1) and (0, 2) whose known principal holds p, and so is
    # Cg(p): Cg(t(p)) is always within Cg(p)
    alg = builtin("z4")
    got, principals = closed_pairs(monkeypatch, alg)
    table = principal_table(alg, principals)
    assert got == [(0, 1), (0, 2)]
    assert table[0, 1] == table[1, 2] == table[0, 3] == table[2, 3] == (0, 0, 0, 0)
    assert table[0, 2] == table[1, 3] == (0, 1, 0, 1)


@pytest.mark.parametrize("name, n, closed", [("bool2", 2, 42), ("distlat2", 2, 13)])
def test_round_0_leaves_the_rest_to_the_closure(monkeypatch, name, n, closed):
    alg = free(name, n)
    got, principals = closed_pairs(monkeypatch, alg)
    table = principal_table(alg, principals)
    assert len(got) == closed < len(table)
    ops = _ops_dict(alg)
    for (a, b), labels in table.items():
        assert labels == oracles.least_congruence(ops, alg.size, [(a, b)])


def closures_match_plain_route(alg):
    """Run _principals on alg, checking that each _closure call it makes
    gives the rows the closure gives without known principals; the number
    of calls."""
    calls, closure = [], core._closure

    def check(images, x, y, rows, known):
        got = closure(images, x, y, rows, known)
        np.testing.assert_array_equal(got, closure(images, x, y, rows))
        calls.append(rows)
        return got

    with mock.patch.object(core, "_closure", check):
        _principals(alg, DEFAULT_BUDGET)
    return len(calls)


@pytest.mark.parametrize("name, n", [("bool2", 3), ("z4", 3)])
def test_known_principals_give_the_plain_closure_pinned(name, n):
    assert closures_match_plain_route(free(name, n)) > 0


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generators())
def test_known_principals_give_the_plain_closure_on_random_algebras(generator):
    g, n = generator
    for alg in (g, free_algebra(g, n).as_algebra()):
        if alg.size:
            closures_match_plain_route(alg)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generators())
def test_principal_table_of_random_algebras_matches_oracle(generator):
    g, n = generator
    for alg in (g, free_algebra(g, n).as_algebra()):
        if 0 < alg.size <= 16:
            ops = _ops_dict(alg)
            table = principal_table(alg, _principals(alg, DEFAULT_BUDGET))
            for (a, b), labels in table.items():
                assert labels == oracles.least_congruence(ops, alg.size, [(a, b)])


# --------------------------------------------------------------------------
# the orbit route: principals filled by orbits of substitution automorphisms


def check_orbit_route(free_alg, drawn):
    """_principals on F(n), by orbits of its automorphisms, gives every pair
    a < b the principal of the plain route on its as_algebra() copy, as
    many principals and the same lattice, and holds the principal count to
    the budget; all_congruences, and generate_congruence of the drawn
    pairs, agree on F(n) and on the copy."""
    alg = free_alg.as_algebra()
    k = alg.size
    plain, _, plain_of = _principals(alg, DEFAULT_BUDGET)
    reps, pairs, of_pair = _principals(free_alg, DEFAULT_BUDGET)
    upper = np.triu(np.ones((k, k), dtype=bool), 1).ravel()
    assert len(reps) == len(plain) and (of_pair[~upper] == -1).all()
    np.testing.assert_array_equal(reps[of_pair[upper]], plain[plain_of[upper]])
    assert (of_pair[pairs[:, 0] * k + pairs[:, 1]] == np.arange(len(reps))).all()
    np.testing.assert_array_equal(_congruence_rows(free_alg, DEFAULT_BUDGET),
                                  _congruence_rows(alg, DEFAULT_BUDGET))
    if len(reps):
        assert len(_principals(free_alg, len(reps))[0]) == len(reps)
        message = f"^congruence lattice exceeds budget {len(reps) - 1}$"
        with pytest.raises(BudgetExceeded, match=message):
            _principals(free_alg, len(reps) - 1)
    assert all_congruences(free_alg) == all_congruences(alg)
    assert generate_congruence(free_alg, drawn) == generate_congruence(alg, drawn)


@pytest.mark.parametrize("name, n", [(name, n) for name in list_builtins() for n in (1, 2, 3)]
                         + [("distlat2", 4), ("z4", 4)])
def test_orbit_route_gives_the_plain_principals(name, n):
    f = free_algebra(builtin(name), n)
    rng = random.Random(f"{name}@{n}")
    check_orbit_route(f, [(rng.randrange(f.size), rng.randrange(f.size)) for _ in range(3)])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generators(), st.data())
def test_orbit_route_gives_the_plain_principals_on_random_algebras(generator, data):
    g, n = generator
    f = free_algebra(g, n)
    if f.size:
        element = st.integers(0, f.size - 1)
        check_orbit_route(f, data.draw(st.lists(st.tuples(element, element), max_size=3)))


def test_generate_congruence_on_the_largest_free_algebra():
    alg = free("distlat2", 3)
    ops = _ops_dict(alg)
    for pairs in [[(0, 19)], [(3, 7), (11, 12)], [(5, 6)], []]:
        want = oracles.least_congruence(ops, alg.size, pairs)
        assert generate_congruence(alg, pairs).labels == want


@pytest.mark.parametrize("pairs, blocks, want", [
    ([(0, 255)], 16, "6b6f143d19766f36"),
    ([(3, 200), (17, 18)], 2, "e5e0889f31df8a3f"),
    ([(5, 6), (100, 101), (40, 250)], 8, "a2329b5b5b4f22d2"),
])
def test_generate_congruence_on_free_bool2_3(pairs, blocks, want):
    alg = free("bool2", 3)
    got = generate_congruence(alg, pairs)
    assert got.labels == oracles.least_congruence(_ops_dict(alg), alg.size, pairs)
    assert got.num_blocks == blocks and digest(list(got.labels)) == want


def test_translations_are_cached_and_read_only(monkeypatch):
    made = []
    monkeypatch.setattr(core, "_unary_translations",
                        lambda alg: made.append(alg) or _unary_translations(alg))
    alg = FiniteAlgebra(builtin("z4").signature, 4, builtin("z4").tables)
    images = alg._translations
    generate_congruence(alg, [(0, 2)])
    generate_congruence(alg, [(1, 2)])
    assert alg._translations is images and made == [alg]
    assert not images.flags.writeable
    with pytest.raises(ValueError):
        images[0, 0] = 1


def test_all_congruences_runs_one_closure_per_element(monkeypatch):
    calls, closure = [], core._closure
    monkeypatch.setattr(core, "_closure", lambda *a: calls.append(a) or closure(*a))
    alg = free("bool2", 2)
    assert len(all_congruences(alg)) == 16
    assert 0 < len(calls) <= alg.size - 1


def check_generating_set(alg):
    """The kept columns are basic translations, none the identity, and
    generate the same monoid as all of them."""
    kept = {tuple(col) for col in _unary_translations(alg).T.tolist()}
    basic = oracles.basic_translations(_ops_dict(alg), alg.size)
    assert kept <= basic and tuple(range(alg.size)) not in kept
    assert (oracles.transformation_monoid(kept, alg.size)
            == oracles.transformation_monoid(basic, alg.size))


# (columns kept, sha256 prefix of the int32 image array) of the generating
# set of F_g(n), recorded from the int64 fingerprint products
TRANSLATION_DIGESTS = {
    ("bool2", 1): (6, "b13001460c826203"),
    ("bool2", 2): (9, "cf81a8bc63ea3107"),
    ("bool2", 3): (17, "68f7a841e3ec5ae0"),
    ("distlat2", 1): (4, "74d2a59f7c045696"),
    ("distlat2", 2): (8, "fa56a01f986829a7"),
    ("distlat2", 3): (16, "e1a71726014ab7f5"),
    ("distlat2", 4): (32, "455c7afe2d84165c"),
    ("semilat2", 1): (0, "e3b0c44298fc1c14"),
    ("semilat2", 2): (2, "164b80fa899c7e43"),
    ("semilat2", 3): (3, "27db8559f110cbfc"),
    ("semilat2", 4): (4, "18fb4bf4cf02d2e0"),
    ("z2", 1): (1, "7c9fa136d4413fa6"),
    ("z2", 2): (2, "8013fa6f3b477123"),
    ("z2", 3): (3, "76e2cbac35acb215"),
    ("z2-in-z4", 1): (1, "7c9fa136d4413fa6"),
    ("z2-in-z4", 2): (2, "8013fa6f3b477123"),
    ("z2-in-z4", 3): (3, "76e2cbac35acb215"),
    ("z4", 1): (2, "8dc7b6e7bc6ead3d"),
    ("z4", 2): (4, "12a38c11b4cd8511"),
    ("z4", 3): (9, "45a5fa502fa6ebde"),
}


@pytest.mark.parametrize("name, n", sorted(TRANSLATION_DIGESTS))
def test_translations_match_frozen_digest(name, n):
    # from the as_algebra() copy, and as F(n)'s own cached table
    f = free_algebra(builtin(name), n)
    for images in (_unary_translations(free(name, n)), f._translations):
        assert images.dtype == np.int32 and images.flags.c_contiguous
        columns, want = TRANSLATION_DIGESTS[name, n]
        assert images.shape[1] == columns
        assert hashlib.sha256(images.tobytes()).hexdigest()[:16] == want
    assert f._translations is images and not images.flags.writeable


@pytest.mark.parametrize("name, n", [("bool2", 2), ("z4", 2), ("distlat2", 3), ("semilat2", 4)])
def test_translations_generate_the_translation_monoid(name, n):
    check_generating_set(free(name, n))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generators())
def test_translations_of_random_algebras_generate_the_monoid(generator):
    g, n = generator
    check_generating_set(g)
    f = free_algebra(g, n).as_algebra()
    if 0 < f.size <= 12:
        check_generating_set(f)


# --------------------------------------------------------------------------
# random algebras against the brute-force oracles


def least_brute_congruence(cons, pairs):
    """The congruence with the most blocks among those holding the pairs;
    congruences are closed under meet, so it is the least of them."""
    holding = [c for c in cons if all(c[a] == c[b] for a, b in pairs)]
    return max(holding, key=lambda c: len(set(c)))


def check_against_brute_force(data, alg):
    ops = _ops_dict(alg)
    cons = oracles.brute_congruences(ops, alg.size)
    assert {c.labels for c in all_congruences(alg)} == cons
    if alg.size:
        element = st.integers(0, alg.size - 1)
        pairs = data.draw(st.lists(st.tuples(element, element), max_size=3))
        got = generate_congruence(alg, pairs).labels
        assert got == least_brute_congruence(cons, pairs)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_congruences_of_random_algebras_match_oracles(data):
    g, n = data.draw(generators())
    check_against_brute_force(data, g)
    f = free_algebra(g, n).as_algebra()
    if f.size <= 8:
        check_against_brute_force(data, f)
    if f.size <= 20:
        ops = _ops_dict(f)
        want = oracles.join_closure(oracles.principal_congruences(ops, f.size), f.size)
        assert {c.labels for c in all_congruences(f)} == want


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_batched_join_of_random_partitions_matches_oracle(data):
    # any partitions, not only congruences: the join of equivalences is the
    # same closure; the budget is drawn around the lattice size (it bounds
    # the rows once a generator is in), and the chunk from one row up
    k = data.draw(st.integers(1, 7))
    labels = st.lists(st.integers(0, k - 1), min_size=k, max_size=k)
    drawn = data.draw(st.lists(labels, max_size=5))
    parts = [core.Partition.from_labels(p).labels for p in drawn]
    want = oracles.join_closure(parts, k)
    budget = data.draw(st.integers(len(want) - 1, len(want) + 1))
    gens = _least_members(parts).reshape(len(parts), k)
    with mock.patch.object(core, "_CHUNK", data.draw(st.sampled_from([1, 2 * k, core._CHUNK]))):
        if budget < len(want) and parts:
            message = f"congruence lattice exceeds budget {budget}$"
            with pytest.raises(BudgetExceeded, match=message):
                _join_rows(gens, budget)
            return
        rows = _join_rows(gens, budget)
    assert rows.dtype == np.uint8
    got = [tuple(lab) for lab in _labels(rows).tolist()]
    assert len(got) == len(set(got)) and set(got) == want


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generators())
def test_batched_join_of_principals_of_random_algebras_matches_oracle(generator):
    g, n = generator
    f = free_algebra(g, n).as_algebra()
    if not f.size:
        return
    reps, _, _ = _principals(f, DEFAULT_BUDGET)
    parts = [tuple(lab) for lab in _labels(reps).tolist()]
    rows = _join_rows(reps, DEFAULT_BUDGET)
    assert {tuple(lab) for lab in _labels(rows).tolist()} == oracles.join_closure(parts, f.size)
