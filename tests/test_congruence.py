"""The congruence engine: one worklist closure, over a generating set of
the translations, serves generate_congruence (one row) and the principal
congruences of all_congruences (one row per pair a < b, one call per b),
whose lattice is the join closure of the join-irreducible principals.

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

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affinekit import core
from affinekit.core import (
    FiniteAlgebra,
    _join_irreducibles,
    _least_members,
    _unary_translations,
    all_congruences,
    generate_congruence,
    power_algebra,
)
from affinekit.errors import BudgetExceeded
from affinekit.free import free_algebra
from affinekit.instances import builtin

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


def test_join_irreducibles_of_known_lattices():
    # Con(F_bool2(2)) is the Boolean lattice on 4 atoms and Con(z4) a
    # 3-element chain; the join-irreducibles among the non-identity
    # congruences are the 4 atoms and the 2 non-identity links
    for alg, count in [(free("bool2", 2), 4), (builtin("z4"), 2)]:
        cons = [c for c in all_congruences(alg) if c.num_blocks < alg.size]
        reps = np.array([_least_members(c.labels) for c in cons])
        assert len(_join_irreducibles(reps)) == count


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
