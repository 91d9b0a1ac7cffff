"""The clone layer: F(n)'s operation tables come from the free-algebra BFS,
and one witness-order evaluator serves ground evaluation, substitution and
the batched hom tables of the adjunction.

Builtin results are pinned to frozen digests (sha256 of the canonical JSON)
recorded from the earlier routes: a pointwise re-evaluation for the
operation tables, the graph closure for ground evaluation and a scalar row
lookup for substitution. Random small algebras are checked against the
brute-force oracles.
"""

import hashlib
import json
import tracemalloc
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from affinekit import core, free
from affinekit.core import (
    DEFAULT_BUDGET,
    FiniteAlgebra,
    all_congruences,
    generate_subuniverse,
    power_algebra,
    quotient_algebra,
)
from affinekit.free import _replay, free_algebra, ground_space, substitute
from affinekit.galois import AffineSubset, c_operator
from affinekit.instances import builtin

import oracles
from test_core import _ops_dict


def digest(obj):
    return hashlib.sha256(json.dumps(obj, default=int).encode()).hexdigest()[:16]


FREE_DIGESTS = {
    # element tables in order, term_string() witnesses, as_algebra().tables
    ("bool2", 3): "146e583bdcd99c5f",
    ("z4", 3): "3fe13b84c4aeea34",
    ("distlat2", 3): "8e68d8443d7094c6",
    ("semilat2", 4): "14e0fb57b5c87b87",
    ("z2", 3): "765630520c3e362f",
    ("z4", 2): "e4bc9783d9c3508b",
    # recorded from the full-round BFS (tests/oracles.py::free_bfs)
    ("bool2", 0): "b1e936e82b9f888e",
    ("bool2", 1): "b3b3650556b802fc",
    ("bool2", 2): "df7b9bc42a004db9",
    ("distlat2", 0): "70eec58a72cb5bd6",
    ("distlat2", 1): "c3962c0cce1bafb5",
    ("distlat2", 2): "eae26e5bdcd4e004",
    ("distlat2", 4): "6f4befb34426ace5",
    ("semilat2", 0): "ea87be34d3e150a3",
    ("semilat2", 1): "61dc085981c3beee",
    ("semilat2", 2): "5e83292b0ca7ed54",
    ("semilat2", 3): "af2d9216792d2140",
    ("z2", 0): "fee72b5226b2d3a3",
    ("z2", 1): "48d8da761bf92873",
    ("z2", 2): "445462932300efe1",
    ("z2-in-z4", 0): "fee72b5226b2d3a3",
    ("z2-in-z4", 1): "48d8da761bf92873",
    ("z2-in-z4", 2): "445462932300efe1",
    ("z2-in-z4", 3): "765630520c3e362f",
    ("z4", 0): "fee72b5226b2d3a3",
    ("z4", 1): "6d8bc263a003a688",
    ("z4", 4): "de2f7f7f6f222f85",
}

RECIPE_DIGESTS = {
    # recipes and var_positions, recorded from the full-round BFS
    ("bool2", 0): "7b81eea57f1b2917",
    ("bool2", 1): "e9a81bc092c96780",
    ("bool2", 2): "4f51c8ec3bc3c762",
    ("bool2", 3): "1c61579259badba6",
    ("distlat2", 0): "51195ddb46ff7de8",
    ("distlat2", 1): "faa06c19df3326d3",
    ("distlat2", 2): "2e2d9f00c36d2ce5",
    ("distlat2", 3): "28f5ec64d036463c",
    ("distlat2", 4): "faf3eeb1ca948234",
    ("semilat2", 0): "a683096011db3975",
    ("semilat2", 1): "d09e0184727b3e3f",
    ("semilat2", 2): "6c78cdcbb1c4fa35",
    ("semilat2", 3): "a46de1c5bcd87a5a",
    ("semilat2", 4): "a412a867189ebffc",
    ("z2", 0): "d0d49b8566ab922c",
    ("z2", 1): "dfa79f42c7c83bfd",
    ("z2", 2): "55e7b7b8ea4127ed",
    ("z2", 3): "0daedec70a461010",
    ("z2-in-z4", 0): "d0d49b8566ab922c",
    ("z2-in-z4", 1): "dfa79f42c7c83bfd",
    ("z2-in-z4", 2): "55e7b7b8ea4127ed",
    ("z2-in-z4", 3): "0daedec70a461010",
    ("z4", 0): "d0d49b8566ab922c",
    ("z4", 1): "f31ea5da2805643e",
    ("z4", 2): "7086038ec52a7cbd",
    ("z4", 3): "a269fccae6a924aa",
    ("z4", 4): "0d9dc665c2c8cd34",
}


def xor2():
    """A ground in the semilattice signature outside its variety."""
    return FiniteAlgebra.make(2, [("and", 2, (0, 1, 1, 0))], name="xor")


def trivial_semilattice():
    """Its free algebras have one element, so x0 = x1 there."""
    return FiniteAlgebra.make(1, [("and", 2, (0,))], name="trivial")


GROUND_CASES = [
    # (generator, ground, arity, points where evaluation is well defined)
    *[(builtin("z4"), builtin("z2-in-z4"), n, 2 ** n) for n in range(1, 5)],
    (builtin("bool2"), builtin("bool2"), 3, 8),
    (builtin("z4"), builtin("z4"), 3, 64),
    (builtin("distlat2"), builtin("distlat2"), 3, 8),
    (builtin("semilat2"), xor2(), 2, 1),
    (builtin("semilat2"), xor2(), 3, 1),
    (builtin("z2"), builtin("z4"), 1, 2),
    (trivial_semilattice(), builtin("semilat2"), 2, 2),
]

SUBSTITUTION_DIGESTS = {
    # substitute(F(ns), p, w, F(nd)) for every witness tuple w (rows) and
    # element p (columns)
    ("bool2", 1, 1): "7d90117c1fb1a0b2",
    ("bool2", 1, 2): "c699be14254af1f6",
    ("bool2", 2, 1): "95e3610a4e1cf048",
    ("bool2", 2, 2): "3c2345addc949c01",
    ("z4", 1, 1): "d58ef2a052f3cc03",
    ("z4", 1, 2): "0c9f9a38a86d0a69",
    ("z4", 2, 1): "9c1aef4bf7cd1a65",
    ("z4", 2, 2): "9df6ff16b7e78fd5",
}


@pytest.mark.parametrize("name, n", sorted(FREE_DIGESTS))
def test_free_algebra_matches_frozen_digest(name, n):
    f = free_algebra(builtin(name), n)
    got = digest([
        [e.table for e in f.elements],
        [e.term_string() for e in f.elements],
        f.as_algebra().tables,
    ])
    assert got == FREE_DIGESTS[name, n]
    assert digest([f._recipes, f.var_positions]) == RECIPE_DIGESTS[name, n]


def traced_peak_mb(call, *args):
    """The peak of memory traced by tracemalloc (numpy's buffers included)
    while call(*args) runs, in MB."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_free_algebra_and_ground_check_peak_memory():
    # the uncached builders, so that a build made by an earlier test is
    # measured again; one int64 array over all 256**2 operand tuples of
    # 256 entries would take 134 MB
    z4 = builtin("z4")
    assert traced_peak_mb(free._free_cached.__wrapped__, z4, 4, DEFAULT_BUDGET) < 64
    free_algebra(z4, 4)
    assert traced_peak_mb(free._ground_cached.__wrapped__, z4, z4, 4, DEFAULT_BUDGET) < 16


@pytest.mark.parametrize("generator, ground, n, ok_points", GROUND_CASES)
def test_ground_evaluation_matches_graph_closure(generator, ground, n, ok_points):
    gs = ground_space(generator, ground, n)
    ev, point_ok = oracles.graph_closure_ground(gs.free, ground)
    assert gs.ev.tolist() == ev
    assert gs.point_ok.tolist() == point_ok
    assert sum(point_ok) == ok_points


@pytest.mark.parametrize("name, ns, nd", sorted(SUBSTITUTION_DIGESTS))
def test_homomorphism_table_matches_pointwise_composition(name, ns, nd):
    g = builtin(name)
    ys, xs = ground_space(g, g, ns), ground_space(g, g, nd)
    fs, fd = ys.free, xs.free
    witnesses = list(product(range(fd.size), repeat=ns))
    columns = np.array(witnesses, dtype=np.int64).reshape(len(witnesses), ns).T
    table = _replay(fs, fd.as_algebra(), columns)
    assert table.shape == (fs.size, len(witnesses))
    for column, w in zip(table.T.tolist(), witnesses):
        inner = [fd.elements[i].table for i in w]
        assert column == [
            fd.index_of_table(
                oracles.apply_op(e.table, g.size, inner, g.size ** nd)
            )
            for e in fs.elements
        ]
    assert digest(table.T.tolist()) == SUBSTITUTION_DIGESTS[name, ns, nd]


def test_cached_arrays_are_read_only():
    g = builtin("bool2")
    gs = ground_space(g, g, 1)
    for array in (gs.ev, gs.point_ok, gs.free.table_matrix(), *gs.free._tables):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1
    fresh = ground_space(builtin("bool2"), builtin("bool2"), 1)
    assert c_operator(AffineSubset.of(fresh, [0])).labels == (0, 1, 0, 1)


# --------------------------------------------------------------------------
# random algebras against the brute-force oracles

MAX_ARITY = {1: 3, 2: 2, 3: 1}  # keeps |G|^n <= 4, so every clone is small

OP_ARITIES = {
    "mixed": st.integers(0, 2),
    "no constants": st.integers(1, 2),
    "unary only": st.just(1),
    "nullary only": st.just(0),
}


def table_of(draw, k, r):
    return tuple(draw(st.lists(st.integers(0, k - 1), min_size=k ** r, max_size=k ** r)))


@st.composite
def generators(draw):
    """A 1-3 element algebra with a random signature of one of four shapes,
    and an arity n; no constants with n = 0 gives an empty F(0)."""
    k = draw(st.integers(1, 3))
    arities = draw(st.lists(OP_ARITIES[draw(st.sampled_from(sorted(OP_ARITIES)))],
                            min_size=1, max_size=3))
    ops = [(f"f{i}", r, table_of(draw, k, r)) for i, r in enumerate(arities)]
    return FiniteAlgebra.make(k, ops, name="G"), draw(st.integers(0, MAX_ARITY[k]))


@st.composite
def grounds(draw, g, n):
    """A ground of g's signature: g itself, a subalgebra, a quotient or the
    square (inside the variety), or random tables (mostly outside it)."""
    kind = draw(st.sampled_from(["self", "subalgebra", "quotient", "square", "random"]))
    if kind == "subalgebra":
        seeds = draw(st.sets(st.integers(0, g.size - 1), min_size=1))
        carrier = generate_subuniverse(g, seeds)
        pos = {a: i for i, a in enumerate(carrier)}
        ops = [
            (sym, r, tuple(pos[tab[oracles.encode(args, g.size)]]
                           for args in product(carrier, repeat=r)))
            for (sym, r), tab in zip(g.signature.symbols, g.tables)
        ]
        return FiniteAlgebra.make(len(carrier), ops), True
    if kind == "quotient":
        theta = draw(st.sampled_from(all_congruences(g)))
        return quotient_algebra(g, theta)[0], True
    if kind == "square" and g.size ** (2 * n) <= 16:
        return power_algebra(g, 2), True
    if kind == "random":
        # |A|^n <= 4 bounds the points, not the graph closure's pair set:
        # F(n) and the rows A^(A^n) both reach 27 at |A| = 3, n = 1
        ka = draw(st.integers(1, max(a for a in (1, 2, 3) if a ** n <= 4)))
        ops = [(sym, r, table_of(draw, ka, r)) for sym, r in g.signature.symbols]
        return FiniteAlgebra.make(ka, ops), False
    return g, True


@st.composite
def ground_cases(draw):
    """(generator, n, ground, ground is in the variety)."""
    g, n = draw(generators())
    return (g, n, *draw(grounds(g, n)))


PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=2000, suppress_health_check=[HealthCheck.too_slow]
)


@PROPERTY_SETTINGS
@given(st.data())
def test_bfs_tables_and_substitution_match_oracles(data):
    g, n = data.draw(generators())
    k = g.size
    f = free_algebra(g, n)
    ops, size = oracles.free_as_algebra(_ops_dict(g), k, n)
    assert size == f.size
    # the oracle numbers elements by sorted table; carry ours across
    order = sorted(e.table for e in f.elements)
    perm = [order.index(e.table) for e in f.elements]
    falg = f.as_algebra()
    for (sym, r), tab in zip(g.signature.symbols, falg.tables):
        want = ops[sym][1]
        for i, args in enumerate(product(range(f.size), repeat=r)):
            assert perm[tab[i]] == want[oracles.encode([perm[a] for a in args], size)]

    n_dst = data.draw(st.integers(0, MAX_ARITY[k]))
    dst = free_algebra(g, n_dst)
    if f.size and (dst.size or not n):
        p = data.draw(st.integers(0, f.size - 1))
        images = data.draw(st.lists(st.integers(0, dst.size - 1), min_size=n, max_size=n))
        inner = [dst.elements[i].table for i in images]
        want = oracles.apply_op(f.elements[p].table, k, inner, k ** n_dst)
        assert dst.elements[substitute(f, p, images, dst)].table == want


@PROPERTY_SETTINGS
@given(generators(), st.sampled_from([1, 64, core._CHUNK]))
@example((builtin("bool2"), 3), 1)
@example((builtin("z4"), 3), 64)
def test_semi_naive_bfs_matches_full_rounds(case, chunk):
    # a small chunk splits every round into one first operand per chunk
    g, n = case
    with patch.object(core, "_CHUNK", chunk):
        assert_matches_full_rounds(free._free_cached.__wrapped__(g, n, DEFAULT_BUDGET))


def assert_matches_full_rounds(f):
    rows, witnesses, recipes, var_positions, tables = oracles.free_bfs(f.generator, f.arity)
    assert [list(e.table) for e in f.elements] == rows
    assert [e.witness for e in f.elements] == witnesses
    assert list(f._recipes) == recipes
    assert f.var_positions == var_positions
    assert [t.ravel().tolist() for t in f._tables] == tables


def test_bfs_cell_codes_wider_than_values():
    # 17 values fit a byte, the 289 cells of a binary table do not
    chain = FiniteAlgebra.make(
        17, [("max", 2, tuple(max(a, b) for a in range(17) for b in range(17)))]
    )
    f = free_algebra(chain, 2)
    assert f.size == 3
    assert_matches_full_rounds(f)


# The fixpoint oracle runs in plain Python over every operand tuple of up
# to 27 elements, so this property has no deadline.
@settings(PROPERTY_SETTINGS, deadline=None)
@given(ground_cases())
@example((
    FiniteAlgebra.make(3, [("f0", 0, (0,)), ("f1", 1, (2, 0, 0)),
                           ("f2", 2, (0, 0, 0, 0, 0, 0, 1, 0, 2))], name="G"),
    1,
    FiniteAlgebra.make(3, [("f0", 0, (0,)), ("f1", 1, (2, 0, 0)),
                           ("f2", 2, (0, 0, 0, 0, 0, 0, 2, 0, 1))]),
    False,
))
def test_ground_evaluation_matches_graph_closure_on_random_algebras(case):
    g, n, ground, in_variety = case
    gs = ground_space(g, ground, n)
    ev, point_ok = oracles.ground_fixpoint(gs.free, ground)
    assert gs.ev.tolist() == ev
    assert gs.point_ok.tolist() == point_ok
    if in_variety:
        assert gs.ok
