from itertools import product

import numpy as np
import pytest

from affinekit.adjunction import AdjunctionReport, representability_check, verify_adjunction
from affinekit.cli import main
from affinekit.core import (
    App,
    FiniteAlgebra,
    Homomorphism,
    Var,
    _apply_all,
    decode_point,
    evaluate_term,
    is_homomorphism,
    power_algebra,
    quotient_algebra,
    Partition,
)
from affinekit.errors import (
    BudgetExceeded,
    NotInVariety,
    SignatureMismatch,
    ValidationError,
)
from affinekit.free import (
    FreeAlgebra,
    _free_cached,
    _ground_cached,
    enumerate_homs_free,
    free_algebra,
    ground_space,
    point_evaluation_hom,
    substitute,
    verify_ground,
)
from affinekit.galois import AffineSubset, Relation, c_operator
from affinekit.instances import builtin, classify_fixed, stone_demo

import oracles
from test_core import bool2, semilat2, z4, _ops_dict


def distlat2():
    return FiniteAlgebra.make(2, [
        ("and", 2, (0, 0, 0, 1)),
        ("or", 2, (0, 1, 1, 1)),
        ("0", 0, (0,)),
        ("1", 0, (1,)),
    ], name="distlat2")


def z2():
    return FiniteAlgebra.make(2, [
        ("add", 2, (0, 1, 1, 0)),
        ("neg", 1, (0, 1)),
        ("0", 0, (0,)),
    ], name="z2")


def impl2():
    # two-element implication algebra wearing the z2 signature
    return FiniteAlgebra.make(2, [
        ("add", 2, (1, 1, 0, 1)),
        ("neg", 1, (0, 1)),
        ("0", 0, (0,)),
    ], name="impl2")


FROZEN_SIZES = {
    # from the brute-force clone oracle
    "bool2": [2, 4, 16, 256],
    "distlat2": [2, 3, 6, 20],
    "semilat2": [0, 1, 3, 7],
    "z2": [1, 2, 4, 8],
    "z4": [1, 4, 16],
}


def test_clone_sizes_frozen():
    for make in (bool2, distlat2, semilat2, z2, z4):
        g = make()
        for n, want in enumerate(FROZEN_SIZES[g.name]):
            assert free_algebra(g, n).size == want, (g.name, n)


def test_clone_contents_match_brute_force():
    for make, top in [(bool2, 2), (distlat2, 3), (semilat2, 3), (z2, 3), (z4, 2)]:
        g = make()
        for n in range(top + 1):
            f = free_algebra(g, n)
            got = frozenset(e.table for e in f.elements)
            want = oracles.brute_clone(_ops_dict(g), g.size, n)
            assert got == want, (g.name, n)


def test_discovery_order_z4():
    f = free_algebra(z4(), 1)
    assert [e.table for e in f.elements] == [
        (0, 1, 2, 3),  # x
        (0, 2, 0, 2),  # x + x
        (0, 3, 2, 1),  # -x
        (0, 0, 0, 0),  # 0
    ]
    assert f.var(0) == 0
    assert f.elements[1].term_string() == "add(x0, x0)"
    assert f.elements[2].term_string() == "neg(x0)"
    assert f.elements[3].term_string() == "0"


def test_discovery_order_bool2():
    f = free_algebra(bool2(), 1)
    assert [e.table for e in f.elements] == [(0, 1), (1, 0), (0, 0), (1, 1)]
    f2 = free_algebra(semilat2(), 2)
    assert [e.table for e in f2.elements] == [
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (0, 0, 0, 1),
    ]
    assert f2.elements[2].term_string() == "and(x0, x1)"


def test_constants_only_free_algebra():
    f = free_algebra(bool2(), 0)
    assert [e.table for e in f.elements] == [(0,), (1,)]
    assert f.var_positions == ()
    assert free_algebra(semilat2(), 0).size == 0


def test_witnesses_evaluate_to_tables():
    for make, n in [(bool2, 2), (z4, 2), (distlat2, 3), (semilat2, 3)]:
        g = make()
        f = free_algebra(g, n)
        for e in f.elements:
            for code in range(g.size ** n):
                point = decode_point(code, g.size, n)
                assert evaluate_term(g, e.witness, point) == e.table[code]


def test_as_algebra_is_the_expected_structure():
    f = free_algebra(z4(), 1)
    falg = f.as_algebra()
    # x + x is element 1
    assert falg.table("add")[0] == 1
    # the map x -> 1 is an isomorphism onto z4
    iso = Homomorphism(falg, z4(), (1, 2, 3, 0))
    assert is_homomorphism(iso)
    assert len(set(iso.mapping)) == 4


def test_free_algebra_budget():
    with pytest.raises(BudgetExceeded):
        free_algebra(bool2(), 3, budget=100)


def test_free_algebra_budget_edges():
    # the last round of F_bool2(3) pairs all 256 elements: 256**2 tuples
    assert free_algebra(bool2(), 3, budget=65536).size == 256
    with pytest.raises(BudgetExceeded, match="^operand tuples for 'and' exceed budget 65535$"):
        free_algebra(bool2(), 3, budget=65535)
    # F_z4(1) has 4 elements; the fourth found overruns a budget of 3
    with pytest.raises(BudgetExceeded, match="^free algebra exceeds budget 3$"):
        free_algebra(z4(), 1, budget=3)


def test_budget_bounds_the_points():
    # a constant-only algebra has n + 1 elements over 2**n points: the
    # points, listed before the clone search, meet the budget first
    const = FiniteAlgebra.make(2, [("c", 0, (0,))])
    assert free_algebra(const, 4, budget=16).size == 5
    with pytest.raises(BudgetExceeded, match="^free algebra exceeds budget 15$"):
        free_algebra(const, 4, budget=15)
    # the ground's points too: 16 of z2^4 against F_z2(1)'s 2, also as
    # the assignments that enumerate_homs_free lists
    power = power_algebra(z2(), 4)
    assert ground_space(z2(), power, 1, budget=16).npoints == 16
    assert len(enumerate_homs_free(free_algebra(z2(), 1), power, budget=16)) == 16
    with pytest.raises(BudgetExceeded, match="^ground points exceed budget 15$"):
        ground_space(z2(), power, 1, budget=15)
    with pytest.raises(BudgetExceeded, match="^ground points exceed budget 15$"):
        enumerate_homs_free(free_algebra(z2(), 1), power, budget=15)


def test_routines_take_the_free_algebra_itself(monkeypatch, capsys):
    """No route converts F(n) with as_algebra(): with that copy patched to
    raise, each of these still gives its result."""
    def no_copy(free):
        raise AssertionError(f"as_algebra() of F({free.arity}) called")

    monkeypatch.setattr(FreeAlgebra, "as_algebra", no_copy)
    assert stone_demo(3).bijective
    assert classify_fixed(builtin("z4"), builtin("z2-in-z4"), 3).fixed_count == 16
    for argv, first in [
        (["null", "--builtin", "z4", "--ground", "z2-in-z4", "--pairs", ""],
         "congruence generated by the input has 4 classes\n"),
        (["adjoint", "--builtin", "bool2", "--points", "1", "--equations", "x0 = not(not(x0))"],
         "presented-side arrows: 2\n"),
    ]:
        assert main(argv) == 0 and capsys.readouterr().out.startswith(first)
    gs = ground_space(bool2(), bool2(), 2)
    s = AffineSubset.of(gs, [0, 3])
    y = Relation.from_partition(gs, c_operator(s))
    assert verify_adjunction(s, y) == AdjunctionReport(4, 4, True, True)
    assert representability_check(y).match
    x0, x1 = gs.free.var_positions
    assert substitute(gs.free, x0, (x1, x0), gs.free) == x1


def test_free_algebra_is_cached():
    assert free_algebra(z4(), 1) is free_algebra(z4(), 1)


def test_verify_ground():
    assert verify_ground(z2(), z2(), 2)
    assert not verify_ground(impl2(), z2(), 2)
    assert verify_ground(z2(), z4(), 1)  # z2 is a quotient of z4
    assert verify_ground(bool2(), bool2(), 3)
    q, _ = quotient_algebra(z4(), Partition.from_pairs(4, [(0, 2), (1, 3)]))
    assert verify_ground(q, z4(), 2)


def test_ground_space_z4_over_z2():
    gs = ground_space(z4(), z2(), 1)
    assert gs.ev.tolist() == [[0, 1], [0, 0], [0, 1], [0, 0]]
    assert gs.ok


def test_point_evaluation_hom():
    f = free_algebra(z4(), 1)
    h = point_evaluation_hom(f, z2(), (1,))
    assert h.mapping == (1, 0, 1, 0)
    assert is_homomorphism(h)
    h0 = point_evaluation_hom(f, z2(), (0,))
    assert h0.mapping == (0, 0, 0, 0)
    with pytest.raises(NotInVariety):
        point_evaluation_hom(free_algebra(z2(), 2), impl2(), (0, 0))
    with pytest.raises(ValidationError):
        point_evaluation_hom(f, z2(), (5,))


def test_require_ok_names_the_bad_points_in_the_order_asked():
    gs = ground_space(z2(), z4(), 2)  # 4 of the 16 points are well defined
    ok = [a for a in range(gs.npoints) if gs.point_ok[a]]
    bad = [a for a in range(gs.npoints) if not gs.point_ok[a]]
    assert ok and bad
    gs.require_ok(ok)
    gs.require_ok([])
    for points, named in [(None, bad), (ok + bad[::-1], bad[::-1]), (bad[-1:] * 6, bad[-1:] * 5)]:
        with pytest.raises(NotInVariety) as info:
            gs.require_ok(points)
        assert str(info.value) == f"evaluation not well defined at point(s) {named[:5]} of the ground"


def test_enumerate_homs_free_counts_and_oracle():
    f = free_algebra(z2(), 2)
    homs = enumerate_homs_free(f, z2())
    assert len(homs) == 4
    got = {h.mapping for h in homs}
    want = {
        tuple(m)
        for m in oracles.brute_homs(
            _ops_dict(f.as_algebra()), f.size, _ops_dict(z2()), 2
        )
    }
    assert got == want

    f1 = free_algebra(bool2(), 1)
    homs = enumerate_homs_free(f1, bool2())
    assert [h.mapping for h in homs] == [(0, 1, 0, 1), (1, 0, 0, 1)]

    with pytest.raises(NotInVariety):
        enumerate_homs_free(free_algebra(z2(), 2), impl2())
    with pytest.raises(BudgetExceeded):
        enumerate_homs_free(free_algebra(z4(), 2), z4(), budget=10)


def test_enumerate_homs_into_empty_arity():
    f0 = free_algebra(semilat2(), 0)
    homs = enumerate_homs_free(f0, semilat2())
    assert len(homs) == 1
    assert homs[0].mapping == ()
    assert is_homomorphism(homs[0])


def test_substitute_matches_graph_method():
    # clone composition against per-assignment graph evaluation
    g = z4()
    f1 = free_algebra(g, 1)
    f2 = free_algebra(g, 2)
    homs = enumerate_homs_free(f1, f2.as_algebra())
    for h in homs:
        w = h.mapping[f1.var(0)]  # image of the generator
        for p in range(f1.size):
            assert substitute(f1, p, (w,), f2) == h.mapping[p]

    b = bool2()
    fb1 = free_algebra(b, 1)
    fb2 = free_algebra(b, 2)
    homs = enumerate_homs_free(fb1, fb2.as_algebra())
    assert len(homs) == 16
    for h in homs:
        w = h.mapping[fb1.var(0)]
        for p in range(fb1.size):
            assert substitute(fb1, p, (w,), fb2) == h.mapping[p]


@pytest.mark.parametrize("gen, ns, nd", [(bool2, 1, 2), (bool2, 2, 1), (z4, 2, 1),
                                          (semilat2, 2, 2), (bool2, 0, 1)])
def test_substitute_array_matches_scalar_calls(gen, ns, nd):
    g = gen()
    src, dst = free_algebra(g, ns), free_algebra(g, nd)
    every = np.arange(src.size)
    shapes = [every, every[::-1].reshape(1, -1), np.array([], dtype=np.int64),
              np.empty((ns, 0), dtype=np.int64), tuple(every.tolist())]
    for images in product(range(dst.size), repeat=ns):
        scalar = [substitute(src, p, images, dst) for p in range(src.size)]
        assert all(type(v) is int for v in scalar)
        for ps in shapes:
            got = substitute(src, ps, images, dst)
            assert isinstance(got, np.ndarray) and got.shape == np.shape(ps)
            assert got.ravel().tolist() == [scalar[p] for p in np.ravel(ps)]


def test_substitute_basics():
    g = bool2()
    f2 = free_algebra(g, 2)
    f1 = free_algebra(g, 1)
    # substitute x0 := not x0 into and(x0, x1) within F(2)
    andi = f2.index_of_table((0, 0, 0, 1))
    noti = f2.index_of_table((1, 1, 0, 0))  # not x0
    x1i = f2.var(1)
    got = substitute(f2, andi, (noti, x1i), f2)
    assert f2.elements[got].table == (0, 1, 0, 0)
    with pytest.raises(SignatureMismatch):
        substitute(f2, andi, (0, 0), free_algebra(z4(), 2))


# automorphisms kept of F_g(n) from the transposition (x0 x1), the n-cycle
# and x0 -> f(x0, x1, ..) for each basic operation f of arity >= 1
AUTOMORPHISM_COUNTS = {
    ("bool2", 0): 0, ("bool2", 1): 1, ("bool2", 2): 2, ("bool2", 3): 3,
    ("distlat2", 0): 0, ("distlat2", 1): 0, ("distlat2", 2): 1, ("distlat2", 3): 2,
    ("semilat2", 0): 0, ("semilat2", 1): 0, ("semilat2", 2): 1, ("semilat2", 3): 2,
    ("z2", 0): 0, ("z2", 1): 0, ("z2", 2): 2, ("z2", 3): 3,
    ("z2-in-z4", 0): 0, ("z2-in-z4", 1): 0, ("z2-in-z4", 2): 2, ("z2-in-z4", 3): 3,
    ("z4", 0): 0, ("z4", 1): 1, ("z4", 2): 3, ("z4", 3): 4, ("z4", 4): 4,
}


@pytest.mark.parametrize("name, n", sorted(AUTOMORPHISM_COUNTS))
def test_substitution_automorphisms(name, n):
    free = free_algebra(builtin(name), n)
    sigma = free._automorphisms
    assert sigma.shape == (AUTOMORPHISM_COUNTS[name, n], free.size)
    assert free._automorphisms is sigma and not sigma.flags.writeable
    every = np.arange(free.size)
    assert (np.sort(sigma, axis=1) == every).all()
    assert len({s.tobytes() for s in sigma} - {every.tobytes()}) == len(sigma)
    for s in sigma:
        # the substitution x_i -> s(x_i), commuting with every operation
        assert np.array_equal(substitute(free, every, s[list(free.var_positions)], free), s)
        for (_, r), table in zip(free.signature.symbols, free._tables):
            assert np.array_equal(s[table], _apply_all(table, s, r))


def test_table_matrix_and_index_are_built_when_first_read():
    # no route in the package reads them; F_z4(5) held 16.1 MB and paid
    # 36.6 ms for them when __init__ built them
    _free_cached.cache_clear()
    _ground_cached.cache_clear()
    stone_demo(3)
    classify_fixed(builtin("z4"), builtin("z2-in-z4"), 3)
    for f in (free_algebra(builtin("bool2"), 3), free_algebra(builtin("z4"), 3)):
        assert "_matrix" not in f.__dict__ and "_index" not in f.__dict__
        want = np.array([e.table for e in f.elements], dtype=np.int64).reshape(f.size, -1)
        got = f.table_matrix()
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert f.table_matrix() is got and not got.flags.writeable
        assert f._index == {row.tobytes(): i for i, row in enumerate(want)}
        assert [f.index_of_table(e.table) for e in f.elements] == list(range(f.size))
