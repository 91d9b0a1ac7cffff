import hashlib
import importlib
import json
import pkgutil
import random
import tracemalloc
from dataclasses import astuple
from itertools import product, starmap

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import affinekit
from affinekit import adjunction
from affinekit.adjunction import (
    RArrowClass,
    cq_arrow,
    cq_object,
    check_stability,
    d_identity,
    hom_set_dq,
    hom_set_rq,
    r_identity,
    rel_closure,
    representability_check,
    verify_adjunction,
    vq_arrow,
    vq_object,
)
from affinekit.core import (
    DEFAULT_BUDGET,
    FiniteAlgebra,
    Partition,
    all_congruences,
    quotient_algebra,
)
from affinekit.errors import (
    AffineError,
    BijectionFailure,
    BudgetExceeded,
    NotStable,
    ValidationError,
)
from affinekit.free import enumerate_homs_free, ground_space
from affinekit.galois import AffineSubset, Relation, c_operator
from affinekit.instances import builtin

import oracles
from test_clone import MAX_ARITY, generators, grounds
from test_core import bool2, semilat2, z4
from test_free import z2


# --- definable-map arrows ---------------------------------------------------


def test_dq_homs_bool2_unary():
    sp = ground_space(bool2(), bool2(), 1)
    full = AffineSubset.full(sp)
    one = AffineSubset.of(sp, [1])
    # restrictions of the four unary term functions
    assert [a.images for a in hom_set_dq(full, full)] == [(0, 1), (1, 0), (0, 0), (1, 1)]
    assert [a.images for a in hom_set_dq(full, one)] == [(1, 1)]
    arrows = hom_set_dq(one, full)
    assert [a.images for a in arrows] == [(1,), (0,)]
    assert [a.witness for a in arrows] == [(0,), (1,)]


def test_dq_homs_no_constants():
    sp = ground_space(semilat2(), semilat2(), 1)
    full = AffineSubset.full(sp)
    arrows = hom_set_dq(full, full)
    assert len(arrows) == 1  # only the identity is a unary term function
    assert arrows[0].images == (0, 1)


def test_dq_homs_quotient_ground():
    sp = ground_space(z4(), z2(), 1)
    full = AffineSubset.full(sp)
    assert [a.images for a in hom_set_dq(full, full)] == [(0, 1), (0, 0)]


def test_dq_homs_empty_source():
    sp = ground_space(bool2(), bool2(), 1)
    empty = AffineSubset.empty(sp)
    arrows = hom_set_dq(empty, AffineSubset.full(sp))
    assert len(arrows) == 1
    assert arrows[0].images == ()


def test_dq_homs_nullary_target():
    sp1 = ground_space(bool2(), bool2(), 1)
    sp0 = ground_space(bool2(), bool2(), 0)
    arrows = hom_set_dq(AffineSubset.full(sp1), AffineSubset.full(sp0))
    assert len(arrows) == 1
    assert arrows[0].witness == ()
    assert arrows[0].images == (0, 0)


def test_dq_identity_and_composition():
    sp = ground_space(bool2(), bool2(), 1)
    full = AffineSubset.full(sp)
    one = AffineSubset.of(sp, [1])
    ident = d_identity(full)
    for f in hom_set_dq(full, full):
        assert d_identity(full).then(f) == f
        assert f.then(ident) == f
    # composite graphs chain
    f = hom_set_dq(one, full)[0]  # 1 |-> 1
    g = hom_set_dq(full, full)[1]  # negation
    assert f.then(g).images == (0,)
    # witness of the composite still realizes the graph
    h = f.then(g)
    assert [int(sp.ev[w, a]) for a in h.source.points for w in h.witness] == [0]


def test_dq_mixed_contexts_rejected():
    spa = ground_space(bool2(), bool2(), 1)
    spb = ground_space(z2(), z2(), 1)
    with pytest.raises(ValidationError):
        hom_set_dq(AffineSubset.full(spa), AffineSubset.full(spb))


def test_dq_budget():
    sp = ground_space(bool2(), bool2(), 2)
    full = AffineSubset.full(sp)
    with pytest.raises(BudgetExceeded):
        hom_set_dq(full, full, budget=10)


# --- relation arrows --------------------------------------------------------


def test_rq_homs_pinned_bool2():
    sp = ground_space(bool2(), bool2(), 1)
    x = cq_object(AffineSubset.of(sp, [1]))
    y = Relation.identity(sp)
    arrows = hom_set_rq(x, y)
    assert [a.class_map for a in arrows] == [(0, 1, 1, 0), (1, 0, 1, 0)]
    assert [a.witness for a in arrows] == [(0,), (1,)]


def test_rq_homs_pinned_z4_over_z2():
    sp = ground_space(z4(), z2(), 1)
    x = cq_object(AffineSubset.of(sp, [1]))
    assert len(hom_set_rq(x, Relation.identity(sp))) == 2


def test_rq_constant_arrows_into_discrete():
    # carrying the total relation into the empty one forces a constant map
    sp = ground_space(z4(), z4(), 1)
    y = Relation.from_partition(sp, Partition.total(4))
    arrows = hom_set_rq(Relation.identity(sp), y)
    assert len(arrows) == 1
    assert arrows[0].class_map == (3,)  # the zero term function


def test_rq_identity_and_composition():
    sp = ground_space(z4(), z2(), 1)
    x = cq_object(AffineSubset.of(sp, [1]))
    y = Relation.identity(sp)
    ident = r_identity(x)
    for a in hom_set_rq(x, y):
        assert ident.then(a) == a
        assert a.then(r_identity(y)) == a


def test_rq_composition_associative_sampled():
    sp = ground_space(bool2(), bool2(), 1)
    rels = [
        Relation.identity(sp),
        Relation.from_partition(sp, Partition.total(sp.free.size)),
        cq_object(AffineSubset.of(sp, [1])),
        cq_object(AffineSubset.of(sp, [0])),
    ]
    rng = random.Random(11)
    for _ in range(40):
        a, b, c, d = (rng.choice(rels) for _ in range(4))
        fs, gs, hs = hom_set_rq(a, b), hom_set_rq(b, c), hom_set_rq(c, d)
        if not (fs and gs and hs):
            continue
        f, g, h = rng.choice(fs), rng.choice(gs), rng.choice(hs)
        assert f.then(g).then(h) == f.then(g.then(h))


def test_rq_nullary_target():
    sp1 = ground_space(bool2(), bool2(), 1)
    sp0 = ground_space(bool2(), bool2(), 0)
    arrows = hom_set_rq(Relation.identity(sp1), Relation.identity(sp0))
    assert len(arrows) == 1
    assert arrows[0].witness == ()
    # the two nullary term functions land on the constants of F(1)
    assert arrows[0].class_map == (2, 3)


def test_rq_empty_free_target():
    sp1 = ground_space(semilat2(), semilat2(), 1)
    sp0 = ground_space(semilat2(), semilat2(), 0)
    arrows = hom_set_rq(Relation.identity(sp1), Relation.identity(sp0))
    assert len(arrows) == 1
    assert arrows[0].class_map == ()


def test_rq_against_quotient_homs():
    # dual route: arrows (F(n), theta1) -> (F(m), theta2) match algebra
    # homomorphisms F(m)/theta2 -> F(n)/theta1, compared as full maps on
    # closure classes
    rng = random.Random(5)
    for alg, pick in [(bool2(), None), (z4(), None), (bool2(), 6)]:
        n = 2 if pick else 1
        sp_n = ground_space(alg, alg, n)
        sp_m = ground_space(alg, alg, 1)
        fn_alg = sp_n.free.as_algebra()
        cons_n = list(all_congruences(fn_alg))
        if pick:
            cons_n = rng.sample(cons_n, pick)
        cons_m = all_congruences(sp_m.free.as_algebra())
        for th1 in cons_n:
            x = Relation.from_partition(sp_n, th1)
            quot, _ = quotient_algebra(fn_alg, th1)
            for th2 in cons_m:
                y = Relation.from_partition(sp_m, th2)
                via_arrows = set()
                for a in hom_set_rq(x, y):
                    ybar = rel_closure(y)
                    via_arrows.add(
                        tuple(a.class_map[ybar.labels[p]] for p in range(sp_m.free.size))
                    )
                via_homs = set()
                if quot.size:
                    for h in enumerate_homs_free(sp_m.free, quot):
                        reps = {}
                        ok = True
                        for p, img in enumerate(h.mapping):
                            c = th2.labels[p]
                            if reps.setdefault(c, img) != img:
                                ok = False
                                break
                        if ok:
                            via_homs.add(tuple(h.mapping))
                assert via_arrows == via_homs


def random_points(rng, points):
    points = list(points)
    kind = rng.choice(["empty", "full", "some"])
    if kind == "empty":
        return []
    return points if kind == "full" else [a for a in points if rng.random() < 0.5]


def random_relation(rng, space):
    """Empty, total, a kernel C(S), a random partition (an equivalence,
    mostly not a congruence), or a few arbitrary pairs (mostly not an
    equivalence)."""
    size = space.free.size
    kind = rng.choice(["empty", "total", "kernel", "kernel", "pairs", "pairs", "partition"])
    if not size or kind == "empty":
        return Relation.identity(space)
    if kind == "total":
        return Relation.from_partition(space, Partition.total(size))
    if kind == "kernel":
        ok = [a for a in range(space.npoints) if space.point_ok[a]]
        return cq_object(AffineSubset.of(space, random_points(rng, ok)))
    if kind == "partition":
        blocks = rng.randint(1, size)
        labels = [rng.randrange(blocks) for _ in range(size)]
        return Relation.from_partition(space, Partition.from_labels(labels))
    pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(1, 4))]
    return Relation.of(space, pairs)


def python_ints(arrows, attr):
    return all(type(v) is int for a in arrows for v in a.witness + getattr(a, attr))


@st.composite
def arrow_cases(draw):
    """(generator, ground, n, m): |G|^n <= 4 and |G|^m <= 4 keep every free
    algebra at 27 elements or fewer and every hom set at 256 witness tuples
    or fewer. n >= 1 here; the explicit examples cover an empty F(n)."""
    g, _ = draw(generators())
    n = draw(st.integers(1, MAX_ARITY[g.size]))
    m = draw(st.integers(0, MAX_ARITY[g.size]))
    return g, draw(grounds(g, max(n, m)))[0], n, m


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(arrow_cases(), st.randoms(use_true_random=False))
@example((semilat2(), semilat2(), 0, 1), random.Random(0))  # F(n) is empty
@example((semilat2(), semilat2(), 0, 0), random.Random(0))  # one empty witness
@example((semilat2(), semilat2(), 1, 0), random.Random(1))  # F(m) is empty
@example((bool2(), bool2(), 1, 2), random.Random(2))
@example((bool2(), bool2(), 1, 1), random.Random(35))  # x's classes split once
def test_sweep_matches_per_tuple_oracle_on_random_algebras(case, rng):
    g, ground, n, m = case
    sn, sm = ground_space(g, ground, n), ground_space(g, ground, m)
    tables_n = [e.table for e in sn.free.elements]
    tables_m = [e.table for e in sm.free.elements]
    witnesses = list(product(range(sn.free.size), repeat=m))

    def point_arrows(src, dst, ws):
        return oracles.point_arrows(sn.ev.tolist(), ground.size, src.points, dst.points, ws)

    def relation_arrows(x, y, ws):
        return oracles.relation_arrows(tables_m, tables_n, g.size, n, x.pairs, y.pairs, ws)

    ok_n = [a for a in range(sn.npoints) if sn.point_ok[a]]
    src = AffineSubset.of(sn, random_points(rng, ok_n))
    dst = AffineSubset.of(sm, random_points(rng, range(sm.npoints)))
    ds = hom_set_dq(src, dst)
    assert [(d.witness, d.images) for d in ds] == point_arrows(src, dst, witnesses)
    assert python_ints(ds, "images")

    x, y = random_relation(rng, sn), random_relation(rng, sm)
    rs = hom_set_rq(x, y)
    assert [(r.witness, r.class_map) for r in rs] == relation_arrows(x, y, witnesses)
    assert python_ints(rs, "class_map")

    # single arrows are the one-column sweep
    if all(sm.point_ok[a] for a in dst.points):
        cx, cy = cq_object(src), cq_object(dst)
        for d in ds:
            c = cq_arrow(d)
            assert [(c.witness, c.class_map)] == relation_arrows(cx, cy, [d.witness])
    if sn.ok and sm.ok:
        vx, vy = vq_object(x), vq_object(y)
        for r in rs:
            d = vq_arrow(r)
            assert [(d.witness, d.images)] == point_arrows(vx, vy, [r.witness])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generators(), st.randoms(use_true_random=False))
@example((bool2(), 1), random.Random(0))  # a partition that one pass splits
@example((FiniteAlgebra.make(3, [("f0", 1, (1, 2, 2)),  # one that two passes split
                                 ("f1", 2, (0, 0, 2, 0, 1, 1, 0, 1, 2))], name="G"), 1),
         random.Random(0))
def test_stable_classes_match_coarsest_congruence_oracle_on_random_algebras(case, rng):
    g, n = case
    space = ground_space(g, g, n)
    x = random_relation(rng, space)
    congruences = [c.labels for c in all_congruences(space.free.as_algebra())]
    want = oracles.stable_classes(congruences, space.free.size, x.pairs)
    assert oracles.normalize(adjunction._stable_classes(x).tolist()) == want


def test_z4_adjunction_enumerates_quotient_classes():
    # z4 over z4, n = 2, S = {0, 5}, y the 8-block congruence of F_z4(3)
    # with the least labels: each naturality hom set hom(y, y1) takes the
    # 8**3 tuples of least class members, not all 64**3 witness tuples,
    # whose homomorphism table alone would take 134 MB
    s2, s3 = ground_space(z4(), z4(), 2), ground_space(z4(), z4(), 3)
    eight = [c for c in all_congruences(s3.free.as_algebra()) if c.num_blocks == 8]
    subset = AffineSubset.of(s2, [0, 5])
    y = Relation.from_partition(s3, min(eight, key=lambda c: c.labels))
    tracemalloc.start()
    try:
        report = verify_adjunction(subset, y)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert astuple(report) == (8, 8, True, True)
    assert peak < 10


# --- functors ---------------------------------------------------------------


def test_cq_functor_objects():
    sp = ground_space(bool2(), bool2(), 1)
    s = AffineSubset.of(sp, [1])
    x = cq_object(s)
    assert rel_closure(x) == c_operator(s)


def test_every_library_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(affinekit.__path__):
        module = importlib.import_module(f"affinekit.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_info"):
                caches[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_info().maxsize
    assert {"affinekit.free._free_cached", "affinekit.free._ground_cached",
            "affinekit.galois.rel_closure", "affinekit.adjunction._source_side",
            "affinekit.adjunction._target_side"} <= set(caches)
    assert all(maxsize is not None for maxsize in caches.values()), caches


def test_rel_closure_cache_is_bounded():
    sp = ground_space(z4(), z4(), 2)
    size = sp.free.size
    bound = rel_closure.cache_info().maxsize
    assert bound is not None and size * size > bound
    for a in range(size):
        for b in range(size):
            rel = Relation.of(sp, [(a, b)])
            assert rel_closure(rel) == Partition.from_pairs(size, rel.pairs)
            assert rel_closure.cache_info().currsize <= bound


def test_functoriality_sampled():
    sp = ground_space(bool2(), bool2(), 1)
    subsets = [AffineSubset.of(sp, pts) for pts in [(), (0,), (1,), (0, 1)]]
    rng = random.Random(13)
    for _ in range(30):
        s0, s1, s2 = (rng.choice(subsets) for _ in range(3))
        fs, gs = hom_set_dq(s0, s1), hom_set_dq(s1, s2)
        if not (fs and gs):
            continue
        f, g = rng.choice(fs), rng.choice(gs)
        assert cq_arrow(f.then(g)) == cq_arrow(f).then(cq_arrow(g))
    rels = [
        Relation.identity(sp),
        cq_object(subsets[2]),
        Relation.from_partition(sp, Partition.total(sp.free.size)),
    ]
    for _ in range(30):
        x, y, z = (rng.choice(rels) for _ in range(3))
        fs, gs = hom_set_rq(x, y), hom_set_rq(y, z)
        if not (fs and gs):
            continue
        f, g = rng.choice(fs), rng.choice(gs)
        assert vq_arrow(f.then(g)) == vq_arrow(f).then(vq_arrow(g))


def test_vq_objects_and_arrows():
    sp = ground_space(z4(), z2(), 1)
    x = cq_object(AffineSubset.of(sp, [1]))
    assert vq_object(Relation.identity(sp)).points == (0, 1)
    for a in hom_set_rq(x, Relation.identity(sp)):
        d = vq_arrow(a)
        assert d.source == vq_object(x)
        assert d.target == vq_object(Relation.identity(sp))


# --- the adjunction ---------------------------------------------------------


def test_adjunction_pinned_singleton():
    sp = ground_space(bool2(), bool2(), 1)
    rep = verify_adjunction(AffineSubset.of(sp, [1]), Relation.identity(sp))
    assert (rep.lhs, rep.rhs) == (2, 2)
    assert rep.bijection_ok and rep.natural_ok


def test_adjunction_pinned_empty():
    sp = ground_space(bool2(), bool2(), 1)
    rep = verify_adjunction(AffineSubset.empty(sp), Relation.identity(sp))
    assert (rep.lhs, rep.rhs) == (1, 1)
    assert rep.bijection_ok and rep.natural_ok


def test_adjunction_sweep():
    cases = []
    for alg, ground in [(bool2(), bool2()), (z4(), z2()), (z2(), z2())]:
        sp = ground_space(alg, ground, 1)
        for pts in [(), (0,), (1,), tuple(range(sp.npoints))]:
            s = AffineSubset.of(sp, pts)
            for y in [
                Relation.identity(sp),
                Relation.from_partition(sp, Partition.total(sp.free.size)),
                cq_object(AffineSubset.of(sp, [0])),
            ]:
                cases.append((s, y))
    for s, y in cases:
        rep = verify_adjunction(s, y)
        assert rep.lhs == rep.rhs
        assert rep.bijection_ok and rep.natural_ok


def test_adjunction_two_variable():
    sp = ground_space(bool2(), bool2(), 2)
    s = AffineSubset.of(sp, [0, 3])
    rep = verify_adjunction(s, cq_object(AffineSubset.of(sp, [1, 2])))
    assert rep.lhs == rep.rhs
    assert rep.bijection_ok and rep.natural_ok


def outcome(check, *args):
    """A report as a tuple, or the type and message of what was raised."""
    try:
        report = check(*args)
    except AffineError as exc:
        return type(exc), str(exc)
    return report if isinstance(report, tuple) else astuple(report)


def assert_matches_squares_oracle(subset, y, budget=DEFAULT_BUDGET):
    for seed in (1, 2026):
        want = outcome(oracles.adjunction_squares, subset, y, budget, seed)
        assert outcome(verify_adjunction, subset, y, budget, seed) == want


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(arrow_cases(), st.randoms(use_true_random=False), st.sampled_from([DEFAULT_BUDGET, 16]))
def test_naturality_sweep_matches_per_square_oracle_on_random_algebras(case, rng, budget):
    g, ground, n, m = case
    sn, sm = ground_space(g, ground, n), ground_space(g, ground, m)
    ok_n = [a for a in range(sn.npoints) if sn.point_ok[a]]
    subset = AffineSubset.of(sn, random_points(rng, ok_n))
    assert_matches_squares_oracle(subset, random_relation(rng, sm), budget)


def _full_bool2_square():
    # 256 maps full -> full times 16 arrows alpha: 4096 source cases, 64 sampled
    sp2, sp1 = ground_space(bool2(), bool2(), 2), ground_space(bool2(), bool2(), 1)
    return AffineSubset.full(sp2), Relation.identity(sp1)


def _one_space(gen, n, m, points, rel):
    sn, sm = ground_space(gen(), gen(), n), ground_space(gen(), gen(), m)
    return AffineSubset.of(sn, points), rel(sm)


def _total(space):
    return Relation.from_partition(space, Partition.total(space.free.size))


SQUARE_CASES = {
    "sampled": _full_bool2_square,
    "empty S": lambda: _one_space(
        bool2, 1, 1, [], lambda sp: cq_object(AffineSubset.of(sp, [0]))),
    "empty lhs": lambda: _one_space(bool2, 1, 1, [0, 1], _total),
    "m = 0": lambda: _one_space(bool2, 1, 0, [1], Relation.identity),
    "empty F(n)": lambda: _one_space(semilat2, 0, 1, [0], Relation.identity),
    "empty F(m)": lambda: _one_space(semilat2, 1, 0, [0, 1], Relation.identity),
}


@pytest.mark.parametrize("name", sorted(SQUARE_CASES))
def test_naturality_sweep_matches_per_square_oracle_pinned(name):
    subset, y = SQUARE_CASES[name]()
    rep = verify_adjunction(subset, y)
    assert rep.lhs == rep.rhs and rep.bijection_ok and rep.natural_ok
    if name == "sampled":
        assert len(hom_set_dq(subset, subset)) * rep.lhs == 4096
    if name == "empty lhs":
        assert rep.lhs == 0
    assert_matches_squares_oracle(subset, y)


def wrong_composites(monkeypatch, corrupt, size):
    """Patch the one composite gather of verify_adjunction: a composite of
    elements of F_bool2(corrupt) comes out shifted by one, modulo size, the
    size of the free algebra the composites land in."""
    inner = ground_space(bool2(), bool2(), corrupt).free.size
    real = adjunction._compose

    def wrong(h, witnesses):
        out = real(h, witnesses)
        return (out + 1) % size if len(h) == inner else out

    monkeypatch.setattr(adjunction, "_compose", wrong)


@pytest.mark.parametrize("side, corrupt", [("source", 2), ("target", 1)])
def test_naturality_sweep_sees_a_wrong_composite(monkeypatch, side, corrupt):
    # each square compares clone composition against graph composition, so
    # a wrong composite shows on either side alone; the source side composes
    # in F(2) and the target side in F(1), and only one of them is corrupted
    sp2, sp1 = ground_space(bool2(), bool2(), 2), ground_space(bool2(), bool2(), 1)
    s, y = AffineSubset.of(sp2, [1, 2]), Relation.identity(sp1)
    assert verify_adjunction(s, y).natural_ok
    wrong_composites(monkeypatch, corrupt, sp2.free.size)
    rep = verify_adjunction(s, y)  # V(y) is every point: no image can leave it
    assert rep.bijection_ok and not rep.natural_ok


@pytest.mark.parametrize("side, corrupt", [("source", 2), ("target", 1)])
def test_wrong_composite_leaving_v_of_y_is_a_bijection_failure(monkeypatch, side, corrupt):
    sp2, sp1 = ground_space(bool2(), bool2(), 2), ground_space(bool2(), bool2(), 1)
    s, y = AffineSubset.of(sp2, [1, 2]), cq_object(AffineSubset.of(sp1, [1]))
    assert verify_adjunction(s, y).natural_ok
    wrong_composites(monkeypatch, corrupt, sp2.free.size)
    with pytest.raises(BijectionFailure, match=r"correspondence image left V\(y\)"):
        verify_adjunction(s, y)


def test_naturality_sweep_composes_the_oracles_sampled_cases(monkeypatch):
    # which (arrow, alpha) pairs get composed, as (arity of the inner free
    # algebra, outer generator images, inner witness): verify_adjunction
    # reads them off a homomorphism table, whose rows at the generators are
    # the outer images, and the oracle composes each through substitute
    subset, y = _full_bool2_square()
    frees = {sp.free.size: sp.free for sp in (subset.space, y.space)}
    gather, substitute = adjunction._compose, adjunction.substitute

    for seed in (1, 2026):
        got, want = set(), set()

        def spy_gather(h, inner):
            free = frees[len(h)]
            outer = h[list(free.var_positions)].T.tolist()
            got.update((free.arity, tuple(o), tuple(c)) for o, c in zip(outer, inner.T.tolist()))
            return gather(h, inner)

        def spy_substitute(src, p, images, dst):
            columns = np.asarray(p).reshape(len(p), -1).T.tolist()
            want.update((src.arity, tuple(images), tuple(c)) for c in columns)
            return substitute(src, p, images, dst)

        monkeypatch.setattr(adjunction, "_compose", spy_gather)
        monkeypatch.setattr(adjunction, "substitute", spy_substitute)
        verify_adjunction(subset, y, DEFAULT_BUDGET, seed)
        oracles.adjunction_squares(subset, y, DEFAULT_BUDGET, seed)
        assert got == want
        assert 64 < len(got) < 4096


def sweep_cases():
    """(S, y): every congruence y of F_bool2(m) and of F_z4(m) over
    z2-in-z4, m <= 2, against the 4 subsets of the line."""
    for gen, ground in [("bool2", "bool2"), ("z4", "z2-in-z4")]:
        g, a = builtin(gen), builtin(ground)
        line = ground_space(g, a, 1)
        subsets = [AffineSubset.of(line, pts) for pts in [(), (0,), (1,), (0, 1)]]
        for m in range(3):
            space = ground_space(g, a, m)
            for theta in all_congruences(space.free.as_algebra()):
                y = Relation.from_partition(space, theta)
                yield from ((s, y) for s in subsets)


def sweep_hom_sets(s, y):
    """The hom sets of verify_adjunction(s, y), as (class map or images,
    witness): hom(C^q S, y), the target companions hom(y, y1), hom(S, V(y))
    and the source companions hom(S0, S)."""
    space = s.space
    rq = [hom_set_rq(cq_object(s), y)]
    rq += [hom_set_rq(y, y1) for y1 in (y, Relation.identity(y.space), _total(y.space))]
    dq = [hom_set_dq(s, vq_object(y))]
    dq += [hom_set_dq(s0, s) for s0 in (AffineSubset.empty(space), AffineSubset.full(space))]
    return [[[a.class_map, a.witness] for a in homs] for homs in rq] + [
        [[a.images, a.witness] for a in homs] for homs in dq]


# sha256 of the canonical JSON of the reports at seeds 1 and 2026, and of the
# hom sets, over sweep_cases(); recorded before the naturality composites
# were read off the hom-set sweep's own tables
SWEEP_SHA256 = {
    "reports": "db24d499a52e14a141abb36745b03e41932c0c791554804236a889971bdfe327",
    "arrows": "3811911b7e4cdf5a8c1cfc10be6c7cae15202f09284be011850c8c5b2aee1b8c",
}


def sweep_digests(cases):
    reports = [astuple(verify_adjunction(s, y, seed=seed)) for seed in (1, 2026) for s, y in cases]
    arrows = list(starmap(sweep_hom_sets, cases))
    return {name: hashlib.sha256(json.dumps(obj).encode()).hexdigest()
            for name, obj in [("reports", reports), ("arrows", arrows)]}


def test_adjunction_sweep_matches_frozen_digest():
    # cold, warm, and again after the caches are cleared
    cases = list(sweep_cases())
    assert len(cases) == 164
    caches = adjunction._source_side, adjunction._target_side
    assert sweep_digests(cases) == SWEEP_SHA256
    assert all(cached.cache_info().currsize for cached in caches)
    assert sweep_digests(cases) == SWEEP_SHA256
    for cached in caches:
        cached.cache_clear()
    assert sweep_digests(cases) == SWEEP_SHA256


def arrays(entry):
    """The numpy arrays inside a cache entry of nested tuples."""
    if isinstance(entry, np.ndarray):
        return [entry]
    return [a for part in entry for a in arrays(part)] if isinstance(entry, tuple) else []


def test_adjunction_cache_entries_hold_read_only_first_witnesses():
    # an entry holds the first witness column of each companion arrow, the
    # witnesses of the public hom set, and the graphs as positions in S
    held = []
    for s, y in sweep_cases():
        x, sources = adjunction._source_side(s, DEFAULT_BUDGET)
        assert x == c_operator(s)
        for s0, x0, columns, positions in sources:
            homs = hom_set_dq(s0, s)
            assert x0 == c_operator(s0)
            assert columns.T.tolist() == [list(a.witness) for a in homs]
            assert positions.tolist() == [[s.points.index(b) for b in a.images] for a in homs]
        vy, targets = adjunction._target_side(y, DEFAULT_BUDGET)
        assert vy == vq_object(y) == targets[0][0]
        companions = dict.fromkeys([y, Relation.identity(y.space), _total(y.space)])
        assert len(targets) == len(companions)
        for (vy1, columns), y1 in zip(targets, companions):
            assert vy1 == vq_object(y1)
            assert columns.T.tolist() == [list(a.witness) for a in hom_set_rq(y, y1)]
        held += arrays((sources, targets))
    assert held
    for a in held:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def budget_case(n, m):
    sn, sm = ground_space(bool2(), bool2(), n), ground_space(bool2(), bool2(), m)
    return AffineSubset.of(sn, [1]), cq_object(AffineSubset.of(sm, [0]))


@pytest.mark.parametrize("n, m, count", [(1, 1, 4), (2, 1, 256), (1, 2, 256)])
def test_budget_edge_holds_on_a_warm_cache(n, m, count):
    # the binding test: at n = m all three counts are |F(n)|^n and the lhs
    # sweep's test comes first; (2, 1) binds on the source companions'
    # |F(2)|^2 tuples and (1, 2) on the target companions' |F(2)|^2
    s, y = budget_case(n, m)
    warm = verify_adjunction(s, y, 10 * count)
    assert verify_adjunction(s, y, count) == warm
    message = f"^{count} witness tuples exceed budget {count - 1}$"
    for _ in range(2):  # an exception is not cached
        with pytest.raises(BudgetExceeded, match=message):
            verify_adjunction(s, y, count - 1)
    assert verify_adjunction(s, y, count) == warm


@pytest.mark.parametrize("n, m", [(2, 1), (1, 2)])
def test_lhs_budget_test_comes_first_on_a_warm_cache(n, m):
    # the lhs sweep's 16 tuples are tested before the 256 of the source
    # companions (2, 1) or of the target companions (1, 2)
    s, y = budget_case(n, m)
    verify_adjunction(s, y)
    with pytest.raises(BudgetExceeded, match="^16 witness tuples exceed budget 15$"):
        verify_adjunction(s, y, 15)


# --- representability -------------------------------------------------------


def test_representability_pinned():
    sp = ground_space(z4(), z2(), 1)
    ident = representability_check(Relation.identity(sp))
    assert (ident.hom_count, ident.quotient_size, ident.match) == (4, 4, True)
    total = representability_check(
        Relation.from_partition(sp, Partition.total(sp.free.size))
    )
    assert (total.hom_count, total.quotient_size, total.match) == (1, 1, True)
    ker = representability_check(cq_object(AffineSubset.of(sp, [1])))
    assert (ker.hom_count, ker.quotient_size, ker.match) == (2, 2, True)


def test_representability_raw_stable_relation():
    # elements of F_z4(1) are [x, 2x, 3x, 0]; relating 0 with 2x is
    # translation-stable without being a congruence-derived relation
    sp = ground_space(z4(), z2(), 1)
    rel = Relation.of(sp, [(3, 1)])
    assert check_stability(rel)
    rep = representability_check(rel)
    assert (rep.hom_count, rep.quotient_size, rep.match) == (3, 3, True)


def test_representability_unstable_raises():
    sp = ground_space(z4(), z2(), 1)
    rel = Relation.of(sp, [(0, 1)])  # x ~ 2x breaks under doubling
    assert not check_stability(rel)
    with pytest.raises(NotStable):
        representability_check(rel)
    # forcing the flag skips the check, and the mismatch shows why the
    # stability hypothesis is needed
    rep = representability_check(rel, stable=True)
    assert (rep.hom_count, rep.quotient_size, rep.match) == (4, 3, False)


def test_congruence_relations_always_stable():
    for alg, ground in [(bool2(), bool2()), (z4(), z2())]:
        sp = ground_space(alg, ground, 1)
        for th in all_congruences(sp.free.as_algebra()):
            assert check_stability(Relation.from_partition(sp, th))
