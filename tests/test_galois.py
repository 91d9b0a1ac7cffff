import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from affinekit import core, galois
from affinekit.cli import main
from affinekit.core import (
    DEFAULT_BUDGET,
    Homomorphism,
    Partition,
    _least_members,
    _partitions,
    all_congruences,
    decode_point,
    is_homomorphism,
    is_subdirect_embedding,
)
from affinekit.errors import (
    AssertionFailure,
    BudgetExceeded,
    EquivalenceViolation,
    NotInjective,
    ShapeMismatch,
    ValidationError,
)
from affinekit.free import free_algebra, ground_space
from affinekit.galois import (
    AffineSubset,
    PresentedAlgebra,
    Relation,
    _meet_irreducibles,
    _v_masks,
    birkhoff_transform,
    c_operator,
    gelfand_evaluation,
    nullstellensatz_check,
    point_kernel,
    radical,
    radical_of_partition,
    sgk_inverse,
    v_of_partition,
    v_operator,
    zariski_closure,
    zariski_report,
)

from affinekit.instances import _lattice, builtin, list_builtins

import oracles
from test_clone import ground_cases
from test_core import bool2, semilat2, z4
from test_free import distlat2, impl2, z2


BUILTIN_CASES = [  # (generator, arity, ground)
    (bool2(), 1, bool2()),
    (bool2(), 2, bool2()),
    (z4(), 1, z4()),
    (z4(), 1, z2()),
    (semilat2(), 2, semilat2()),
    (distlat2(), 2, distlat2()),
    (z2(), 2, z2()),
]


def spaces():
    return [ground_space(g, ground, n) for g, n, ground in BUILTIN_CASES]


def on_builtins_and_random_algebras(test):
    """Run a property of (ground case, rng) on every builtin space, then on
    drawn ground cases that lie in the variety."""
    for g, n, ground in reversed(BUILTIN_CASES):
        test = example((g, n, ground, True), random.Random(7))(test)
    settle = settings(max_examples=60, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])
    return settle(given(ground_cases(), st.randoms(use_true_random=False))(test))


def ok_space(case):
    g, n, ground, _ = case
    gs = ground_space(g, ground, n)
    assume(gs.ok)
    return gs


def test_c_operator_bool2():
    gs = ground_space(bool2(), bool2(), 1)
    # element order is [x, not x, 0, 1]
    assert c_operator(AffineSubset.of(gs, [1])).blocks() == ((0, 3), (1, 2))
    assert c_operator(AffineSubset.of(gs, [0])).blocks() == ((0, 2), (1, 3))
    assert c_operator(AffineSubset.of(gs, [0, 1])) == Partition.identity(4)
    assert c_operator(AffineSubset.empty(gs)) == Partition.total(4)


def test_c_operator_semilat2():
    gs = ground_space(semilat2(), semilat2(), 2)
    # element order is [x0, x1, x0^x1]; the point (1,0) has code 2
    theta = c_operator(AffineSubset.of(gs, [2]))
    assert theta.blocks() == ((0,), (1, 2))
    v = v_of_partition(gs, theta)
    assert v.points == (0, 2, 3)
    assert zariski_closure(AffineSubset.of(gs, [2])).points == (0, 2, 3)


def test_v_operator_edges():
    gs = ground_space(bool2(), bool2(), 1)
    assert v_operator(Relation.identity(gs)).points == (0, 1)
    assert v_operator(Relation.of(gs, [(0, 3)])).points == (1,)  # x == 1
    assert v_operator(Relation.of(gs, [(0, 1)])).points == ()  # x == not x


@on_builtins_and_random_algebras
def test_galois_laws_random(case, rng):
    gs = ok_space(case)
    m = gs.free.size
    for _ in range(12):
        pts = [a for a in range(gs.npoints) if rng.random() < 0.4]
        s = AffineSubset.of(gs, pts)
        theta = c_operator(s)
        closure = zariski_closure(s)
        # VC is extensive and idempotent
        assert set(s.points) <= set(closure.points)
        assert zariski_closure(closure) == closure
        # C(V(C(S))) == C(S)
        assert c_operator(closure) == theta
        if m:
            pairs = [
                (rng.randrange(m), rng.randrange(m)) for _ in range(3)
            ]
            r = Relation.of(gs, pairs)
            v = v_operator(r)
            cv = c_operator(v)
            # CV is extensive and idempotent
            for p, q in r.pairs:
                assert cv.together(p, q)
            assert c_operator(v_of_partition(gs, cv)) == cv
            # V(C(V(R))) == V(R)
            assert v_of_partition(gs, cv).points == v.points
            # antitone: more pairs give fewer points
            more = Relation.of(gs, pairs + [(rng.randrange(m), rng.randrange(m))])
            assert set(v_operator(more).points) <= set(v.points)
        # antitone: bigger subsets give finer kernels
        pts2 = sorted(set(pts) | {a for a in range(gs.npoints) if rng.random() < 0.3})
        assert c_operator(AffineSubset.of(gs, pts2)).refines(theta)


def test_c_v_match_brute_force():
    rng = random.Random(21)
    # semilat2 has no constants, so at arity 0 its free algebra is empty
    for gs in spaces() + [ground_space(semilat2(), semilat2(), 0)]:
        m = gs.free.size
        rows = [tuple(int(v) for v in gs.ev[p]) for p in range(m)]
        for pts in ([], range(gs.npoints)):
            got = c_operator(AffineSubset.of(gs, pts))
            assert got.labels == oracles.brute_c(rows, list(pts))
        if m == 0:
            continue
        for _ in range(8):
            pts = [a for a in range(gs.npoints) if rng.random() < 0.5]
            got = c_operator(AffineSubset.of(gs, pts))
            assert got.labels == oracles.brute_c(rows, sorted(set(pts)))
            pairs = sorted({(rng.randrange(m), rng.randrange(m)) for _ in range(3)})
            got_v = v_operator(Relation.of(gs, pairs))
            assert got_v.points == oracles.brute_v(rows, gs.npoints, pairs)


def test_radical_z4_over_z2():
    gs = ground_space(z4(), z2(), 1)
    rad = radical(Relation.identity(gs))
    assert rad.blocks() == ((0, 2), (1, 3))  # x ~ 3x and 2x ~ 0
    assert radical_of_partition(gs, Partition.identity(4)) == rad


def test_radical_agrees_with_closure_route():
    # C(V(.)) must equal the meet of the point kernels over V(.) everywhere
    rng = random.Random(3)
    for gs in spaces():
        m = gs.free.size
        if m == 0:
            continue
        for _ in range(10):
            pairs = sorted({(rng.randrange(m), rng.randrange(m)) for _ in range(3)})
            r = Relation.of(gs, pairs)
            assert radical(r) == oracles.radical_meet(gs, galois.rel_closure(r))
        falg = gs.free.as_algebra()
        for theta in all_congruences(falg):
            assert radical_of_partition(gs, theta) == oracles.radical_meet(gs, theta)


PAIR_LISTS = st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4)), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.one_of(PAIR_LISTS, PAIR_LISTS.map(sorted)))
def test_relation_validation_names_the_first_bad_pair(pairs):
    # the first bad pair decides, its range before its order
    gs = ground_space(bool2(), bool2(), 1)  # 4 elements
    want = oracles.relation_fault(gs.free.size, pairs)
    if want is None:
        assert Relation(gs, tuple(pairs)).pairs == tuple(pairs)
    else:
        with pytest.raises(ValidationError, match=f"^{want}$"):
            Relation(gs, tuple(pairs))


def test_point_codes_out_of_range_raise_validation_error():
    # -1 must not index point_ok and ev from the end, as the point (1,)
    gs = ground_space(bool2(), bool2(), 1)
    calls = [lambda: gelfand_evaluation(gs, (-1,)), lambda: gelfand_evaluation(gs, (5,)),
             lambda: point_kernel(gs, 2), lambda: point_kernel(gs, -1)]
    for call in calls:
        with pytest.raises(ValidationError, match=r"^point codes must lie in 0\.\.1$"):
            call()


def test_gelfand_evaluation():
    gs = ground_space(z4(), z2(), 1)
    gamma = gelfand_evaluation(gs, (1,))
    assert gamma.source.size == 2
    assert gamma.mapping == (1, 0)
    assert is_homomorphism(gamma)

    gs2 = ground_space(bool2(), bool2(), 2)
    gamma = gelfand_evaluation(gs2, (1, 0))
    assert gamma.source.size == 2
    assert gamma.mapping == (1, 0)
    with pytest.raises(ValidationError):
        gelfand_evaluation(gs, (1, 0))


def test_sgk_round_trip():
    for gs in spaces():
        if gs.free.size == 0:
            continue
        for code in range(gs.npoints):
            point = decode_point(code, gs.ground.size, gs.arity)
            gamma = gelfand_evaluation(gs, point)
            pres = PresentedAlgebra(gs, point_kernel(gs, code))
            assert sgk_inverse(pres, gamma) == point


def test_sgk_error_paths():
    gs = ground_space(z4(), z2(), 1)
    theta = point_kernel(gs, 1)  # {x,3x | 2x,0}
    pres = PresentedAlgebra(gs, theta)
    gamma = gelfand_evaluation(gs, (1,))
    zero_map = Homomorphism(gamma.source, gs.ground, (0, 0))
    with pytest.raises(NotInjective):
        sgk_inverse(pres, zero_map)
    with pytest.raises(ShapeMismatch):
        sgk_inverse(pres, Homomorphism(gs.ground, gs.ground, (0, 1)))
    flipped = Homomorphism(gamma.source, gs.ground, (0, 1))
    # injective but not a homomorphism here (wrong constant)
    with pytest.raises(ValidationError):
        sgk_inverse(pres, flipped)


def test_birkhoff_z4_over_z2():
    gs = ground_space(z4(), z2(), 1)
    rep = birkhoff_transform(PresentedAlgebra(gs, Partition.identity(4)))
    assert rep.points == (0, 1)
    assert tuple(f.size for f in rep.factors) == (1, 2)
    assert rep.sigma.mapping == (0, 1, 0, 1)
    sd = is_subdirect_embedding(rep.sigma, rep.factors)
    assert not sd.injective
    assert sd.onto_each_factor == (True, True)
    assert rep.iota.mapping == (1, 0)
    assert len(set(rep.iota.mapping)) == len(rep.iota.mapping)


def test_birkhoff_bool2():
    gs = ground_space(bool2(), bool2(), 1)
    rep = birkhoff_transform(PresentedAlgebra(gs, Partition.identity(4)))
    assert rep.sigma.mapping == (0, 3, 1, 2)
    assert rep.iota.mapping == (1, 0, 3, 2)
    sd = is_subdirect_embedding(rep.sigma, rep.factors)
    assert sd.injective and sd.onto_each_factor == (True, True)


def test_birkhoff_composite_is_restricted_evaluation():
    # iota(sigma([p])) must list p's values over V(theta)
    for gs in spaces():
        falg = gs.free.as_algebra()
        for theta in all_congruences(falg):
            rep = birkhoff_transform(PresentedAlgebra(gs, theta))
            ka = gs.ground.size
            for p in range(falg.size):
                cls = theta.labels[p]
                val = rep.iota.mapping[rep.sigma.mapping[cls]]
                coords = decode_point(val, ka, len(rep.points))
                assert coords == tuple(int(gs.ev[p, a]) for a in rep.points)


def test_nullstellensatz_z4_over_z2():
    gs = ground_space(z4(), z2(), 1)
    rep = nullstellensatz_check(PresentedAlgebra(gs, Partition.identity(4)))
    assert (rep.fixed, rep.radical, rep.subdirect) == (False, False, False)
    good = Partition.from_pairs(4, [(0, 2), (1, 3)])
    rep = nullstellensatz_check(PresentedAlgebra(gs, good))
    assert (rep.fixed, rep.radical, rep.subdirect) == (True, True, True)
    rep = nullstellensatz_check(PresentedAlgebra(gs, Partition.total(4)))
    assert rep.holds


@on_builtins_and_random_algebras
def test_nullstellensatz_equivalence_everywhere(case, rng):
    # the three tests must agree on every congruence of every instance
    # (32 drawn ones on a larger lattice; no builtin space has more);
    # nullstellensatz_check raises EquivalenceViolation otherwise
    gs = ok_space(case)
    cons = all_congruences(gs.free.as_algebra())
    for theta in rng.sample(cons, min(len(cons), 32)):
        rep = nullstellensatz_check(PresentedAlgebra(gs, theta))
        assert rep.fixed == rep.radical == rep.subdirect


def test_nullstellensatz_check_takes_one_v_and_one_kernel_per_point():
    # the three routes share one V(theta) and one point kernel per point of it
    for gs in spaces():
        for theta in all_congruences(gs.free.as_algebra()):
            with mock.patch.object(galois, "v_of_partition", wraps=galois.v_of_partition) as v, \
                    mock.patch.object(galois, "point_kernel", wraps=galois.point_kernel) as ker:
                nullstellensatz_check(PresentedAlgebra(gs, theta))
            assert v.call_count == 1
            assert ker.call_count == len(galois.v_of_partition(gs, theta).points)


FORCED_DISAGREEMENTS = {  # one route made wrong at a time
    "fixed": lambda: mock.patch.object(
        galois, "c_operator", lambda s: Partition.identity(s.space.free.size)),
    "radical": lambda: mock.patch.object(
        Partition, "meet", lambda self, other: Partition.identity(self.size)),
    "subdirect": lambda: mock.patch.object(galois, "_first_rows", lambda rows: rows[:0]),
}


@pytest.mark.parametrize("route", sorted(FORCED_DISAGREEMENTS))
def test_nullstellensatz_check_raises_when_one_route_disagrees(capsys, route):
    gs = ground_space(z4(), z2(), 1)
    good = Partition.from_pairs(4, [(0, 2), (1, 3)])  # fixed: x ~ 3x, 2x ~ 0
    with FORCED_DISAGREEMENTS[route]():
        with pytest.raises(EquivalenceViolation, match=f"{route}=False"):
            nullstellensatz_check(PresentedAlgebra(gs, good))
        code = main(["null", "--builtin", "z4", "--ground", "z2", "--pairs", "0,2"])
    assert code == 4
    assert capsys.readouterr().err.startswith("internal check failed: ")


def test_nullstellensatz_empty_free_algebra():
    gs = ground_space(semilat2(), semilat2(), 0)
    assert gs.free.size == 0
    rep = nullstellensatz_check(PresentedAlgebra(gs, Partition(0, ())))
    assert rep.holds


def test_zariski_report_bool2():
    gs = ground_space(bool2(), bool2(), 2)
    rep = zariski_report(gs)
    assert len(rep.closed_sets) == 16
    assert rep.is_topology and rep.union_closed and rep.matches_discrete


def test_zariski_report_semilat2():
    gs = ground_space(semilat2(), semilat2(), 1)
    rep = zariski_report(gs)
    assert rep.closed_sets == ((0, 1),)
    assert not rep.is_topology
    assert rep.union_closed
    assert not rep.matches_discrete


def test_zariski_report_z4():
    gs = ground_space(z4(), z4(), 1)
    rep = zariski_report(gs)
    assert rep.closed_sets == ((0,), (0, 2), (0, 1, 2, 3))
    assert not rep.is_topology  # the empty set is not closed
    assert rep.union_closed
    assert not rep.matches_discrete


def test_zariski_report_matches_congruence_route():
    # closed sets == {V(theta)} over the whole congruence lattice, at every size
    for gs in spaces() + [ground_space(z4(), z4(), 3)]:
        rep = zariski_report(gs)
        falg = gs.free.as_algebra()
        from_lattice = {v_of_partition(gs, t).points for t in all_congruences(falg)}
        assert set(rep.closed_sets) == from_lattice


# semilat2 at arity 1 has one element, so no agreement masks: only the whole space
@pytest.mark.parametrize("alg, n, count", [(semilat2, 4, 2271), (z4, 3, 129), (semilat2, 1, 1)])
def test_zariski_report_budget_bounds_closed_sets(alg, n, count):
    gs = ground_space(alg(), alg(), n)
    assert len(zariski_report(gs, budget=count).closed_sets) == count
    with pytest.raises(BudgetExceeded, match=f"^closed sets exceed budget {count - 1}$"):
        zariski_report(gs, budget=count - 1)


def brute_closed_sets(gs):
    """Every subset S with V(C(S)) == S, by the pairwise oracles."""
    rows = gs.ev.tolist()
    closed = set()
    for code in range(2 ** gs.npoints):
        s = tuple(a for a in range(gs.npoints) if code >> a & 1)
        labels = oracles.brute_c(rows, s)
        glued = [(p, q) for p in range(len(rows)) for q in range(p) if labels[p] == labels[q]]
        if oracles.brute_v(rows, gs.npoints, glued) == s:
            closed.add(s)
    return closed


# most draws have one point, and an example takes milliseconds
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ground_cases())
def test_zariski_report_matches_subset_scan_on_random_algebras(case):
    g, n, ground, _ = case
    gs = ground_space(g, ground, n)
    assume(gs.ok and gs.npoints <= 8)
    rep = zariski_report(gs)
    closed = set(rep.closed_sets)
    assert closed == brute_closed_sets(gs)
    assert list(rep.closed_sets) == sorted(closed, key=lambda s: sum(1 << a for a in s))
    full = tuple(range(gs.npoints))
    union_closed = all(
        tuple(sorted(set(x) | set(y))) in closed for x in closed for y in closed
    )
    assert rep.union_closed == union_closed
    assert rep.is_topology == (union_closed and () in closed and full in closed)
    assert rep.matches_discrete == (len(closed) == 2 ** gs.npoints)


def agreement_masks(gs):
    """The distinct agreement masks V({(p, q)}) of gs, as bool rows."""
    rows = gs.ev.tolist()
    masks = {tuple(a == b for a, b in zip(rows[p], rows[q]))
             for p in range(len(rows)) for q in range(p)}
    return np.array(sorted(masks), dtype=bool).reshape(len(masks), gs.npoints)


def point_sets(bits):
    return [tuple(np.flatnonzero(row).tolist()) for row in bits]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ground_cases())
@example((semilat2(), 0, semilat2(), True))  # an empty free algebra: no masks
@example((z4(), 2, z2(), True))  # z4 over z2-in-z4: 0 and x0 + x0 give the full mask
@example((semilat2(), 4, semilat2(), True))  # 105 masks: two chunks of rows
def test_meet_irreducible_masks_match_oracle(case):
    g, n, ground, _ = case
    gs = ground_space(g, ground, n)
    bits = agreement_masks(gs)
    got = point_sets(_meet_irreducibles(bits))
    assert len(set(got)) == len(got)
    assert set(got) == oracles.meet_irreducible_sets(point_sets(bits), gs.npoints)


def test_meet_irreducible_masks_match_join_irreducible_congruences():
    # where C and V are mutually inverse bijections, the two lattices are
    # dual, so meet-irreducible masks and join-irreducible congruences
    # are equinumerous
    counts = {}
    for name in list_builtins():
        for n in range(4):
            gs = ground_space(builtin(name), builtin(name), n)
            cons = all_congruences(gs.free.as_algebra())
            if len(cons) != len(zariski_report(gs).closed_sets):
                continue
            joins = oracles.join_irreducibles(
                np.array([_least_members(c.labels) for c in cons]))
            counts[name, n] = len(_meet_irreducibles(agreement_masks(gs)))
            assert counts[name, n] == len(joins)
    assert counts["bool2", 3] == 8
    assert counts["semilat2", 3] == 9
    assert counts["z4", 3] == 35


def test_zariski_report_reaches_distlat2_at_arity_4():
    gs = ground_space(distlat2(), distlat2(), 4)
    rep = zariski_report(gs)
    assert len(rep.closed_sets) == 65536
    assert rep.is_topology and rep.matches_discrete


# --------------------------------------------------------------------------
# the V and C sweeps over many rows


def check_sweeps(gs, masks=()):
    """V of every congruence against brute_v and v_of_partition, its radical
    through oracles._c_rows against radical_of_partition, and C of each
    extra mask against c_operator."""
    congruences = all_congruences(gs.free.as_algebra())
    labels = [th.labels for th in congruences]
    rows = _least_members(labels).reshape(len(congruences), gs.free.size)
    v = _v_masks(gs, rows)
    radicals = oracles._c_rows(gs, v)
    ev = gs.ev.tolist()
    for th, mask, rad in zip(congruences, v, _partitions(radicals)):
        pts = tuple(np.flatnonzero(mask).tolist())
        glued = [(p, q) for p in range(th.size) for q in range(p) if th.labels[p] == th.labels[q]]
        assert pts == oracles.brute_v(ev, gs.npoints, glued) == v_of_partition(gs, th).points
        assert rad == radical_of_partition(gs, th)
    masks = np.array(masks, dtype=bool).reshape(len(masks), gs.npoints)
    for mask, part in zip(masks, _partitions(oracles._c_rows(gs, masks)) if len(masks) else ()):
        subset = AffineSubset.of(gs, np.flatnonzero(mask))
        assert part == c_operator(subset)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ground_cases(), st.data())
def test_v_and_radical_sweeps_match_scalar_routes_on_random_algebras(case, data):
    g, n, ground, _ = case
    gs = ground_space(g, ground, n)
    assume(gs.ok and gs.free.size <= 12)
    masks = data.draw(st.lists(st.lists(st.booleans(), min_size=gs.npoints,
                                        max_size=gs.npoints), max_size=6))
    # a chunk of one row, of a few rows, or the default
    with mock.patch.object(core, "_CHUNK", data.draw(st.sampled_from([1, 64, core._CHUNK]))):
        check_sweeps(gs, masks)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ground_cases())
def test_lattice_radicals_are_the_fibre_maxima_on_random_algebras(case):
    # _lattice reads C(V theta) off the lattice as the coarsest congruence
    # with theta's V mask; C computed from the masks is the reference
    g, n, ground, _ = case
    gs = ground_space(g, ground, n)
    assume(gs.ok and 0 < gs.free.size <= 12)
    rows, masks, inv, radicals = _lattice(gs, DEFAULT_BUDGET)
    assert np.array_equal(radicals, oracles._c_rows(gs, masks))
    assert np.array_equal(masks[inv], _v_masks(gs, rows))
    rad = _partitions(radicals)
    for th, i in zip(_partitions(rows), inv.tolist()):
        assert rad[i] == radical_of_partition(gs, th)


@pytest.mark.parametrize("alg, n", [(z4, 3), (semilat2, 4)])
def test_v_and_radical_sweeps_match_scalar_routes_pinned(alg, n):
    # z4@3 self-grounded has 64 points of 2 bits: three key columns
    gs = ground_space(alg(), alg(), n)
    rng = random.Random(n)
    masks = [[rng.random() < 0.5 for _ in range(gs.npoints)] for _ in range(8)]
    check_sweeps(gs, masks + [[True] * gs.npoints, [False] * gs.npoints])


def test_zariski_reports_compare_by_closed_sets():
    a, b = (zariski_report(ground_space(z4(), z4(), 2)) for _ in "ab")
    assert a == b and hash(a) == hash(b)
    assert a.closed_sets == b.closed_sets
    assert a != zariski_report(ground_space(z4(), z4(), 1))
