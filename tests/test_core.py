import ast
import pathlib
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from affinekit import core
from affinekit.core import (
    App,
    FiniteAlgebra,
    Homomorphism,
    Partition,
    Var,
    _first_rows,
    _representatives,
    _row_least,
    all_congruences,
    decode_point,
    encode_point,
    evaluate_term,
    format_term,
    generate_congruence,
    generate_subuniverse,
    is_homomorphism,
    is_subdirect_embedding,
    power_algebra,
    product_algebra,
    quotient_algebra,
)
from affinekit.errors import (
    ArityMismatch,
    BudgetExceeded,
    NotACongruence,
    ShapeMismatch,
    SignatureMismatch,
    UnknownSymbol,
    ValidationError,
    VariableOutOfRange,
)

import oracles


def bool2():
    return FiniteAlgebra.make(2, [
        ("and", 2, (0, 0, 0, 1)),
        ("or", 2, (0, 1, 1, 1)),
        ("not", 1, (1, 0)),
        ("0", 0, (0,)),
        ("1", 0, (1,)),
    ], name="bool2")


def z4():
    return FiniteAlgebra.make(4, [
        ("add", 2, tuple((i + j) % 4 for i in range(4) for j in range(4))),
        ("neg", 1, (0, 3, 2, 1)),
        ("0", 0, (0,)),
    ], name="z4")


def semilat2():
    return FiniteAlgebra.make(2, [("and", 2, (0, 0, 0, 1))], name="semilat2")


def test_encoding_round_trip():
    # big-endian: first coordinate is most significant
    assert encode_point((1, 0), 2) == 2
    assert encode_point((0, 1), 2) == 1
    assert encode_point((2, 3), 4) == 11
    for k, n in [(2, 3), (4, 2), (3, 1), (5, 0)]:
        for c in range(k ** n):
            assert encode_point(decode_point(c, k, n), k) == c


def test_table_layout_matches_encoding():
    a = bool2()
    assert a.op("and", (1, 0)) == 0
    assert a.op("or", (1, 0)) == 1
    assert a.op("not", (0,)) == 1
    assert a.op("0") == 0
    with pytest.raises(ArityMismatch):
        a.op("not", (0, 1))
    with pytest.raises(UnknownSymbol):
        a.op("xor", (0, 1))


def test_algebra_validation():
    with pytest.raises(ValidationError):
        FiniteAlgebra.make(2, [("and", 2, (0, 0, 0))])  # short table
    with pytest.raises(ValidationError):
        FiniteAlgebra.make(2, [("and", 2, (0, 0, 0, 5))])  # out of range
    with pytest.raises(ValidationError):
        FiniteAlgebra.make(0, [("0", 0, (0,))])  # constant on empty carrier
    # empty carrier is fine without constants
    empty = FiniteAlgebra.make(0, [("and", 2, ())])
    assert empty.size == 0


def test_evaluate_term():
    a = bool2()
    t = App("and", (Var(0), App("not", (Var(1),))))
    assert format_term(t) == "and(x0, not(x1))"
    assert evaluate_term(a, t, (1, 0)) == 1
    assert evaluate_term(a, t, (1, 1)) == 0
    assert evaluate_term(a, App("1"), ()) == 1
    with pytest.raises(VariableOutOfRange):
        evaluate_term(a, Var(2), (0, 1))
    with pytest.raises(ArityMismatch):
        evaluate_term(a, App("not", (Var(0), Var(1))), (0, 1))


def test_generate_subuniverse_discovery_order():
    g = z4()
    # seeds sorted first, then ops in signature order
    assert generate_subuniverse(g, [2]) == (2, 0)
    assert generate_subuniverse(g, [1]) == (1, 2, 3, 0)
    assert generate_subuniverse(g, [3, 1]) == (1, 3, 2, 0)
    assert generate_subuniverse(g, []) == (0,)
    s = semilat2()
    assert generate_subuniverse(s, []) == ()
    assert generate_subuniverse(s, [1, 0]) == (0, 1)


def test_power_algebra():
    sq = power_algebra(bool2(), 2)
    assert sq.size == 4
    # (1,0) and (0,1): and = (0,0), or = (1,1)
    assert sq.op("and", (2, 1)) == 0
    assert sq.op("or", (2, 1)) == 3
    assert sq.op("not", (2,)) == 1
    assert sq.op("1") == 3
    zero = power_algebra(bool2(), 0)
    assert zero.size == 1
    with pytest.raises(BudgetExceeded):
        power_algebra(z4(), 16, budget=10 ** 6)


def test_product_vs_power():
    a = bool2()
    assert product_algebra([a, a]) == power_algebra(a, 2)
    with pytest.raises(SignatureMismatch):
        product_algebra([a, z4()])
    with pytest.raises(ValidationError):
        product_algebra([])
    triv = product_algebra([], signature=a.signature)
    assert triv.size == 1


def test_generate_congruence_z4():
    g = z4()
    th = generate_congruence(g, [(0, 2)])
    assert th.blocks() == ((0, 2), (1, 3))
    assert generate_congruence(g, [(0, 1)]) == Partition.total(4)
    assert generate_congruence(g, []) == Partition.identity(4)


def test_generate_congruence_matches_oracle():
    # exhaustive check on the 4-element Boolean algebra of unary functions:
    # Cg(u,v) must be the least oracle congruence containing (u, v)
    f1 = _free_bool1()
    cons = oracles.brute_congruences(_ops_dict(f1), f1.size)
    for u in range(f1.size):
        for v in range(u):
            got = generate_congruence(f1, [(u, v)])
            best = None
            for labels in cons:
                if labels[u] == labels[v]:
                    p = Partition.from_labels(labels)
                    if best is None or p.refines(best):
                        best = p
            assert got == best


def _ops_dict(alg):
    return {
        sym: (r, alg.table(sym))
        for sym, r in alg.signature.symbols
    }


def _free_bool1():
    """The algebra of unary Boolean term functions [x, not x, 0, 1],
    built longhand (the free-clone module has its own constructor)."""
    elems = [(0, 1), (1, 0), (0, 0), (1, 1)]
    idx = {e: i for i, e in enumerate(elems)}
    def lift2(table):
        flat = []
        for p in elems:
            for q in elems:
                flat.append(idx[tuple(table[encode_point((p[c], q[c]), 2)] for c in range(2))])
        return tuple(flat)
    def lift1(table):
        return tuple(idx[tuple(table[p[c]] for c in range(2))] for p in elems)
    return FiniteAlgebra.make(4, [
        ("and", 2, lift2((0, 0, 0, 1))),
        ("or", 2, lift2((0, 1, 1, 1))),
        ("not", 1, lift1((1, 0))),
        ("0", 0, (idx[(0, 0)],)),
        ("1", 0, (idx[(1, 1)],)),
    ])


def test_partition_basics():
    p = Partition.from_pairs(4, [(0, 2)])
    assert p.labels == (0, 1, 0, 2)
    assert p.blocks() == ((0, 2), (1,), (3,))
    assert p.together(0, 2) and not p.together(0, 1)
    q = Partition.from_pairs(4, [(1, 3)])
    assert p.meet(q) == Partition.identity(4)
    assert p.join(q).blocks() == ((0, 2), (1, 3))
    chain = Partition.from_pairs(4, [(0, 1)]).join(Partition.from_pairs(4, [(1, 2)]))
    assert chain.blocks() == ((0, 1, 2), (3,))
    assert Partition.identity(4).refines(p)
    assert p.refines(Partition.total(4))
    assert not p.refines(q)
    with pytest.raises(ValidationError):
        Partition(3, (0, 2, 1))  # not normalized
    assert Partition.total(0) == Partition.identity(0)


def test_refines_matches_per_label_oracle():
    # q coarser than p by a join half the time, so both answers come up
    rng = random.Random(7)
    for _ in range(300):
        size = rng.randrange(7)
        p, q = (Partition.from_labels(rng.randrange(4) for _ in range(size)) for _ in "pq")
        if rng.random() < 0.5:
            q = p.join(q)
        assert p.refines(q) == oracles.refines(p.labels, q.labels)
        assert q.refines(p) == oracles.refines(q.labels, p.labels)
    with pytest.raises(ShapeMismatch):
        Partition.identity(3).refines(Partition.identity(4))


def test_row_least_and_first_rows_match_first_equal_row_oracle():
    rng = np.random.default_rng(5)
    shapes = [(0, 3), (4, 0), (0, 0), (1, 5), (1, 0)]
    shapes += [tuple(rng.integers(1, 9, 2)) for _ in range(200)]
    for i, shape in enumerate(shapes):
        if i % 3 == 2:
            rows = rng.random(shape) < 0.5
        else:
            rows = rng.integers(-2, 3, shape, dtype=(np.int8, np.int64)[i % 3])
        if i % 5 == 4:
            rows = np.ascontiguousarray(rows.T).T  # a strided view, as of a transpose
        want = oracles.first_equal_rows(rows.tolist())
        least = _row_least(rows)
        assert least.tolist() == want
        assert _first_rows(rows).tolist() == sorted(set(want))
        assert np.array_equal(_first_rows(rows), _representatives(least))


@given(st.lists(st.integers(-2, 6), max_size=8), st.permutations(range(8)))
@example([1, 0], range(8))
@example([0, 2, 1], range(8))
def test_partition_validation_matches_per_label_oracle(labels, perm):
    # negatives and gaps come from the raw draw; its renumbering is always
    # valid, and renaming the renumbered blocks may break the order
    want = oracles.normalize(labels)
    assert oracles.is_normalized(want) and Partition.from_labels(labels).labels == want
    for labs in (tuple(labels), want, tuple(perm[lab] for lab in want)):
        if oracles.is_normalized(labs):
            assert Partition(len(labs), labs).labels == labs
        else:
            with pytest.raises(ValidationError):
                Partition(len(labs), labs)


def test_is_congruence():
    g = z4()
    assert Partition.from_pairs(4, [(0, 2), (1, 3)]).is_congruence_of(g)
    assert not Partition.from_pairs(4, [(0, 2)]).is_congruence_of(g)
    assert Partition.identity(4).is_congruence_of(g)
    assert Partition.total(4).is_congruence_of(g)


def test_quotient_algebra():
    g = z4()
    th = Partition.from_pairs(4, [(0, 2), (1, 3)])
    q, proj = quotient_algebra(g, th)
    assert q.size == 2
    assert q.table("add") == (0, 1, 1, 0)  # the quotient is z2
    assert proj.mapping == (0, 1, 0, 1)
    assert is_homomorphism(proj)
    with pytest.raises(NotACongruence):
        quotient_algebra(g, Partition.from_pairs(4, [(0, 2)]))
    with pytest.raises(ShapeMismatch):
        quotient_algebra(g, Partition.identity(3))


def test_is_homomorphism():
    g = z4()
    th = Partition.from_pairs(4, [(0, 2), (1, 3)])
    q, proj = quotient_algebra(g, th)
    assert is_homomorphism(Homomorphism(q, g, (0, 1))) is False  # not additive
    assert is_homomorphism(Homomorphism(q, g, (0, 2)))
    with pytest.raises(SignatureMismatch):
        is_homomorphism(Homomorphism(bool2(), g, (0, 0)))
    with pytest.raises(ShapeMismatch):
        is_homomorphism(Homomorphism(g, g, (0, 1)))


def test_homs_match_oracle():
    f1 = _free_bool1()
    b = bool2()
    maps = oracles.brute_homs(_ops_dict(f1), f1.size, _ops_dict(b), b.size)
    for m in maps:
        assert is_homomorphism(Homomorphism(f1, b, m))
    assert len(maps) == 2  # evaluation at 0 and at 1


def test_subdirect_embedding():
    g = z4()
    prod = product_algebra([g, g])
    diag = Homomorphism(g, prod, tuple(x * 4 + x for x in range(4)))
    rep = is_subdirect_embedding(diag, [g, g])
    assert rep.injective and rep.onto_each_factor == (True, True)
    first = Homomorphism(g, prod, tuple(x * 4 for x in range(4)))
    rep = is_subdirect_embedding(first, [g, g])
    assert rep.injective and rep.onto_each_factor == (True, False)
    with pytest.raises(ShapeMismatch):
        is_subdirect_embedding(diag, [g])


def test_all_congruences_small_oracle():
    for alg, expect in [
        (z4(), 3),
        (bool2(), 2),
        (semilat2(), 2),
        (_free_bool1(), 4),
    ]:
        cons = all_congruences(alg)
        assert len(cons) == expect
        brute = oracles.brute_congruences(_ops_dict(alg), alg.size)
        assert {c.labels for c in cons} == {
            Partition.from_labels(b).labels for b in brute
        }


def test_all_congruences_fast_path_agrees():
    # the lattice is the join closure of the per-pair fixpoint's principals
    for alg in [z4(), _free_bool1(), power_algebra(z4(), 2)]:
        principals = oracles.principal_congruences(_ops_dict(alg), alg.size)
        want = oracles.join_closure(principals, alg.size)
        assert {p.labels for p in all_congruences(alg)} == want


def test_all_congruences_z4_squared():
    # 15 subgroups of Z4 x Z4 (frozen from the subgroup oracle)
    cons = all_congruences(power_algebra(z4(), 2))
    assert len(cons) == 15


def test_all_congruences_empty_and_trivial():
    empty = FiniteAlgebra.make(0, [("and", 2, ())])
    assert all_congruences(empty) == (Partition(0, ()),)
    one = FiniteAlgebra.make(1, [("and", 2, (0,))])
    assert all_congruences(one) == (Partition(1, (0,)),)


def test_no_unique_over_an_axis_in_the_package():
    # np.unique(rows, axis=0) sorts a structured view of the rows, 10-16
    # times the cost of np.unique over core._ordered_keys, which gives the
    # same order: 258 ms against 16 ms on the 65,536 V masks of F_distlat2(4)
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(core.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "unique" and any(kw.arg == "axis" for kw in node.keywords)]
    assert calls == []


def test_no_void_view_outside_row_keys():
    # one helper per idiom: rows become byte keys only through core._row_keys
    uses = []
    for path in sorted(pathlib.Path(core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = {id(node) for func in ast.walk(tree) if path.name == "core.py"
                  and isinstance(func, ast.FunctionDef) and func.name == "_row_keys"
                  for node in ast.walk(func)}
        uses += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "void"
                 and id(node) not in helper]
    assert uses == []
