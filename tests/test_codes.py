"""The constructions that compute big-endian codes over arrays (products,
powers, quotients, the congruence, homomorphism and subdirect checks,
subuniverses) against plain-Python pointwise references built from the oracles, on random
small algebras with and without constants; and the edge cases of the one
empty code: no factors, no witnesses, no solutions."""

from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from affinekit.adjunction import _point_images
from affinekit.core import (
    FiniteAlgebra,
    Homomorphism,
    Partition,
    all_congruences,
    generate_subuniverse,
    is_homomorphism,
    is_subdirect_embedding,
    power_algebra,
    product_algebra,
    quotient_algebra,
)
from affinekit.free import ground_space
from affinekit.galois import AffineSubset, PresentedAlgebra, birkhoff_transform
from affinekit.instances import builtin

import oracles
from test_clone import PROPERTY_SETTINGS, generators, table_of
from test_core import _ops_dict


def coordinates(factors):
    """Every point of the product of factors, in code order."""
    return list(product(*(range(f.size) for f in factors)))


def product_tables(factors, signature):
    """The product's tables, entry by entry: each factor's operation applied
    to the coordinates of the argument tuples, the result looked up among
    the points."""
    points = coordinates(factors)
    index = {pt: code for code, pt in enumerate(points)}
    tables = []
    for sym, r in signature.symbols:
        args = list(product(range(len(points)), repeat=r))
        columns = [
            oracles.apply_op(f.table(sym), f.size,
                             [[points[a[j]][i] for a in args] for j in range(r)],
                             len(args))
            for i, f in enumerate(factors)
        ]
        tables.append(tuple(index[pt] for pt in zip(*columns)) if factors
                      else (0,) * len(args))
    return tuple(tables)


def subuniverse(alg, seeds):
    """Sorted seeds, then rounds of every operation on every tuple of the
    elements known at the round's start, in big-endian order."""
    found = sorted(set(seeds))
    while True:
        frozen = len(found)
        for (sym, r), tab in zip(alg.signature.symbols, alg.tables):
            for args in product(found[:frozen], repeat=r):
                v = tab[oracles.encode(args, alg.size)]
                if v not in found:
                    found.append(v)
        if len(found) == frozen:
            return tuple(found)


@st.composite
def same_signature(draw, g):
    """An algebra of g's signature: g, a quotient of g or random tables."""
    kind = draw(st.sampled_from(["self", "quotient", "random"]))
    if kind == "quotient":
        return quotient_algebra(g, draw(st.sampled_from(all_congruences(g))))[0]
    if kind == "random":
        k = draw(st.integers(1, 3))
        ops = [(sym, r, table_of(draw, k, r)) for sym, r in g.signature.symbols]
        return FiniteAlgebra.make(k, ops)
    return g


# one draw costs milliseconds, so this property takes more examples
@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.data())
def test_code_constructions_match_pointwise_references(data):
    g, _ = data.draw(generators())
    factors = data.draw(st.lists(same_signature(g), max_size=2))
    prod = product_algebra(factors, signature=g.signature)
    assert prod.size == len(coordinates(factors))
    assert prod.tables == product_tables(factors, g.signature)
    e = data.draw(st.integers(0, 2))
    assert power_algebra(g, e).tables == product_tables([g] * e, g.signature)

    theta = data.draw(st.sampled_from(all_congruences(g)))
    quot, proj = quotient_algebra(g, theta)
    reps = [theta.labels.index(c) for c in range(theta.num_blocks)]
    assert proj.mapping == theta.labels
    assert quot.tables == tuple(
        tuple(theta.labels[tab[oracles.encode(args, g.size)]]
              for args in product(reps, repeat=r))
        for (_, r), tab in zip(g.signature.symbols, g.tables)
    )

    labels = data.draw(st.lists(st.integers(0, g.size - 1), min_size=g.size,
                                max_size=g.size))
    assert (Partition.from_labels(labels).is_congruence_of(g)
            == oracles.respects_ops(labels, _ops_dict(g), g.size))

    homs = oracles.brute_homs(_ops_dict(g), g.size, _ops_dict(prod), prod.size)
    assert homs == [
        m for m in product(range(prod.size), repeat=g.size)
        if is_homomorphism(Homomorphism(g, prod, m))
    ]
    points = coordinates(factors)
    for m in homs[:4] + homs[-4:]:
        report = is_subdirect_embedding(Homomorphism(g, prod, m), factors)
        assert report.injective == (len(set(m)) == len(m))
        assert report.onto_each_factor == tuple(
            len({points[x][i] for x in m}) == f.size for i, f in enumerate(factors)
        )

    # the product has up to 9 elements, so a round can find several at once
    seeds = data.draw(st.sets(st.integers(0, prod.size - 1), max_size=2))
    assert generate_subuniverse(prod, seeds) == subuniverse(prod, seeds)


def test_empty_codes():
    bool2 = builtin("bool2")
    # the product of no factors is the one-element algebra
    trivial = product_algebra((), signature=bool2.signature)
    assert trivial.size == 1
    assert trivial.tables == ((0,),) * len(bool2.signature.symbols)
    assert power_algebra(bool2, 0) == trivial
    for source, injective in ((bool2, False), (trivial, True)):
        h = Homomorphism(source, trivial, (0,) * source.size)
        report = is_subdirect_embedding(h, ())
        assert (report.injective, report.onto_each_factor) == (injective, ())

    # m = 0: the one witness () sends every point to the one point of A^0
    gs = ground_space(bool2, bool2, 1)
    one_empty = np.zeros((0, 1), dtype=np.int64)  # witness columns
    no_witness = np.zeros((0, 0), dtype=np.int64)
    line = AffineSubset.full(gs)
    assert _point_images(line, one_empty).tolist() == [[0, 0]]
    assert _point_images(line, no_witness).shape == (0, 2)

    # V(theta) is empty: no factors, and sigma and iota land in one point
    rep = birkhoff_transform(PresentedAlgebra(gs, Partition.total(4)))
    assert rep.points == () and rep.factors == ()
    assert rep.sigma.mapping == (0,)
    assert rep.iota.mapping == (0,)
    assert rep.iota.target.size == 1

    # no constants and no generators: F(0) is empty, so are its witnesses
    semilat = builtin("semilat2")
    empty = ground_space(semilat, semilat, 0)
    assert empty.free.size == 0
    point = AffineSubset.full(empty)
    assert _point_images(point, no_witness).shape == (0, 1)
    assert _point_images(point, one_empty).tolist() == [[0]]
