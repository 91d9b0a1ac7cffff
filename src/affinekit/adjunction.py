"""Arrows between point sets, arrows between presented free algebras, and
the hom-set correspondence tying them together.

A definable-map arrow S' -> S (S' in A^n, S in A^m) is induced by an
m-tuple of elements of F(n): a |-> (w_1(a), .., w_m(a)). Two tuples give
the same arrow when they restrict to the same function on S', so arrows
are stored by their graph with one witnessing tuple.

A relation arrow (F(n), R') -> (F(m), R) is a homomorphism h: F(m) -> F(n)
(note the reversal) carrying every pair of R into R'; reflexive image
pairs count as carried. Two homomorphisms give the same arrow when they
induce the same factorized map F(m)/R-closure -> F(n)/R'-closure, so
arrows are stored by that class map with one witnessing generator-image
tuple.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .core import DEFAULT_BUDGET, Partition, _encode
from .errors import (
    AssertionFailure,
    BijectionFailure,
    BudgetExceeded,
    NotStable,
    ShapeMismatch,
    ValidationError,
)
from .free import _replay, free_algebra, ground_space, substitute
from .galois import AffineSubset, Relation, c_operator, v_operator


@lru_cache(maxsize=None)
def rel_closure(rel):
    """The equivalence closure of a relation, as a partition of the free
    algebra's elements."""
    return Partition.from_pairs(rel.space.free.size, rel.pairs)


def _same_context(sa, sb):
    return sa.ground == sb.ground and sa.free.generator == sb.free.generator


@dataclass(frozen=True)
class DArrowClass:
    """A definable map between point sets: equality by restriction graph."""

    source: AffineSubset
    target: AffineSubset
    images: tuple  # target point code per source point, aligned with source.points
    witness: tuple = field(compare=False)  # generator images in the source's free algebra

    def then(self, other):
        """other after self."""
        if other.source != self.target:
            raise ShapeMismatch("arrow endpoints do not compose")
        pos = {a: i for i, a in enumerate(other.source.points)}
        images = tuple(other.images[pos[b]] for b in self.images)
        fm = self.target.space.free
        fn = self.source.space.free
        witness = tuple(
            substitute(fm, w, self.witness, fn) for w in other.witness
        )
        return DArrowClass(self.source, other.target, images, witness)


def d_identity(subset):
    fn = subset.space.free
    witness = tuple(fn.var(i) for i in range(subset.space.arity))
    return DArrowClass(subset, subset, tuple(subset.points), witness)


@dataclass(frozen=True)
class RArrowClass:
    """An arrow between presented free algebras: equality by the factorized
    map on closure classes (entry c = source-closure class of h(rep of
    target-closure class c))."""

    source: Relation
    target: Relation
    class_map: tuple
    witness: tuple = field(compare=False)

    def then(self, other):
        """other after self (self: x -> y, other: y -> z gives x -> z)."""
        if other.source != self.target:
            raise ShapeMismatch("arrow endpoints do not compose")
        class_map = tuple(self.class_map[c] for c in other.class_map)
        fm = self.target.space.free
        fn = self.source.space.free
        witness = tuple(
            substitute(fm, w, self.witness, fn) for w in other.witness
        )
        return RArrowClass(self.source, other.target, class_map, witness)


def r_identity(rel):
    fn = rel.space.free
    witness = tuple(fn.var(i) for i in range(rel.space.arity))
    closure = rel_closure(rel)
    return RArrowClass(rel, rel, tuple(range(closure.num_blocks)), witness)


def _witness_tuples(free, m, budget):
    """Every m-tuple of elements of free, big-endian over element indices."""
    if free.size ** m > budget:
        raise BudgetExceeded(f"{free.size ** m} witness tuples exceed budget {budget}")
    return list(product(range(free.size), repeat=m))


def _homomorphism_table(y_space, x_space, witnesses):
    """h(p) for every element p of y's free algebra (rows) and every
    generator-image tuple of witnesses (columns), by clone composition."""
    fm, fn = y_space.free, x_space.free
    images = np.array(witnesses, dtype=np.int64).reshape(len(witnesses), fm.arity)
    return _replay(fm, fn.as_algebra(), images.T)


def _point_images(space, points, witnesses):
    """Codes of the points (w_1(a), .., w_m(a)) of the ground, one row per
    witness tuple (w_1, .., w_m), one column per point a of points."""
    # ndmin=2 and the slice keep an empty list of witnesses a 2-D table
    w = np.array(witnesses, dtype=np.int64, ndmin=2)[:len(witnesses)].T
    return _encode(space.ev[:, list(points)][w], (space.ground.size,) * len(w))


def _induced_map(src, dst, witness, error):
    """The definable map src -> dst of a generator-image tuple; error is
    raised when an image leaves dst."""
    images = tuple(_point_images(src.space, src.points, [witness])[0].tolist())
    if not set(images) <= set(dst.points):
        raise error
    return DArrowClass(src, dst, images, witness)


def _carries(pairs_set, hp, hq):
    return hp == hq or (hp, hq) in pairs_set


def _make_rarrow(x, y, witness, h=None):
    """Build the arrow class for a generator-image tuple, verifying the
    relation is carried; returns None when it is not."""
    if h is None:
        h = _homomorphism_table(y.space, x.space, [witness])[:, 0].tolist()
    xpairs = set(x.pairs)
    for p, q in y.pairs:
        if not _carries(xpairs, h[p], h[q]):
            return None
    xbar = rel_closure(x)
    ybar = rel_closure(y)
    class_map = [None] * ybar.num_blocks
    for p in range(y.space.free.size):
        c = ybar.labels[p]
        lab = xbar.labels[h[p]]
        if class_map[c] is None:
            class_map[c] = lab
        elif class_map[c] != lab:
            raise AssertionFailure("carried relation gave an ill-defined class map")
    return RArrowClass(x, y, tuple(class_map), tuple(witness))


def hom_set_dq(src, dst, budget=DEFAULT_BUDGET):
    """All definable maps src -> dst, canonical order: first witness tuple
    (big-endian over free-algebra indices) that realizes each graph."""
    if not _same_context(src.space, dst.space):
        raise ValidationError("arrows need a common ground and generator")
    src.space.require_ok(src.points)
    witnesses = _witness_tuples(src.space.free, dst.space.arity, budget)
    images = _point_images(src.space, src.points, witnesses)
    inside = np.isin(images, dst.points).all(axis=1)
    out = {}
    for witness, row, ok in zip(witnesses, images.tolist(), inside):
        row = tuple(row)
        if ok and row not in out:
            out[row] = DArrowClass(src, dst, row, witness)
    return tuple(out.values())


def hom_set_rq(x, y, budget=DEFAULT_BUDGET):
    """All relation arrows x -> y, canonical order: first generator-image
    tuple that realizes each factorized map."""
    if not _same_context(x.space, y.space):
        raise ValidationError("arrows need a common ground and generator")
    witnesses = _witness_tuples(x.space.free, y.space.arity, budget)
    table = _homomorphism_table(y.space, x.space, witnesses)
    out = {}
    for witness, h in zip(witnesses, table.T.tolist()):
        arrow = _make_rarrow(x, y, witness, h)
        if arrow is not None and arrow.class_map not in out:
            out[arrow.class_map] = arrow
    return tuple(out.values())


# --------------------------------------------------------------------------
# the two functors


def cq_object(subset):
    """The presented free algebra (F(n), C(S)) of a point set."""
    return Relation.from_partition(subset.space, c_operator(subset))


def cq_arrow(d):
    """The relation arrow induced by a definable map (same witness, free
    algebras swapped)."""
    x = cq_object(d.source)
    y = cq_object(d.target)
    arrow = _make_rarrow(x, y, d.witness)
    if arrow is None:
        raise AssertionFailure("definable map failed to carry the kernel relation")
    return arrow


def vq_object(rel):
    """The point set V(R) of a presented free algebra."""
    return v_operator(rel)


def vq_arrow(r):
    """The definable map induced by a relation arrow (same witness)."""
    return _vq_map(vq_object(r.source), vq_object(r.target), r)


def _vq_map(source, target, r):
    """vq_arrow(r) between the already computed V(r.source) and
    V(r.target)."""
    return _induced_map(
        source, target, r.witness,
        AssertionFailure("induced map left the target point set"),
    )


# --------------------------------------------------------------------------
# the adjunction


@dataclass(frozen=True)
class AdjunctionReport:
    lhs: int
    rhs: int
    bijection_ok: bool
    natural_ok: bool


def _phi(subset, vy, arrow):
    """The correspondence hom(C^q S, y) -> hom(S, V(y)), vy = V(y):
    restrict the witness-induced map to the points."""
    return _induced_map(
        subset, vy, arrow.witness,
        BijectionFailure("correspondence image left V(y)"),
    )


def verify_adjunction(subset, y, budget=DEFAULT_BUDGET, seed=2026):
    """Count hom(C^q S, y) and hom(S, V(y)), check the explicit
    correspondence is a bijection, and check naturality squares in both
    coordinates (exhaustively up to 64 cases, sampled beyond)."""
    space = subset.space
    if not _same_context(space, y.space):
        raise ValidationError("adjunction needs a common ground and generator")
    x = cq_object(subset)
    vy = vq_object(y)
    lhs = hom_set_rq(x, y, budget)
    rhs = hom_set_dq(subset, vy, budget)

    mapped = [_phi(subset, vy, a) for a in lhs]
    bijection_ok = (
        len(lhs) == len(rhs)
        and len(set(mapped)) == len(mapped)
        and set(mapped) == set(rhs)
    )

    rng = random.Random(seed)

    def sample(items, k):
        if len(items) <= k:
            return list(items)
        return rng.sample(list(items), k)

    natural_ok = True
    # vary the source: f: S0 -> S, compare Phi(alpha after C^q f) with
    # Phi(alpha) after f
    companions = [AffineSubset.empty(space), AffineSubset.full(space), subset]
    seen = set()
    for s0 in companions:
        if s0.points in seen:
            continue
        seen.add(s0.points)
        fs = hom_set_dq(s0, subset, budget)
        cases = [(f, a) for f in fs for a in lhs]
        for f, alpha in sample(cases, 64):
            lifted = cq_arrow(f)
            left = _phi(s0, vy, lifted.then(alpha))
            right = f.then(_phi(subset, vy, alpha))
            if left != right:
                natural_ok = False
    # vary the target: g: y -> y1, compare Phi(g after alpha) with
    # V^q g after Phi(alpha)
    m = y.space.arity
    fm = y.space.free
    targets = [y, Relation.identity(y.space)]
    if fm.size:
        targets.append(Relation.from_partition(y.space, Partition.total(fm.size)))
    seen = set()
    for y1 in targets:
        if y1.pairs in seen:
            continue
        seen.add(y1.pairs)
        vy1 = vq_object(y1)
        gs = hom_set_rq(y, y1, budget)
        cases = [(g, a) for g in gs for a in lhs]
        for g, alpha in sample(cases, 64):
            left = _phi(subset, vy1, alpha.then(g))
            right = _phi(subset, vy, alpha).then(_vq_map(vy, vy1, g))
            if left != right:
                natural_ok = False
    return AdjunctionReport(
        lhs=len(lhs), rhs=len(rhs), bijection_ok=bijection_ok, natural_ok=natural_ok
    )


# --------------------------------------------------------------------------
# representability of the distinguished hom


@dataclass(frozen=True)
class RepresentabilityReport:
    hom_count: int
    quotient_size: int
    match: bool


def check_stability(rel):
    """A relation is translation-stable when composing both sides of any
    pair with any unary term function lands back in the relation (reflexive
    images count). Congruence-derived relations always are."""
    free = rel.space.free
    unary = free_algebra(free.generator, 1)
    # translate[u, p] is u(p): the unary term functions replayed in F(n)
    # with x0 sent to every element at once
    translate = _replay(unary, free.as_algebra(), np.arange(free.size)[None])
    carried = np.eye(free.size, dtype=bool)
    p, q = np.array(rel.pairs, dtype=np.int64).reshape(len(rel.pairs), 2).T
    carried[p, q] = True
    return bool(carried[translate[:, p], translate[:, q]].all())


def representability_check(x, stable=False, budget=DEFAULT_BUDGET):
    """Arrows x -> (F(1), identity) against the closure-quotient of x: for
    translation-stable relations these match via [witness]."""
    if not stable and not check_stability(x):
        raise NotStable("relation is not translation-stable")
    space1 = ground_space(x.space.free.generator, x.space.ground, 1, budget)
    dist = Relation.identity(space1)
    homs = hom_set_rq(x, dist, budget)
    xbar = rel_closure(x)
    labels = [xbar.labels[a.witness[0]] for a in homs]
    match = (
        len(homs) == xbar.num_blocks
        and len(set(labels)) == len(labels)
        and set(labels) == set(range(xbar.num_blocks))
    )
    return RepresentabilityReport(
        hom_count=len(homs), quotient_size=xbar.num_blocks, match=match
    )
