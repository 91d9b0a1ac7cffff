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

Every arrow, a hom set or a single one, comes from one sweep. Witness
tuples are the columns of an (m, W) table, big-endian over element indices.
A hom set's arrows depend on the tuple only up to a congruence psi of
F(n): C(S') on the point side, and on the relation side the largest
congruence inside "same row and same column of R' and the diagonal". So a
hom set takes only the tuples of least psi-class members; the lex-least
tuple realizing an arrow is one of them, so the arrows, their witnesses
and their order stay those of all tuples. The point side keeps the
columns whose graph lies inside S. The relation side keeps the columns
whose R'-closure classes are constant on R's closure classes; when R' and
the diagonal make an equivalence, those carry R, and otherwise the pairs
of R narrow them in turn, so a tuple drops out at its first pair sent
outside R' and the diagonal. The class maps are read off the survivors.
The arrows are the first witness of each distinct graph or class map, in
witness order.
verify_adjunction checks the sampled naturality squares of one companion
object together: one side composes witnesses in the clone and evaluates
them at the points, the other composes graphs. A clone composite is one
gather from a homomorphism table: the lhs sweep's for the target
companions, which share y's one witness sweep, and the S-side entry's for
the source companions.
A sweep repeats each S and y, the adjunction being natural in both. So
value objects keep their derived arrays, read-only: a Partition its least
members and representatives, an AffineSubset its point array, mask and ev
columns, a Relation its equivalence test and matrix with the diagonal.
_source_side and _target_side keep what depends on S or y alone in
128-entry caches: per source companion S0, each map S0 -> S's graph in S,
homomorphism table and carried verdict; per target companion, the first
witnesses. hom(S, V(y)) reuses the lhs's columns, so a warm call replays
only the lhs sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    Partition,
    _apply_all,
    _digits,
    _encode,
    _first_rows,
    _frozen,
    _representatives,
    _row_least,
)
from .errors import (
    AssertionFailure,
    BijectionFailure,
    BudgetExceeded,
    NotStable,
    ShapeMismatch,
    ValidationError,
)
from .free import _replay, free_algebra, ground_space, substitute
from .galois import (
    AffineSubset,
    Relation,
    c_operator,
    rel_closure,
    v_operator,
)


def _require_context(sa, sb, message="arrows need a common ground and generator"):
    if sa.ground != sb.ground or sa.free.generator != sb.free.generator:
        raise ValidationError(message)


def _composite_witness(first, second):
    """The witness of second after first: second's generator images with
    first's witness substituted into each."""
    fm, fn = first.target.space.free, first.source.space.free
    return tuple(substitute(fm, second.witness, first.witness, fn).tolist())


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
        witness = _composite_witness(self, other)
        return DArrowClass(self.source, other.target, images, witness)


def d_identity(subset):
    return DArrowClass(subset, subset, subset.points, subset.space.free.var_positions)


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
        witness = _composite_witness(self, other)
        return RArrowClass(self.source, other.target, class_map, witness)


def r_identity(rel):
    blocks = rel_closure(rel).num_blocks
    return RArrowClass(rel, rel, tuple(range(blocks)), rel.space.free.var_positions)


# --------------------------------------------------------------------------
# the witness sweep


def _afford(free, m, budget):
    """Raise BudgetExceeded when the |free|^m witness tuples exceed budget."""
    if free.size ** m > budget:
        raise BudgetExceeded(f"{free.size ** m} witness tuples exceed budget {budget}")


def _witness_columns(free, reps, m, budget):
    """The m-tuples of reps, the least members of the classes of a
    congruence psi of free up to which the witnesses give the same arrows,
    as the columns of an (m, W) table in big-endian order. Least members in
    place of a tuple's entries give a tuple no later with the same arrow, so
    the arrows and their first witnesses are those of all m-tuples. budget
    caps those |free|^m tuples, counted before the shrink."""
    _afford(free, m, budget)
    return reps[_digits((len(reps),) * m)]


def _point_images(subset, columns):
    """Codes of the points (w_1(a), .., w_m(a)) of the ground, one row per
    witness column (w_1, .., w_m), one column per point a of subset."""
    return _encode(subset._ev[columns], (subset.space.ground.size,) * len(columns))


def _stable_classes(rel):
    """The least-member array of psi, the largest congruence of F(n) inside
    "same row and same column of rel together with the diagonal" (the
    closure's classes when that is an equivalence). Those classes are
    refined under the basic translations p -> f(c1, .., p, .., cr), read off
    the operation tables, until no class splits: until f(a1, .., ar) and f
    at the least members of the ai lie in one class for every operation f.
    Generator images equal up to psi give homomorphisms equal up to psi,
    which carry the same pairs into rel and give the same class map."""
    free, k = rel.space.free, rel.space.free.size
    rep = _row_least(np.concatenate([rel._related, rel._related.T], axis=1))
    tables = [(free._np_tables[sym], r) for sym, r in free.signature.symbols if r]
    while True:
        images = [rep[t] for t, _ in tables]
        if all((im == rep[_apply_all(t, rep, r)]).all() for (t, r), im in zip(tables, images)):
            return rep
        rep = _row_least(np.concatenate([rep[:, None], *(
            np.moveaxis(im, pos, 0).reshape(k, k ** (r - 1))
            for (_, r), im in zip(tables, images) for pos in range(r))], axis=1))


def _arrows(cls, src, dst, columns, found):
    """Arrows src -> dst from the witness columns and the (column index,
    graph or class map) pairs of _graphs or _class_maps."""
    at, rows = found
    witnesses = columns[:, at].T.tolist()
    return tuple(cls(src, dst, tuple(r), tuple(w)) for r, w in zip(rows.tolist(), witnesses))


def _images_inside(src, dst, columns, error):
    """The point images of src under the witness columns, one row each;
    error is raised when one leaves dst."""
    images = _point_images(src, columns)
    if not dst._member[images].all():
        raise error
    return images


def _graphs(src, dst, columns):
    """The index of the first witness column that induces each definable map
    src -> dst, and the map's graph, one row each, in column order."""
    images = _point_images(src, columns)
    inside = np.flatnonzero(dst._member[images].all(axis=1))
    first = inside[_first_rows(images[inside])]
    return first, images[first]


def _homs(free, rep, space, budget):
    """Witness columns over the least members of psi's classes, rep being
    psi's least-member array, for arrows into a relation on space; and
    h[p, j], column j's image of p."""
    columns = _witness_columns(free, _representatives(rep), space.arity, budget)
    return columns, _replay(space.free, free, columns)


def _carried(x, y, h):
    """The indices of the columns of h (h[p, j]: column j's image of element
    p of y's free algebra) whose homomorphism carries y into x, and their
    class maps, one column per index. A column whose x-closure labels are
    not constant on y's closure classes sends a pair of y outside x and the
    diagonal. When x with the diagonal is an equivalence, the other columns
    carry y; otherwise each pair of y is tested on them in turn. A Partition
    stands for the relation "same block", as C(S) does in verify_adjunction."""
    xbar, ybar = (r if isinstance(r, Partition) else rel_closure(r) for r in (x, y))
    # x-closure classes of the images, in the least dtype that holds them:
    # the table spans every witness column
    labels = np.asarray(xbar.labels, dtype=np.min_scalar_type(xbar.num_blocks))[h]
    class_maps = labels[ybar._reps]
    live = np.flatnonzero((labels == labels[ybar._least]).all(axis=0))
    if isinstance(x, Relation) and not x._is_equivalence:
        related = x._related
        for p, q in y.pairs:
            if not live.size:
                break
            live = live[related[h[p, live], h[q, live]]]
    return live, class_maps[:, live]


def _class_maps(x, y, h):
    """The index of the first column of h that induces each relation arrow
    x -> y, and the arrow's class map, one row each, in column order."""
    live, class_maps = _carried(x, y, h)
    first = _first_rows(class_maps.T)
    return live[first], class_maps.T[first]


def _definable(src, dst, budget):
    """The witness columns of hom_set_dq(src, dst) and their _graphs."""
    _require_context(src.space, dst.space)
    src.space.require_ok(src.points)
    reps = _first_rows(src._ev)  # least members of C(src)
    columns = _witness_columns(src.space.free, reps, dst.space.arity, budget)
    return columns, _graphs(src, dst, columns)


def hom_set_dq(src, dst, budget=DEFAULT_BUDGET):
    """All definable maps src -> dst, canonical order: first witness tuple
    (big-endian over free-algebra indices) that realizes each graph. A
    graph depends on the witness up to C(src), so the tuples are of its
    least class members."""
    return _arrows(DArrowClass, src, dst, *_definable(src, dst, budget))


def hom_set_rq(x, y, budget=DEFAULT_BUDGET):
    """All relation arrows x -> y, canonical order: first generator-image
    tuple that realizes each factorized map. The tuples are of least class
    members of x's _stable_classes."""
    _require_context(x.space, y.space)
    columns, h = _homs(x.space.free, _stable_classes(x), y.space, budget)
    return _arrows(RArrowClass, x, y, columns, _class_maps(x, y, h))


# --------------------------------------------------------------------------
# the two functors


def cq_object(subset):
    """The presented free algebra (F(n), C(S)) of a point set."""
    return Relation.from_partition(subset.space, c_operator(subset))


def cq_arrow(d):
    """The relation arrow induced by a definable map (same witness, free
    algebras swapped)."""
    x, y = cq_object(d.source), cq_object(d.target)
    column = np.array(d.witness, dtype=np.int64)[:, None]
    h = _replay(y.space.free, x.space.free, column)
    arrows = _arrows(RArrowClass, x, y, column, _class_maps(x, y, h))
    if not arrows:
        raise AssertionFailure("definable map failed to carry the kernel relation")
    return arrows[0]


def vq_object(rel):
    """The point set V(R) of a presented free algebra."""
    return v_operator(rel)


def vq_arrow(r):
    """The definable map induced by a relation arrow (same witness)."""
    src, dst = vq_object(r.source), vq_object(r.target)
    column = np.array(r.witness, dtype=np.int64)[:, None]
    arrows = _arrows(DArrowClass, src, dst, column, _graphs(src, dst, column))
    if not arrows:
        raise AssertionFailure("induced map left the target point set")
    return arrows[0]


# --------------------------------------------------------------------------
# the adjunction


@dataclass(frozen=True)
class AdjunctionReport:
    lhs: int
    rhs: int
    bijection_ok: bool
    natural_ok: bool


def _compose(h, inner):
    """Each column of inner sent through the homomorphism of h's same column."""
    return h[inner, np.arange(h.shape[1])]


@lru_cache(maxsize=128)
def _source_side(subset, budget):
    """C(S), and per source companion S0: S0, and for each map f: S0 -> S
    in first-witness order, the positions in S of f's graph, f's table
    (f's image of each element of F(n), one column per map) and whether f
    carries C(S) into C(S0). Positions and tables are in the least dtype
    that holds them; a table has |F(n)| rows and at most as many columns
    as the witness tuples that the budget admits."""
    x, space, free = c_operator(subset), subset.space, subset.space.free
    sources = []
    for s0 in dict.fromkeys([AffineSubset.empty(space), AffineSubset.full(space), subset]):
        columns, (first, graphs) = _definable(s0, subset, budget)
        table = _replay(free, free, columns[:, first])
        table = table.astype(np.min_scalar_type(free.size - 1))
        carries = np.zeros(len(first), dtype=bool)
        carries[_carried(x if s0 == subset else c_operator(s0), x, table)[0]] = True
        positions = np.searchsorted(subset._codes, graphs)
        positions = positions.astype(np.min_scalar_type(max(len(subset.points) - 1, 0)))
        sources.append((s0, *map(_frozen, (positions, table, carries))))
    return x, tuple(sources)


@lru_cache(maxsize=128)
def _target_side(y, budget):
    """V(y), and per target companion y1: V(y1) and its arrows' first witnesses."""
    sp, total = y.space, Partition.total(y.space.free.size)
    columns, h = _homs(sp.free, _stable_classes(y), sp, budget)
    targets = tuple((vq_object(y1), _frozen(columns[:, _class_maps(y, y1, h)[0]])) for y1 in
                    dict.fromkeys([y, Relation.identity(sp), Relation.from_partition(sp, total)]))
    return targets[0][0], targets


def verify_adjunction(subset, y, budget=DEFAULT_BUDGET, seed=2026):
    """Count hom(C^q S, y) and hom(S, V(y)), check that Phi (restrict the
    witness-induced map to S) is a bijection between them, and check the
    naturality squares in both coordinates, exhaustively up to 64 cases per
    companion and sampled beyond. A companion's squares are checked at once,
    each side by its own route: Phi of the composite through clone
    composition, read off the sweeps' own tables, the other side through
    graphs. C^q S and the source companions enter as the partitions C(S').
    Sweeps repeat S and y, so work on S or y alone is cached (128 entries):
    the source companions' maps come with their tables and carried verdicts,
    and S, y, C(S) and V(y) keep their derived arrays."""
    space, free = subset.space, subset.space.free
    _require_context(space, y.space, "adjunction needs a common ground and generator")
    space.require_ok(subset.points)
    y.space.require_ok()
    _afford(free, y.space.arity, budget)  # hom(C^q S, y), hom(S, V(y)): before the caches' tests
    (x, sources), (vy, targets) = _source_side(subset, budget), _target_side(y, budget)
    columns, h = _homs(free, x._least, y.space, budget)
    at, _ = _class_maps(x, y, h)  # column of each arrow of the lhs
    _, rhs = _graphs(subset, vy, columns)  # hom(S, V(y)) has the same witness columns

    # phi[j] is the graph of Phi(lhs[j]) over the points of S
    alphas = columns[:, at]
    escape = BijectionFailure("correspondence image left V(y)")
    phi = _images_inside(subset, vy, alphas, escape)
    bijection_ok = sorted(map(tuple, phi.tolist())) == sorted(map(tuple, rhs.tolist()))

    rng = random.Random(seed)

    def sample(count):  # indices of the sampled arrows and into lhs
        n = count * len(at)
        picked = range(n) if n <= 64 else rng.sample(range(n), 64)
        return np.divmod(np.array(picked, dtype=np.int64), max(len(at), 1))

    natural_ok = True
    # vary the source: f: S0 -> S, compare Phi(alpha after C^q f) with
    # Phi(alpha) after f
    for s0, positions, table, carries in sources:
        fi, ai = sample(len(carries))
        if not carries[fi].all():
            raise AssertionFailure("definable map failed to carry the kernel relation")
        left = _images_inside(s0, vy, _compose(table[:, fi], alphas[:, ai]), escape)
        natural_ok &= bool((left == phi[ai[:, None], positions[fi]]).all())
    # vary the target: g: y -> y1, compare Phi(g after alpha) with
    # V^q g after Phi(alpha)
    for vy1, gcolumns in targets:
        gi, ai = sample(gcolumns.shape[1])
        gcols = gcolumns[:, gi]
        left = _images_inside(subset, vy1, _compose(h[:, at[ai]], gcols), escape)
        stray = AssertionFailure("induced map left the target point set")
        graphs = _images_inside(vy, vy1, gcols, stray)
        right = np.take_along_axis(graphs, np.searchsorted(vy._codes, phi[ai]), axis=1)
        natural_ok &= bool((left == right).all())
    return AdjunctionReport(len(at), len(rhs), bijection_ok, natural_ok)


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
    translate = _replay(unary, free, np.arange(free.size)[None])
    p, q = np.array(rel.pairs, dtype=np.int64).reshape(len(rel.pairs), 2).T
    return bool(rel._related[translate[:, p], translate[:, q]].all())


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
