"""The closure correspondence between point sets and element relations.

Everything lives over a GroundSpace (free algebra F on n generators over G,
ground algebra A, evaluation matrix ev). C sends a set of points to the
kernel partition its evaluations induce on F; V sends a relation on F to
the points where all its pairs evaluate equally. radical recomputes C∘V a
second way, one point kernel at a time, so the fixed-point and radical
tests stay independent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import starmap
from operator import ne

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    Homomorphism,
    Partition,
    _chunks,
    _close,
    _digits,
    _encode,
    _frozen,
    _least_members,
    decode_point,
    encode_point,
    is_homomorphism,
    power_algebra,
    product_algebra,
    quotient_algebra,
)
from .errors import (
    AssertionFailure,
    EquivalenceViolation,
    NotACongruence,
    NotInjective,
    ShapeMismatch,
    ValidationError,
)


@dataclass(frozen=True)
class AffineSubset:
    """A subset of A^n, stored as sorted point codes over a ground space."""

    space: object
    points: tuple

    def __post_init__(self):
        last = -1
        for a in self.points:
            if not (isinstance(a, int) and last < a < self.space.npoints):
                raise ValidationError("points must be sorted distinct codes in range")
            last = a

    @classmethod
    def of(cls, space, points):
        return cls(space, tuple(sorted({int(a) for a in points})))

    @classmethod
    def full(cls, space):
        return cls(space, tuple(range(space.npoints)))

    @classmethod
    def empty(cls, space):
        return cls(space, ())

    def decoded(self):
        k = self.space.ground.size
        n = self.space.arity
        return tuple(decode_point(a, k, n) for a in self.points)

    @cached_property
    def _codes(self):
        """The points as a read-only array."""
        return _frozen(np.array(self.points, dtype=np.int64))

    @cached_property
    def _member(self):
        """Whether each point of the space lies in the subset, read-only."""
        member = np.zeros(self.space.npoints, dtype=bool)
        member[self._codes] = True
        return _frozen(member)

    @cached_property
    def _ev(self):
        """The evaluation columns of the points, read-only: ev itself for
        the whole space, which companion objects often are."""
        ev = self.space.ev
        return ev if len(self.points) == self.space.npoints else _frozen(ev[:, self._codes])


@dataclass(frozen=True)
class Relation:
    """A binary relation on the elements of the free algebra: sorted
    distinct ordered pairs of element indices."""

    space: object
    pairs: tuple

    def __post_init__(self):
        m = self.space.free.size
        last = None
        for p in self.pairs:
            a, b = p
            if not (0 <= a < m and 0 <= b < m):
                raise ValidationError("relation pair outside the free algebra")
            if last is not None and not last < p:
                raise ValidationError("pairs must be sorted and distinct")
            last = p

    @cached_property
    def _is_equivalence(self):
        """Whether the relation with the diagonal is an equivalence: it lies
        inside its closure, so when its off-diagonal pairs are as many as
        the closure's, the sum of |B|(|B| - 1) over the closure's blocks B."""
        sizes = np.bincount(rel_closure(self)._least)
        return sum(starmap(ne, self.pairs)) == int((sizes * (sizes - 1)).sum())

    @cached_property
    def _related(self):
        """The relation together with the diagonal, as a read-only boolean
        matrix on the free algebra's elements."""
        related = np.eye(self.space.free.size, dtype=bool)
        related[tuple(np.array(self.pairs, dtype=np.int64).reshape(len(self.pairs), 2).T)] = True
        return _frozen(related)

    @classmethod
    def of(cls, space, pairs):
        return cls(space, tuple(sorted({(int(a), int(b)) for a, b in pairs})))

    @classmethod
    def from_partition(cls, space, part):
        if part.size != space.free.size:
            raise ShapeMismatch("partition does not fit the free algebra")
        pairs = []
        for block in part.blocks():
            for a in block:
                for b in block:
                    if a != b:
                        pairs.append((a, b))
        return cls(space, tuple(sorted(pairs)))

    @classmethod
    def identity(cls, space):
        return cls(space, ())


@lru_cache(maxsize=128)
def rel_closure(rel):
    """The equivalence closure of a relation, as a partition of the free
    algebra's elements."""
    return Partition.from_pairs(rel.space.free.size, rel.pairs)


@dataclass(frozen=True)
class PresentedAlgebra:
    """The free algebra modulo a congruence."""

    space: object
    theta: Partition

    def __post_init__(self):
        falg = self.space.free.as_algebra()
        if self.theta.size != falg.size:
            raise ShapeMismatch("partition does not fit the free algebra")
        if not self.theta.is_congruence_of(falg):
            raise NotACongruence("the partition is not a congruence")

    def quotient(self):
        return quotient_algebra(self.space.free.as_algebra(), self.theta)


# --------------------------------------------------------------------------
# the two closure operators


def c_operator(subset):
    """Common kernel of evaluation at the subset's points: p ~ q iff they
    agree everywhere on the subset. The empty subset gives the total
    partition."""
    space = subset.space
    space.require_ok(subset.points)
    m = space.free.size
    if m == 0:
        return Partition(0, ())
    if not subset.points:
        return Partition.total(m)
    rows = space.ev[:, list(subset.points)]
    _, inverse = np.unique(rows, axis=0, return_inverse=True)
    return Partition.from_labels(int(v) for v in inverse)


def v_operator(rel):
    """Points where every pair of the relation evaluates equally: V of its
    equivalence closure, since evaluating equally is an equivalence. The
    empty relation gives the whole space."""
    return v_of_partition(rel.space, rel_closure(rel))


def v_of_partition(space, part):
    """V of the relation 'same block of part': the one-row case of _v_masks."""
    space.require_ok()
    if part.size != space.free.size:
        raise ShapeMismatch("partition does not fit the free algebra")
    mask = _v_masks(space, part._least[None])[0]
    return AffineSubset.of(space, np.flatnonzero(mask))


def _v_masks(space, rows):
    """V of many congruences, from least-member rows, as bool point masks:
    (ev[rows] == ev).all over the elements, a chunk at a time."""
    ev = space.ev
    return np.concatenate([(ev[chunk] == ev).all(axis=1) for chunk in _chunks(rows, ev.size)])


def _c_rows(space, masks):
    """C of many point sets, from bool point masks, as least-member rows. An
    element's key is its values at the mask's points in radix |A|, (mask *
    |A|**a) @ ev.T; an int64 holds the points of 63 bits, so more points
    take several key columns. Their tuples are ranked by one lexsort and a
    neighbour diff, and _least_members gets the ranks. The rows come in the
    least dtype that holds the elements."""
    ev, base, m = space.ev, space.ground.size, space.free.size
    per = 63 // max((base - 1).bit_length(), 1)
    out = []
    for mask in _chunks(masks, ev.size):
        keys = np.stack([((mask[:, a:a + per] * base ** np.arange(len(ev.T[a:a + per])))
                          @ ev.T[a:a + per]).ravel()
                         for a in range(0, space.npoints or 1, per)], axis=1)
        order = np.lexsort(keys.T)
        keys = keys[order]
        ids = np.empty(len(keys), dtype=np.int64)
        ids[order] = np.cumsum((np.diff(keys, axis=0, prepend=keys[:1]) != 0).any(axis=1))
        out.append(_least_members(ids.reshape(len(mask), m)).astype(np.min_scalar_type(m - 1)))
    return np.concatenate(out)


def zariski_closure(subset):
    """V(C(S)): the closure of a point set."""
    return v_of_partition(subset.space, c_operator(subset))


def point_kernel(space, a):
    """C({a}) directly from one evaluation column."""
    space.require_ok([a])
    return Partition.from_labels(int(v) for v in space.ev[:, a])


def radical_of_partition(space, part):
    """C(V(theta)) computed the second way: meet of the point kernels of
    V(theta), one point at a time."""
    pts = v_of_partition(space, part).points
    acc = Partition.total(space.free.size)
    for a in pts:
        acc = acc.meet(point_kernel(space, a))
    return acc


def radical(rel):
    """The radical of a relation: the congruence of all pairs that evaluate
    equally on V(rel). V(rel) is V of rel's equivalence closure, since
    evaluating equally is an equivalence."""
    return radical_of_partition(rel.space, rel_closure(rel))


# --------------------------------------------------------------------------
# transforms


def gelfand_evaluation(space, point):
    """Evaluation at a point, factored through the quotient by its kernel:
    an injective homomorphism F/C({a}) -> A."""
    if len(point) != space.arity:
        raise ValidationError(
            f"point has {len(point)} coordinates, expected {space.arity}"
        )
    a = encode_point(point, space.ground.size)
    gamma, _, _ = _gelfand_parts(space, a)
    return gamma


def _gelfand_parts(space, a):
    kernel = point_kernel(space, a)
    quot, proj = quotient_algebra(space.free.as_algebra(), kernel)
    reps = kernel._reps
    mapping = tuple(space.ev[reps, a].tolist())
    gamma = Homomorphism(quot, space.ground, mapping)
    if len(set(mapping)) != len(mapping) or not is_homomorphism(gamma):
        raise AssertionFailure("gelfand evaluation failed to embed the quotient")
    return gamma, proj, kernel


def sgk_inverse(presented, e):
    """Recover the point from a presented algebra plus an embedding into the
    ground: read off the images of the generator classes, then check that
    the kernel of evaluation there is exactly the given congruence and that
    e is the evaluation embedding."""
    space = presented.space
    quot, proj = presented.quotient()
    if e.source != quot or e.target != space.ground:
        raise ShapeMismatch("e must go from the presented quotient into the ground")
    if not is_homomorphism(e):
        raise ValidationError("e is not a homomorphism")
    if len(set(e.mapping)) != len(e.mapping):
        raise NotInjective("e is not injective")
    point = tuple(
        e.mapping[presented.theta.labels[space.free.var(i)]]
        for i in range(space.arity)
    )
    a = encode_point(point, space.ground.size)
    gamma, _, kernel = _gelfand_parts(space, a)
    if kernel != presented.theta:
        raise AssertionFailure(
            "kernel at the recovered point differs from the congruence"
        )
    if gamma.mapping != e.mapping:
        raise AssertionFailure("e is not evaluation at the recovered point")
    return point


@dataclass(frozen=True)
class BirkhoffReport:
    sigma: Homomorphism
    iota: Homomorphism
    factors: tuple
    points: tuple


def birkhoff_transform(presented, budget=DEFAULT_BUDGET):
    """The subdirect decomposition map sigma: F/theta -> prod_a F/C({a})
    over a in V(theta), and the pointwise embedding iota of that product
    into A^{V(theta)}."""
    space = presented.space
    theta = presented.theta
    quot, _ = presented.quotient()
    pts = v_of_partition(space, theta).points

    parts = [_gelfand_parts(space, a) for a in pts]
    gammas = [gamma for gamma, _, _ in parts]
    kernels = [kernel for _, _, kernel in parts]
    factors = tuple(gamma.source for gamma in gammas)

    prod = product_algebra(
        factors, signature=space.free.signature, budget=budget
    )
    sizes = [f.size for f in factors]

    # sigma sends theta's block of p to the code of p's kernel classes
    labels = np.array(
        [ker.labels for ker in kernels], dtype=np.int64
    ).reshape(len(pts), theta.size)
    reps = theta._reps
    sigma_map = tuple(_encode(labels[:, reps], sizes).tolist())
    sigma = Homomorphism(quot, prod, sigma_map)
    if not is_homomorphism(sigma):
        raise AssertionFailure("sigma is not a homomorphism")

    # iota sends a product element to the point of its gamma images
    power = power_algebra(space.ground, len(pts), budget=budget)
    images = np.array([
        np.asarray(gamma.mapping)[d] for gamma, d in zip(gammas, _digits(sizes))
    ], dtype=np.int64).reshape(len(pts), prod.size)
    iota_map = tuple(_encode(images, (space.ground.size,) * len(pts)).tolist())
    iota = Homomorphism(prod, power, iota_map)
    if len(set(iota_map)) != len(iota_map):
        raise AssertionFailure("iota failed to be injective")
    if not is_homomorphism(iota):
        raise AssertionFailure("iota is not a homomorphism")

    return BirkhoffReport(sigma=sigma, iota=iota, factors=factors, points=tuple(pts))


# --------------------------------------------------------------------------
# the equivalence


@dataclass(frozen=True)
class NullstellensatzReport:
    fixed: bool
    radical: bool
    subdirect: bool

    @property
    def holds(self):
        return self.fixed


def nullstellensatz_check(presented):
    """Evaluate the three characterizations of 'theta is closed'
    independently and insist they agree:
      fixed      theta == C(V(theta)) by direct signature grouping,
      radical    theta == the meet of point kernels over V(theta),
      subdirect  the decomposition map is injective (it is always a
                 homomorphism onto each factor; injectivity is the content).
    Any disagreement raises EquivalenceViolation."""
    space = presented.space
    theta = presented.theta

    pts = v_of_partition(space, theta).points
    fixed = c_operator(AffineSubset.of(space, pts)) == theta
    rad = radical_of_partition(space, theta) == theta

    kernels = [point_kernel(space, a) for a in pts]
    for ker in kernels:
        if not theta.refines(ker):
            raise AssertionFailure("point kernel fails to contain theta")
    nb = theta.num_blocks
    reps = theta._reps.tolist()
    tuples = set()
    onto = all(
        len({ker.labels[r] for r in reps}) == ker.num_blocks for ker in kernels
    )
    for r in reps:
        tuples.add(tuple(ker.labels[r] for ker in kernels))
    subdirect = len(tuples) == nb and onto

    if not (fixed == rad == subdirect):
        raise EquivalenceViolation(
            f"closed-congruence tests disagree: fixed={fixed}, "
            f"radical={rad}, subdirect={subdirect}"
        )
    return NullstellensatzReport(fixed=fixed, radical=rad, subdirect=subdirect)


# --------------------------------------------------------------------------
# the closed-set landscape of one instance


@dataclass(frozen=True)
class ZariskiReport:
    closed_sets: tuple
    is_topology: bool
    union_closed: bool
    matches_discrete: bool


def _meet_irreducibles(bits):
    """The rows of bits (distinct point sets as bool rows) that are not the
    AND of the rows strictly containing them, the AND of no rows being the
    whole space. Rows are checked 64 at a time against all rows, so the
    temporaries stay at 64 times the rows or the points."""
    lack = (~bits).astype(np.float64)
    keep = np.zeros(len(bits), dtype=bool)
    for lo in range(0, len(bits), 64):
        chunk = bits[lo:lo + 64]
        above = chunk @ lack.T == 0  # above[i, j]: row j contains row lo + i
        above[np.arange(len(chunk)), np.arange(lo, lo + len(chunk))] = False
        keep[lo:lo + 64] = ((above @ lack == 0) != chunk).any(axis=1)
    return bits[keep]


def zariski_report(space, budget=DEFAULT_BUDGET):
    """All closed point sets of the instance, with structure flags.

    The agreement mask of a pair p < q of elements is V({(p, q)}), the
    points where they evaluate equally. V(C(S)) is the intersection of the
    masks that contain S, so the closed sets are exactly the intersections
    of masks, the whole space being the empty one. A mask that is the
    intersection of the masks strictly containing it adds none, so only the
    meet-irreducible masks go to _close under AND; budget bounds the closed
    sets. Unions of closed sets are closed iff a | b is closed for any two
    of those masks, since the union of the intersections of A and of B is
    the intersection of all a | b. Closed sets come sorted by bitmask."""
    space.require_ok()
    npts, ev = space.npoints, space.ev
    rows = set()
    for p in range(1, space.free.size):
        rows.update(map(bytes, ev[:p] == ev[p]))
    bits = np.frombuffer(b"".join(rows), dtype=bool).reshape(len(rows), npts)
    packed = np.packbits(_meet_irreducibles(bits), axis=1, bitorder="little")
    masks = [int.from_bytes(r.tobytes(), "little") for r in packed]

    closed = _close((1 << npts) - 1, masks, int.__and__, budget, "closed sets exceed")
    union_closed = all((a | b) in closed for a in masks for b in masks)
    return ZariskiReport(
        closed_sets=tuple(
            tuple(a for a in range(npts) if mask >> a & 1) for mask in sorted(closed)
        ),
        is_topology=union_closed and 0 in closed,
        union_closed=union_closed,
        matches_discrete=len(closed) == 2 ** npts,
    )
