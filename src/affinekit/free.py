"""Free algebras as clones of term functions, plus evaluation of their
elements in any algebra of the signature.

The free algebra on n generators over G is materialized as the set of all
n-ary term functions G^n -> G, discovered breadth-first: projections first,
then rounds applying each operation (in signature order) to every tuple of
already-known elements (in big-endian index order, operands frozen at the
round start). Each element keeps the first term that produced it, which is
automatically one of minimal depth, together with its recipe: the operation
and the operand indices of that term. The last round finds nothing new, so
the element indices it computes are the operation tables of F(n).

The rounds are semi-naive. A round applies an operation only to the
operand tuples that hold an element new in the previous round, in
big-endian order, a chunk of first operands at a time, and copies the
other entries of its table from the previous round. Every skipped tuple
was applied in an earlier round and gives a known element, so the new
elements, their first terms and their recipes come in the same order as
with full rounds. Candidate rows are held in the least dtype that holds
|G| - 1 and deduplicated within a chunk before the element lookup.

Replaying the recipes in witness order, out[p] = f(out[o1], .., out[or]),
evaluates every element in any algebra of the signature from images of the
generators, over a trailing batch axis. Ground evaluation (the images are
the coordinates of every point of A^n), clone substitution (the images are
elements of another free algebra) and unary translation all go through this
one evaluator. Evaluation at a point a of A^n is well defined exactly when
the replayed column ev[:, a] is a homomorphism F(n) -> A sending each
generator x_i to a_i; it is then the only one, as F(n) is generated by the
x_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    App,
    FiniteAlgebra,
    Homomorphism,
    Var,
    _apply_all,
    _chunks,
    _digits,
    _first_rows,
    _frozen,
    _row_keys,
    _settle,
    _unary_translations,
    encode_point,
    format_term,
)
from .errors import (
    BudgetExceeded,
    NotInVariety,
    SignatureMismatch,
    ValidationError,
    VariableOutOfRange,
)


@dataclass(frozen=True)
class TermFunction:
    """An element of a free algebra: a value table over all points of G^n,
    tagged with one witnessing term (not part of equality)."""

    arity: int
    table: tuple
    witness: object = field(compare=False)

    def term_string(self):
        return format_term(self.witness)


class FreeAlgebra:
    """The clone of n-ary term functions over a generator algebra.

    recipes[p] is (s, operands) when element p was first found as symbol
    number s applied to the elements operands, or (None, (i,)) for x_i;
    tables[s] is the read-only table of symbol number s on element indices,
    of shape (size,) * arity of the symbol."""

    def __init__(self, generator, arity, elements, var_positions, recipes, tables):
        self.generator = generator
        self.arity = arity
        self.elements = elements
        self.var_positions = var_positions
        self._recipes = recipes
        self._tables = tables
        self._np_tables = dict(zip(generator.signature.names, tables))  # as in FiniteAlgebra
        self._algebra = None

    @property
    def size(self):
        return len(self.elements)

    @property
    def signature(self):
        return self.generator.signature

    def index_of_table(self, table):
        key = np.asarray(table, dtype=np.int64).tobytes()
        if key not in self._index:
            raise ValidationError("value table is not a term function here")
        return self._index[key]

    def var(self, i):
        if not 0 <= i < self.arity:
            raise VariableOutOfRange(f"x{i} of {self.arity} generators")
        return self.var_positions[i]

    def table_matrix(self):
        """Element value tables stacked into a read-only array
        (size x |G|^arity)."""
        return self._matrix

    @cached_property
    def _matrix(self):
        return _frozen(np.array([e.table for e in self.elements], dtype=np.int64)
                       .reshape(self.size, self.generator.size ** self.arity))

    @cached_property
    def _index(self):
        return {row.tobytes(): i for i, row in enumerate(self._matrix)}

    def as_algebra(self):
        """A FiniteAlgebra copy on element indices, operations acting
        pointwise, for results that hold one; routines take F(n) itself."""
        if self._algebra is None:
            tables = tuple(tuple(t.ravel().tolist()) for t in self._tables)
            name = f"F_{self.generator.name or 'G'}({self.arity})"
            self._algebra = FiniteAlgebra(self.signature, self.size, tables, name=name)
        return self._algebra

    def witness_term(self, p):
        return self.elements[p].witness

    @cached_property
    def _translations(self):
        return _frozen(_unary_translations(self))

    @cached_property
    def _automorphisms(self):
        """Substitution automorphisms of F(n), invertible definable maps of
        A^n, as a read-only int32 (g, size) table, row i mapping p to
        sigma_i(p). First, once each and other than the identity, the
        transposition (x0 x1), the n-cycle and x0 -> f(x0, x1, ..) for each
        basic operation f of arity >= 1 (variables taken cyclically). Then,
        for p in element order, each x0 -> p (x1.. fixed) that moves some
        element out of its orbit under the rows kept so far.

        All are replayed at once, column 2 + p being x0 -> p. Each permutes
        the variables or fixes x1.., so it is onto, and then a permutation,
        exactly when x0 is among its images. A row kept, or one that moved
        nothing, moves nothing once more rows are kept."""
        n, k = self.arity, self.size
        if not n:  # F(0) holds constants alone, which every map fixes
            return _frozen(np.empty((0, k), dtype=np.int32))
        var, ident = np.array(self.var_positions), np.arange(k, dtype=np.int32)
        subs = np.repeat(var[:, None], k + 2, axis=1)
        subs[:, 0] = var[[1, 0, *range(2, n)]] if n > 1 else var
        subs[:, 1], subs[0, 2:] = np.roll(var, -1), ident
        out = _replay(self, self, subs)
        ok = (out == var[0]).any(axis=0) & (out != ident[:, None]).any(axis=0)
        fs = [table[tuple(var[np.arange(r) % n])]
              for (_, r), table in zip(self.signature.symbols, self._tables) if r]
        first = np.r_[0, 1, 2 + np.array(fs, dtype=np.int64)]
        kept = out[:, first[ok[first]]].T
        kept = [kept[_first_rows(kept)]]
        rep = _settle(ident, np.tile(ident, len(kept[0])), kept[0].ravel())
        while True:
            # rep: the least member of each orbit of the rows kept so far
            moves = np.flatnonzero(ok & (rep[out] != rep[:, None]).any(axis=0))
            if not len(moves):
                return _frozen(np.concatenate(kept).astype(np.int32))
            kept.append(out[:, moves[0]][None])
            rep = _settle(rep, ident, out[:, moves[0]])


def _replay(free, target, images):
    """Every element of free evaluated in target, an algebra of the same
    signature or a FreeAlgebra (on its element indices), from generator
    images of shape (arity, *batch): out[p] has shape batch, by p's recipe."""
    tables = [target._np_tables[sym] for sym in target.signature.names]
    out = np.empty((free.size,) + images.shape[1:], dtype=np.int64)
    for p, (s, operands) in enumerate(free._recipes):
        if s is None:
            out[p] = images[operands[0]]
        else:
            out[p] = tables[s][tuple(out[o] for o in operands)]
    return out


def free_algebra(generator, arity, budget=DEFAULT_BUDGET):
    if generator.size < 1:
        raise ValidationError("generator algebra must have at least one element")
    if arity < 0:
        raise ValidationError("negative arity")
    return _free_cached(generator, arity, budget)


@lru_cache(maxsize=32)
def _free_cached(generator, arity, budget):
    k = generator.size
    npoints = k ** arity
    if npoints > budget:  # before the (arity, npoints) coordinates of _digits
        raise BudgetExceeded(f"free algebra exceeds budget {budget}")
    dtype = np.min_scalar_type(k - 1)
    rows = []
    witnesses = []
    recipes = []
    index = {}  # row bytes -> element index

    def intern(key, row, witness, recipe):
        if key not in index:
            if len(rows) >= budget:
                raise BudgetExceeded(f"free algebra exceeds budget {budget}")
            index[key] = len(rows)
            rows.append(row)
            witnesses.append(witness)
            recipes.append(recipe)
        return index[key]

    var_positions = tuple(
        intern(row.tobytes(), row, Var(i), (None, (i,)))
        for i, row in enumerate(_digits((k,) * arity).astype(dtype))
    )

    last = 0  # elements known before the previous round
    tables = [np.empty((0,) * r, dtype=np.int64) for _, r in generator.signature.symbols]
    while True:
        frozen = len(rows)
        stacked = np.array(rows, dtype=dtype).reshape(frozen, npoints)
        for s, (sym, r) in enumerate(generator.signature.symbols):
            if r == 0:
                row = np.full(npoints, generator.table(sym)[0], dtype=dtype)
                p = intern(row.tobytes(), row, App(sym), (s, ()))
                tables[s] = _frozen(np.array(p))
                continue
            if frozen ** r > budget:
                raise BudgetExceeded(
                    f"operand tuples for {sym!r} exceed budget {budget}"
                )
            table = np.empty((frozen,) * r, dtype=np.int64)
            table[(slice(last),) * r] = tables[s]
            op = generator.np_table(sym).astype(dtype).ravel()
            cells = np.min_scalar_type(k ** r - 1)
            # tuple codes first * width + rest; fresh: some operand >= last
            width = frozen ** (r - 1)
            rest = _digits((frozen,) * (r - 1))
            rest_fresh = (rest >= last).any(axis=0)
            for firsts in _chunks(np.arange(frozen), width * npoints):
                codes = np.flatnonzero(rest_fresh | (firsts >= last)[:, None])
                operands = (firsts[codes // width], *rest[:, codes % width])
                cell = stacked[operands[0]].astype(cells)
                for o in operands[1:]:
                    cell = cell * k + stacked[o]
                cand = op.take(cell)
                uniq, first, inverse = np.unique(
                    _row_keys(cand), return_index=True, return_inverse=True
                )
                ids = [index.get(key) for key in uniq.tolist()]
                # new elements in the order of their first tuple
                for u in sorted((u for u, p in enumerate(ids) if p is None),
                                key=first.__getitem__):
                    g = first[u]
                    args = tuple(int(o[g]) for o in operands)
                    witness = App(sym, tuple(witnesses[o] for o in args))
                    ids[u] = intern(uniq[u].tobytes(), cand[g].copy(), witness, (s, args))
                table.ravel()[firsts[0] * width + codes] = np.array(ids)[inverse]
            tables[s] = _frozen(table)
        if len(rows) == frozen:
            break
        last = frozen

    elements = tuple(
        TermFunction(arity, tuple(row.tolist()), wit)
        for row, wit in zip(rows, witnesses)
    )
    return FreeAlgebra(
        generator, arity, elements, var_positions, tuple(recipes), tuple(tables)
    )


# --------------------------------------------------------------------------
# evaluation over a ground algebra


class GroundSpace:
    """A free algebra together with a ground algebra and the full evaluation
    matrix: ev[p, a] is the value of element p at the point of A^n coded a.
    point_ok[a] says whether evaluation at a is well defined. Both arrays
    are read-only."""

    def __init__(self, free, ground, ev, point_ok):
        self.free = free
        self.ground = ground
        self.ev = ev
        self.point_ok = point_ok

    @property
    def arity(self):
        return self.free.arity

    @property
    def npoints(self):
        return self.ground.size ** self.free.arity

    @property
    def ok(self):
        return bool(self.point_ok.all())

    def require_ok(self, points=None):
        points = None if points is None else list(points)
        if points and not 0 <= min(points) <= max(points) < self.npoints:
            raise ValidationError(f"point codes must lie in 0..{self.npoints - 1}")
        pts = np.arange(self.npoints) if points is None else np.array(points, dtype=np.int64)
        bad = pts[~self.point_ok[pts]].tolist()
        if bad:
            raise NotInVariety(
                f"evaluation not well defined at point(s) {bad[:5]} of the ground"
            )

    def column(self, a):
        return tuple(int(v) for v in self.ev[:, a])


def ground_space(generator, ground, arity, budget=DEFAULT_BUDGET):
    if ground.signature != generator.signature:
        raise SignatureMismatch("ground and generator have different signatures")
    return _ground_cached(generator, ground, arity, budget)


@lru_cache(maxsize=32)
def _ground_cached(generator, ground, arity, budget):
    free = free_algebra(generator, arity, budget)
    if ground.size ** arity > budget:
        raise BudgetExceeded(f"ground points exceed budget {budget}")
    coords = _digits((ground.size,) * arity)
    ev = _replay(free, ground, coords)
    # column a is a homomorphism sending x_i to a_i: check the generators,
    # then every operation on every operand tuple, a chunk of first
    # operands at a time
    point_ok = np.ones(coords.shape[1], dtype=bool)
    for i, p in enumerate(free.var_positions):
        point_ok &= ev[p] == coords[i]
    for (sym, r), table in zip(generator.signature.symbols, free._tables):
        op = ground.np_table(sym)
        if r == 0:
            point_ok &= ev[table] == op[()]
            continue
        for firsts in _chunks(np.arange(free.size), free.size ** (r - 1) * ev.shape[1]):
            agree = ev[table[firsts]] == _apply_all(op, ev, r, first=ev[firsts])
            point_ok &= agree.all(axis=tuple(range(r)))
    return GroundSpace(free, ground, _frozen(ev), _frozen(point_ok))


def verify_ground(ground, generator, arity, budget=DEFAULT_BUDGET):
    """Is evaluation of every free element well defined at every point of
    ground^arity? True exactly when every column of the witness-order
    evaluation is a homomorphism F(n) -> ground sending x_i to the point's
    i-th coordinate."""
    return ground_space(generator, ground, arity, budget).ok


def point_evaluation_hom(free, ground, point, budget=DEFAULT_BUDGET):
    """Evaluation-at-a-point as a homomorphism from the free algebra."""
    if len(point) != free.arity:
        raise VariableOutOfRange(
            f"point has {len(point)} coordinates, free algebra has {free.arity}"
        )
    for x in point:
        if not 0 <= x < ground.size:
            raise ValidationError(f"coordinate {x} outside ground carrier")
    gs = ground_space(free.generator, ground, free.arity, budget)
    code = encode_point(point, ground.size)
    gs.require_ok([code])
    return Homomorphism(free.as_algebra(), ground, gs.column(code))


def enumerate_homs_free(free, target, budget=DEFAULT_BUDGET):
    """All homomorphisms from a free algebra into target, one per point of
    target^arity (in point-code order). Raises NotInVariety when any
    assignment fails to extend."""
    gs = ground_space(free.generator, target, free.arity, budget)
    gs.require_ok()
    falg = free.as_algebra()
    return tuple(
        Homomorphism(falg, target, gs.column(a)) for a in range(gs.npoints)
    )


def substitute(free_src, p, images, free_dst):
    """Clone composition: the element of free_dst obtained by substituting
    images (elements of free_dst, one per generator of free_src) into p.
    For an array-like p of element indices it is the array of their images.

    This is the action of the homomorphism free_src -> free_dst determined
    by the generator images.
    """
    if free_src.generator != free_dst.generator:
        raise SignatureMismatch("substitution across different generators")
    if len(images) != free_src.arity:
        raise VariableOutOfRange(
            f"{len(images)} images for {free_src.arity} generators"
        )
    images = np.asarray(images, dtype=np.int64)
    out = _replay(free_src, free_dst, images)[np.asarray(p, dtype=np.int64)]
    return int(out) if out.ndim == 0 else out
