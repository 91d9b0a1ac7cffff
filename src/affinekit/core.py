"""Finite algebras: signatures, terms, partitions, homomorphisms, and the
basic constructions (subuniverse, power, quotient, congruence generation,
full congruence lattice).

Elements of an algebra of size k are always 0..k-1. Operation tables are
flat tuples in row-major order: the entry for arguments (a0, .., a_{r-1})
sits at index a0*k^(r-1) + .. + a_{r-1}, i.e. the first argument is the
most significant digit. Points of a power A^n use the same big-endian
encoding, so tables, power carriers and product carriers all agree.
_digits and _encode are the one place these codes are computed over
arrays, for any radices: no radices give the one empty code, which is how
constants take the same path as every other arity. encode_point and
decode_point are their scalar forms for a single point. _apply_all applies
an operation table to every tuple of operands at once, in the same order.

What reads an algebra's operations reads only size, signature, _np_tables
(symbol -> array of shape (size,) * arity) and the cached _translations
and _automorphisms (where present), so a free.FreeAlgebra goes in as itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import prod

import numpy as np

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    NotACongruence,
    ShapeMismatch,
    SignatureMismatch,
    UnknownSymbol,
    ValidationError,
    VariableOutOfRange,
)

DEFAULT_BUDGET = 10 ** 6
_CHUNK = 1 << 18  # entries per temporary array in the sweeps over many rows


def _frozen(array):
    """Mark an array read-only; cached results are shared by every caller."""
    array.flags.writeable = False
    return array


def encode_point(point, size):
    """Big-endian mixed-radix code of a tuple over 0..size-1."""
    code = 0
    for a in point:
        code = code * size + a
    return code


def decode_point(code, size, arity):
    out = [0] * arity
    for i in range(arity - 1, -1, -1):
        out[i] = code % size
        code //= size
    return tuple(out)


def _digits(sizes):
    """The big-endian digits of every code below prod(sizes) in radices
    sizes, as a (len(sizes), prod(sizes)) table: column c holds code c."""
    return np.indices(sizes, dtype=np.int64).reshape(len(sizes), prod(sizes))


def _encode(digits, sizes):
    """The codes in radices sizes of the digit columns of digits, an array
    of shape (len(sizes), *shape); the inverse of _digits."""
    code = np.zeros(digits.shape[1:], dtype=np.int64)
    for d, size in zip(digits, sizes):
        code = code * size + d
    return code


def _apply_all(table, values, r, first=None):
    """An r-ary operation table applied to every r-tuple of rows of values
    (shape (m, *batch)): entry [p1, .., pr] is table[values[p1], .., values[pr]].
    Given first, p1 runs over the rows of first instead."""
    operands = [
        values.reshape((1,) * j + (len(values),) + (1,) * (r - 1 - j) + values.shape[1:])
        for j in range(r)
    ]
    if first is not None:
        operands[0] = first.reshape((len(first),) + (1,) * (r - 1) + values.shape[1:])
    return table[tuple(operands)]


def _chunks(items, width):
    """items in consecutive slices of about _CHUNK entries, width per item."""
    step = max(1, _CHUNK // max(width, 1))
    return [items[lo:lo + step] for lo in range(0, len(items), step)]


# --------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple = ()


def format_term(t):
    if isinstance(t, Var):
        return f"x{t.index}"
    if not t.args:
        return t.symbol
    return f"{t.symbol}({', '.join(format_term(a) for a in t.args)})"


# --------------------------------------------------------------------------
# signatures and algebras


@dataclass(frozen=True)
class Signature:
    """Ordered operation symbols with arities. Order is meaningful: it
    drives every canonical enumeration downstream."""

    symbols: tuple

    def __post_init__(self):
        names = [s for s, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate operation symbols in {names}")
        for s, r in self.symbols:
            if r < 0:
                raise ValidationError(f"negative arity for {s!r}")
            if r > 63:  # numpy takes at most 63 index arrays and 64 dimensions
                raise ValidationError(f"arity {r} of {s!r} exceeds 63")

    def arity(self, name):
        for s, r in self.symbols:
            if s == name:
                return r
        raise UnknownSymbol(f"no operation named {name!r}")

    @property
    def names(self):
        return tuple(s for s, _ in self.symbols)

    def has_constants(self):
        return any(r == 0 for _, r in self.symbols)


@dataclass(frozen=True)
class FiniteAlgebra:
    """An algebra on carrier {0..size-1} given by flat operation tables,
    one per signature symbol, in signature order."""

    signature: Signature
    size: int
    tables: tuple
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.size < 0:
            raise ValidationError("negative carrier size")
        if len(self.tables) != len(self.signature.symbols):
            raise ValidationError("one table per signature symbol required")
        for (sym, r), tab in zip(self.signature.symbols, self.tables):
            if self.size == 0:
                if r == 0:
                    raise ValidationError(
                        f"constant {sym!r} cannot live on an empty carrier"
                    )
                if len(tab) != 0:
                    raise ValidationError(f"table for {sym!r} must be empty")
                continue
            if len(tab) != self.size ** r:
                raise ValidationError(
                    f"table for {sym!r} has {len(tab)} entries, "
                    f"wanted {self.size ** r}"
                )
            for v in tab:
                if not 0 <= v < self.size:
                    raise ValidationError(f"table entry {v} for {sym!r} out of range")

    @classmethod
    def make(cls, size, ops, name=""):
        """ops: iterable of (symbol, arity, flat table) in the intended order."""
        sig = Signature(tuple((s, r) for s, r, _ in ops))
        return cls(sig, size, tuple(tuple(t) for _, _, t in ops), name=name)

    def table(self, name):
        for (s, _), tab in zip(self.signature.symbols, self.tables):
            if s == name:
                return tab
        raise UnknownSymbol(f"no operation named {name!r}")

    def op(self, name, args=()):
        r = self.signature.arity(name)
        if len(args) != r:
            raise ArityMismatch(f"{name!r} expects {r} arguments, got {len(args)}")
        return self.table(name)[encode_point(args, self.size)]

    @cached_property
    def _np_tables(self):
        out = {}
        for (s, r), tab in zip(self.signature.symbols, self.tables):
            out[s] = np.asarray(tab, dtype=np.int64).reshape((self.size,) * r)
        return out

    @cached_property
    def _translations(self):
        return _frozen(_unary_translations(self))

    def np_table(self, name):
        if name not in self._np_tables:
            raise UnknownSymbol(f"no operation named {name!r}")
        return self._np_tables[name]


def evaluate_term(alg, term, env):
    """Evaluate a term at an assignment env: tuple of carrier elements."""
    if isinstance(term, Var):
        if not 0 <= term.index < len(env):
            raise VariableOutOfRange(
                f"x{term.index} with only {len(env)} variables in scope"
            )
        return env[term.index]
    r = alg.signature.arity(term.symbol)
    if len(term.args) != r:
        raise ArityMismatch(
            f"{term.symbol!r} expects {r} arguments, got {len(term.args)}"
        )
    args = tuple(evaluate_term(alg, a, env) for a in term.args)
    return int(alg._np_tables[term.symbol][args])


def generate_subuniverse(alg, seeds):
    """Smallest subuniverse containing seeds, in canonical discovery order:
    sorted seeds first, then breadth-first rounds applying operations in
    signature order to tuples (in big-endian index order) over the elements
    known at the start of the round."""
    for s in seeds:
        if not 0 <= s < alg.size:
            raise ValidationError(f"seed {s} outside carrier")
    found = sorted(set(seeds))
    seen = set(found)
    while True:
        frozen = len(found)
        known = np.array(found, dtype=np.int64)
        for sym, r in alg.signature.symbols:
            for v in _apply_all(alg.np_table(sym), known, r).ravel().tolist():
                if v not in seen:
                    found.append(v)
                    seen.add(v)
        if len(found) == frozen:
            return tuple(found)


# --------------------------------------------------------------------------
# partitions


# The array routines for partitions work on least-member arrays: rep[x] is
# the least element of x's block.


def _pair_arrays(size, pairs):
    """The pairs as two index arrays, each pair checked against the carrier."""
    pairs = [tuple(p) for p in pairs]
    for a, b in pairs:
        if not (0 <= a < size and 0 <= b < size):
            raise ValidationError(f"pair ({a}, {b}) outside carrier")
    return np.array(pairs, dtype=np.int64).reshape(-1, 2).T


def _least_members(labels):
    """The least-member array of labels 0..n-1, or the least-member rows of
    a 2-D array of any labels, after numbering the (row, label) pairs."""
    lab = np.asarray(labels, dtype=np.int64)
    if lab.ndim == 1:
        return np.unique(lab, return_index=True)[1][lab]
    off = np.arange(len(lab))[:, None] * lab.shape[1]
    pairs = np.unique(off * (lab.max(initial=0) + 1) + lab, return_inverse=True)[1]
    return _least_members(pairs.ravel()).reshape(lab.shape) - off


def _row_keys(rows):
    """One void key per row of a 2-D array: equal keys, equal rows. Rows
    of no columns are all the empty row, and share one key."""
    rows = np.ascontiguousarray(rows) if rows.shape[1] else np.zeros((len(rows), 1), np.uint8)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _ordered_keys(rows):
    """_row_keys of the rows made big-endian, which sort as the rows do column
    by column: np.unique of them orders as np.unique(rows, axis=0), faster."""
    return _row_keys(rows.astype(rows.dtype.newbyteorder(">"), copy=False))


def _row_least(rows):
    """Least members of equal rows of a 2-D array: the first j with row i's row."""
    _, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    return first[inverse]


def _first_rows(rows):
    """The index of the first of each distinct row of a 2-D array, in
    increasing order: the fixed points of _row_least, without its inverse."""
    if len(rows) > 1:
        return np.sort(np.unique(_row_keys(rows), return_index=True)[1])
    return np.arange(len(rows))


def _representatives(rep):
    """The least member of each block, in increasing order, from the
    least-member array rep: its fixed points."""
    return np.flatnonzero(rep == np.arange(len(rep)))


def _labels(rep):
    """Normalized labels of least-member rows: x's counts the least members below x's."""
    return np.take_along_axis(np.cumsum(rep == np.arange(rep.shape[-1]), axis=-1) - 1,
                              rep, axis=-1)


def _partitions(rows):
    """The Partitions of least-member rows, labelled a chunk at a time."""
    k = rows.shape[1]
    return tuple(Partition(k, tuple(lab))
                 for chunk in _chunks(rows, k) for lab in _labels(chunk).tolist())


def _settle(rep, a, b):
    """The join of the partition rep with the pairs (a[i], b[i]): hook the
    larger representative of each split pair onto the smaller one until
    every pair lies in one block."""
    while True:
        ra, rb = rep[a], rep[b]
        split = ra != rb
        if not split.any():
            return rep
        hook = np.arange(len(rep), dtype=rep.dtype)
        np.minimum.at(hook, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])
        while not np.array_equal(hook[hook], hook):
            hook = hook[hook]
        rep = hook[rep]


@dataclass(frozen=True)
class Partition:
    """A partition of {0..size-1} in normalized form: block labels are
    assigned by least member, so equal partitions are equal tuples."""

    size: int
    labels: tuple

    def __post_init__(self):
        if len(self.labels) != self.size:
            raise ValidationError("label vector length differs from size")
        firsts = list(dict.fromkeys(self.labels))
        if firsts != list(range(len(firsts))):
            raise ValidationError("labels not normalized; use Partition.from_labels")

    @classmethod
    def from_labels(cls, raw):
        raw = list(raw)
        number = {lab: i for i, lab in enumerate(dict.fromkeys(raw))}
        return cls(len(raw), tuple(map(number.get, raw)))

    @classmethod
    def from_pairs(cls, size, pairs):
        return _partitions(_settle(np.arange(size), *_pair_arrays(size, pairs))[None])[0]

    @classmethod
    def identity(cls, size):
        return cls(size, tuple(range(size)))

    @classmethod
    def total(cls, size):
        return cls(size, (0,) * size)

    @property
    def num_blocks(self):
        return max(self.labels) + 1 if self.labels else 0

    @cached_property
    def _least(self):
        """The least-member array of the labels, read-only."""
        return _frozen(_least_members(self.labels))

    @cached_property
    def _reps(self):
        """The least member of each block, in increasing order, read-only."""
        return _frozen(_representatives(self._least))

    def blocks(self):
        out = [[] for _ in range(self.num_blocks)]
        for i, lab in enumerate(self.labels):
            out[lab].append(i)
        return tuple(tuple(b) for b in out)

    def together(self, a, b):
        return self.labels[a] == self.labels[b]

    def refines(self, other):
        """Every element in other's block of its least member in self."""
        if other.size != self.size:
            raise ShapeMismatch("partitions of different sets")
        return bool(np.array_equal(other._least[self._least], other._least))

    def meet(self, other):
        if other.size != self.size:
            raise ShapeMismatch("partitions of different sets")
        return Partition.from_labels(list(zip(self.labels, other.labels)))

    def join(self, other):
        """One _settle of self's least members with (x, other's least member of x)."""
        if other.size != self.size:
            raise ShapeMismatch("partitions of different sets")
        return _partitions(_settle(self._least, np.arange(self.size), other._least)[None])[0]

    def is_congruence_of(self, alg):
        """Compatible with every operation of alg?"""
        if alg.size != self.size:
            raise ShapeMismatch("partition size differs from carrier size")
        lab = np.asarray(self.labels, dtype=np.int64)
        for sym, r in alg.signature.symbols:
            t = alg._np_tables[sym]
            if not np.array_equal(lab[t], lab[_apply_all(t, self._least, r)]):
                return False
        return True


# --------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple

    def __call__(self, x):
        return self.mapping[x]

    def compose(self, inner):
        """self after inner."""
        if inner.target != self.source:
            raise ShapeMismatch("composition endpoints do not match")
        return Homomorphism(
            inner.source, self.target, tuple(self.mapping[x] for x in inner.mapping)
        )


def is_homomorphism(h):
    """Check h.mapping respects every operation. SignatureMismatch if the
    two algebras speak different signatures."""
    if h.source.signature != h.target.signature:
        raise SignatureMismatch("source and target have different signatures")
    if len(h.mapping) != h.source.size:
        raise ShapeMismatch("mapping length differs from source carrier")
    for v in h.mapping:
        if not 0 <= v < h.target.size:
            raise ShapeMismatch(f"image {v} outside target carrier")
    m = np.asarray(h.mapping, dtype=np.int64)
    for sym, r in h.source.signature.symbols:
        if not np.array_equal(m[h.source.np_table(sym)],
                              _apply_all(h.target.np_table(sym), m, r)):
            return False
    return True


# --------------------------------------------------------------------------
# powers, products, quotients


def product_algebra(factors, signature=None, budget=DEFAULT_BUDGET):
    """Direct product with big-endian coding (first factor most significant).
    An empty product is the one-element algebra, which is why the signature
    must be supplied when factors is empty."""
    factors = tuple(factors)
    if factors:
        signature = factors[0].signature
        for f in factors[1:]:
            if f.signature != signature:
                raise SignatureMismatch("product factors disagree on signature")
    elif signature is None:
        raise ValidationError("empty product needs an explicit signature")

    sizes = [f.size for f in factors]
    total = 1
    for size in sizes:
        total *= size
        if total > budget:
            raise BudgetExceeded(f"product carrier exceeds budget {budget}")

    digits = _digits(sizes)  # coordinates of each code
    tables = []
    for sym, r in signature.symbols:
        if total ** r > budget:
            raise BudgetExceeded(f"product table for {sym!r} exceeds budget {budget}")
        columns = np.array([_apply_all(f.np_table(sym), d, r) for f, d in zip(factors, digits)],
                           dtype=np.int64).reshape(len(factors), total ** r)
        tables.append(tuple(_encode(columns, sizes).tolist()))
    return FiniteAlgebra(
        signature, total, tuple(tables), name="" if factors else "trivial"
    )


def power_algebra(alg, n, budget=DEFAULT_BUDGET):
    """alg^n; for n = 0 the one-element algebra."""
    if n < 0:
        raise ValidationError("negative power")
    return product_algebra([alg] * n, signature=alg.signature, budget=budget)


def generate_congruence(alg, pairs):
    """Smallest congruence containing the pairs: the one-row case of the
    closure that all_congruences runs."""
    a, b = _pair_arrays(alg.size, pairs)
    if alg.size == 0:
        return Partition(0, ())
    return _partitions(_closure(alg._translations, a, b, 1))[0]


def quotient_algebra(alg, part):
    """Quotient by a congruence; returns (quotient, canonical projection)."""
    if part.size != alg.size:
        raise ShapeMismatch("partition size differs from carrier size")
    if not part.is_congruence_of(alg):
        raise NotACongruence("partition is not compatible with the operations")
    lab = np.asarray(part.labels, dtype=np.int64)
    reps = part._reps
    tables = tuple(
        tuple(lab[_apply_all(alg.np_table(sym), reps, r)].ravel().tolist())
        for sym, r in alg.signature.symbols
    )
    quot = FiniteAlgebra(alg.signature, len(reps), tables)
    proj = Homomorphism(alg, quot, part.labels)
    return quot, proj


@dataclass(frozen=True)
class SubdirectReport:
    injective: bool
    onto_each_factor: tuple


def is_subdirect_embedding(h, factors):
    """Is h a subdirect embedding into the direct product of factors?
    h.target must literally be that product."""
    factors = tuple(factors)
    expected = product_algebra(
        factors, signature=h.source.signature if not factors else None
    )
    if h.target != expected:
        raise ShapeMismatch("target of h is not the product of the factors")
    if not is_homomorphism(h):
        raise ShapeMismatch("h is not a homomorphism")
    injective = len(set(h.mapping)) == len(h.mapping)
    coords = _digits([f.size for f in factors])[:, list(h.mapping)]
    onto = tuple(len(set(c.tolist())) == f.size for f, c in zip(factors, coords))
    return SubdirectReport(injective=injective, onto_each_factor=onto)


# --------------------------------------------------------------------------
# the full congruence lattice


def _unary_translations(alg):
    """A generating set of the basic translations x -> f(c1,..,x,..,cr),
    one column of images per map: row x lists the images of x. A partition
    closed under s and t is closed under s o t, so closure under any set
    generating their monoid makes a congruence. Of the distinct ones other
    than the identity, taken by rank (number of images) from the lowest,
    each equal to s o t for maps s, t still kept, neither one itself, is
    dropped. Candidate factors come from fingerprints, fp(f) = sum of w[x]
    f(x) and fp(s o t) = sum of s(y) pre_t(y), pre_t(y) the weight of t's
    preimage of y, and are checked in full. The fingerprints are float64
    products, so they run through BLAS; they are exact while k**3 * 2**20 <
    2**53, and above that a rounding miss only keeps a map that could have
    been dropped."""
    k = alg.size
    ident = np.arange(k, dtype=np.min_scalar_type(k - 1))
    rows = np.concatenate([ident[None], *(
        np.moveaxis(alg._np_tables[s], pos, -1).reshape(-1, k)
        for s, r in alg.signature.symbols for pos in range(r)
    )], dtype=ident.dtype, casting="unsafe")
    rows = rows[np.unique(_ordered_keys(rows), return_index=True)[1]]
    rows = rows[(rows != ident).any(axis=1)]
    m = len(rows)
    w = np.arange(1, k + 1) ** 2 * 40503 % 1048573
    pre = np.array([np.bincount(row, w, k) for row in rows]).reshape(m, k)
    fp = pre @ np.arange(k, dtype=np.float64)
    order = np.argsort(fp)
    # owner[low bits of fp(i)] = i; m where no fingerprint has those bits and
    # m + 1 where several do (fpx is NaN at both, equal to nothing): only
    # values landing on m + 1 go through searchsorted
    mask = (1 << (16 * m).bit_length()) - 1
    low = fp.astype(np.int64) & mask
    owner = np.full(mask + 1, m, dtype=np.int32)
    owner[low] = np.arange(m)
    owner[np.bincount(low, minlength=mask + 1) > 1] = m + 1
    fpx = np.append(fp, [np.nan, np.nan])
    hits = [np.empty(0, dtype=np.int64)]  # (i*m + s)*m + t where fp(s o t) = fp(i)
    for lo in range(0, m, 64):
        comp = rows[lo:lo + 64].astype(np.float64) @ pre.T
        key = comp.astype(np.int64)
        at = owner[np.bitwise_and(key, mask, out=key)]
        s, t = np.nonzero(fpx[at] == comp)
        i = at[s, t].astype(np.int64)
        cs, ct = np.nonzero(at == m + 1)
        ci = order[np.searchsorted(fp[order], comp[cs, ct]) % m]
        found = fp[ci] == comp[cs, ct]
        s, t, i = np.r_[s, cs[found]] + lo, np.r_[t, ct[found]], np.r_[i, ci[found]]
        hits.append(((i * m + s) * m + t)[(s != i) & (t != i)])
    hits = np.sort(np.concatenate(hits))
    bounds = np.searchsorted(hits, np.arange(m + 1) * m * m)
    keep = np.ones(m, dtype=bool)
    rank = (np.diff(np.sort(rows, axis=1), axis=1) != 0).sum(axis=1)
    for x in np.argsort(rank, kind="stable"):
        s, t = np.divmod(hits[bounds[x]:bounds[x + 1]] % (m * m), m)
        kept = np.flatnonzero(keep[s] & keep[t])
        keep[x] = not any((rows[s[j]][rows[t[j]]] == rows[x]).all() for j in kept)
    return np.ascontiguousarray(rows[keep].T, dtype=np.int32)


def _closure(images, x, y, rows, known=None):
    """The least congruences holding the pairs (x[j], y[j]) for rows
    partitions at once, as a (rows, k) array of least-member rows; row i is
    at offset i*k of one flat least-member array, and x, y are flat.

    Freese's worklist closure: a round maps every pushed pair of every live
    row through every translation (a column of images) and joins the image
    pairs in, then pushes one pair (new rep, root) per block of the
    partition before that join that merged. With that partition these span
    the new one, so a row ends as the equivalence closure of pairs whose
    images it holds: a congruence.

    known = (reps, blocks, of_pair) gives the distinct principal congruences
    found so far as least-member rows, their block counts, and at a*k + b
    the row of Cg(a, b) or -1. Each row then holds one pair p, and Cg(p) is
    the equivalence closure of p and every Cg(t(p)): each round joins the
    coarsest known Cg(t(p)) among a row's image pairs whole, and does not
    push the image pairs it holds. A row that has reached Cg(p) maps every
    pushed pair into itself, so it stops one round later."""
    k = len(images)
    reps, blocks, of_pair = known or (np.empty((0, k), dtype=np.int32),) * 3
    ident = np.arange(rows * k, dtype=np.int32)
    rep = _settle(ident.copy(), x, y)
    if len(reps):
        rank = blocks * len(reps) + np.arange(len(reps))
    while len(x):
        off = (x - x % k)[:, None]
        u, v = (images[x % k] + off).ravel(), (images[y % k] + off).ravel()
        split = rep[u] != rep[v]
        u, v = u[split], v[split]
        if len(reps):
            row, found = u // k, of_pair[np.minimum(u, v) % k * k + np.maximum(u, v) % k]
            hit = found >= 0
            best = np.full(rows, rank.max() + 1)
            np.minimum.at(best, row[hit], rank[found[hit]])
            jr = np.flatnonzero(best <= rank.max())
            jf = best[jr] % len(reps)
            e, j = np.nonzero(reps[jf] != np.arange(k))
            rep = _settle(rep, jr[e] * k + j, jr[e] * k + reps[jf[e], j])
            rest = ~hit | (rank[found] != best[row])
            u, v = u[rest], v[rest]
        before = rep
        rep = _settle(rep, u, v)
        y = np.flatnonzero((rep != before) & (before == ident))
        x = rep[y]
    return rep.reshape(rows, k) - ident[::k, None]


def _principals(alg, budget):
    """The distinct principal congruences Cg(a, b) of alg, a < b, as rows
    of least-member arrays in order of discovery; a generating pair (a, b)
    of each row; and of_pair, which holds the row of Cg(a, b) at a*k + b.

    The pairs of one b whose row is still unknown are settled together.
    For every translation t, Cg(t(a), t(b)) is within Cg(a, b), so a known
    Cg(t(a), t(b)) that holds (a, b) is Cg(a, b): round 0 settles such a
    pair with no closure. The other pairs go to one _closure call with a
    row each. BudgetExceeded when the principals outgrow budget.

    The automorphisms of alg, as rows of images, fill of_pair by orbits:
    sigma Cg(a, b) = Cg(sigma a, sigma b) is Cg(a, b) read through sigma^-1.
    Each new row is moved by every generator (acts[r, i]: row r moved by
    gens[i]), and an unknown image joins the rows with its pair moved. The
    pairs settled for b, and those they fill, are then pushed through every
    generator a level at a time until nothing new is filled. A level keeps
    one copy of each pair it fills by a scatter of marks into of_pair, with
    no sort: every copy carries the same row. A FreeAlgebra gives its
    substitution automorphisms; a FiniteAlgebra gives none, the plain route."""
    k = alg.size
    images = alg._translations
    gens = getattr(alg, "_automorphisms", np.empty((0, k), dtype=np.int32))
    inverse, g = np.argsort(gens, axis=1), len(gens)
    reps, index = np.empty((0, k), dtype=np.int32), {}
    blocks = np.empty(0, dtype=np.int64)
    pairs = np.empty((0, 2), dtype=np.int64)
    of_pair = np.full(k * k, -1, dtype=np.int32)
    acts = np.empty((0, g), dtype=np.int32)

    def intern(cg, cg_pairs):
        """The rows of cg, adding the new ones with their sorted generating pairs."""
        nonlocal reps, blocks, pairs
        ids = np.array([index.setdefault(rep.tobytes(), len(index)) for rep in cg], np.int64)
        if len(index) > budget:
            raise BudgetExceeded(f"congruence lattice exceeds budget {budget}")
        if len(index) > len(reps):
            rows, first = np.unique(ids, return_index=True)
            new = first[rows >= len(reps)]
            reps = np.vstack([reps, cg[new]])
            blocks = np.append(blocks, (cg[new] == np.arange(k)).sum(axis=1))
            pairs = np.vstack([pairs, np.sort(cg_pairs[new], axis=1)])
        return ids

    for b in range(1, k):
        a = np.flatnonzero(of_pair[b:b * k:k] < 0)
        if not len(a):
            continue
        # the known rows of the translates (t(a), t(b)), -1 where unknown;
        # every one that holds (a, b) is the same row, Cg(a, b)
        lo, hi = np.minimum(images[a], images[b]), np.maximum(images[a], images[b])
        known = of_pair[lo * k + hi]
        hit = known >= 0
        hit[hit] = reps[known[hit], a[hit.nonzero()[0]]] == reps[known[hit], b]
        row = np.where(hit, known, -1).max(axis=1, initial=-1)
        settled = row >= 0
        of_pair[a[settled] * k + b] = row[settled]
        rest = a[~settled]
        if len(rest):
            off = np.arange(len(rest)) * k
            cg = _closure(images, off + rest, off + b, len(rest), (reps, blocks, of_pair))
            of_pair[rest * k + b] = intern(cg, np.stack([rest, np.full(len(rest), b)], axis=1))
        if not g:
            continue
        while len(acts) < len(reps):
            # least[i*k + x]: the least member of block x of image i
            lab = (reps[len(acts):, inverse].reshape(-1, k)
                   + np.arange(0, (len(reps) - len(acts)) * g * k, k)[:, None]).ravel()
            least = np.full(lab.size, k, dtype=np.int32)
            np.minimum.at(least, lab, np.arange(lab.size, dtype=np.int32) % k)
            ids = intern(least[lab].reshape(-1, k),
                         gens[:, pairs[len(acts):]].swapaxes(0, 1).reshape(-1, 2))
            acts = np.vstack([acts, ids.reshape(-1, g)])
        c = a * k + b
        while len(c):
            # the pairs of c moved by every generator, as sorted codes
            x, y = gens[:, c // k], gens[:, c % k]
            code = (np.minimum(x, y) * k + np.maximum(x, y)).ravel()
            fresh = np.flatnonzero(of_pair[code] < 0)
            code, row = code[fresh], acts[of_pair[c]].T.ravel()[fresh]
            # the copy of each pair whose mark stays goes on to the next level
            mark = -2 - np.arange(len(code), dtype=np.int32)
            of_pair[code] = mark
            c = code[of_pair[code] == mark]
            of_pair[code] = row
    return reps, pairs, of_pair


def _join_irreducibles(reps, pairs):
    """The indices, ascending, of the rows of reps (distinct principal
    congruences, row j generated by pairs[j]) that are not the join of the
    rows strictly below them. Row j lies within row i when row i holds
    pairs[j]. A row is the join of the rows strictly below it exactly when
    it is the join of the join-irreducible ones among them, and no two
    distinct rows of one block count lie one below the other. So the rows
    go from the finest up a block count at a time, a level a chunk at a
    time, each joining the finer join-irreducibles it holds in one flat
    _settle (row i at offset i*k)."""
    k = reps.shape[1]
    ident = np.arange(k)
    blocks = (reps == ident).sum(axis=1)
    order = np.argsort(-blocks, kind="stable")
    found = np.empty(0, dtype=np.int64)
    for level in np.split(order, np.flatnonzero(np.diff(blocks[order])) + 1):
        a, b = pairs[found].T
        for rows in _chunks(level, k * (len(found) + 1)):
            level_reps = reps[rows]  # row i of the chunk holds pairs[found[j]]
            i, j = np.nonzero(level_reps[:, a] == level_reps[:, b])
            below = reps[found[j]]
            e, x = np.nonzero(below != ident)
            off = np.arange(0, len(rows) * k, k)[:, None]
            rep = _settle((off + ident).ravel(), i[e] * k + x, i[e] * k + below[e, x])
            found = np.append(found, rows[(rep.reshape(-1, k) - off != level_reps).any(axis=1)])
    return np.sort(found)


def _join_rows(gens, budget):
    """The joins of every subset of gens (least-member rows), as least-member
    rows in the least dtype that holds k. For each g in turn the rows found
    so far that split a pair (j, g[j]) are joined with g, a chunk at a time
    in one flat _settle (row i at offset i*k). found holds the rows' bytes
    in order of discovery, and the rows are rebuilt from them once per g,
    so no kept row pins the chunk it was joined in. BudgetExceeded once a
    chunk takes the rows past budget."""
    k = gens.shape[1]
    ident = np.arange(k, dtype=np.min_scalar_type(k - 1))
    found = dict.fromkeys([ident.tobytes()])
    for g in gens:
        j = np.flatnonzero(g != ident)
        for rows in _chunks(np.frombuffer(b"".join(found), ident.dtype).reshape(-1, k), k):
            rows = rows[(rows[:, j] != rows[:, g[j]]).any(axis=1)]
            off = np.arange(0, len(rows) * k, k, dtype=np.int32)[:, None]
            rep = _settle((rows + off).ravel(), (off + j).ravel(), (off + g[j]).ravel())
            joined = (rep.reshape(-1, k) - off).astype(ident.dtype)
            found.update(dict.fromkeys(row.tobytes() for row in joined))
            if len(found) > budget:
                raise BudgetExceeded(f"congruence lattice exceeds budget {budget}")
    return np.frombuffer(b"".join(found), ident.dtype).reshape(-1, k)


def _congruence_rows(alg, budget):
    """Every congruence of alg as a least-member row, the rows sorted as
    big-endian bytes, which is the order of their labels; an empty alg has
    the one empty row.

    The principal congruences come from _principals, by orbits of the
    substitution automorphisms when alg is a FreeAlgebra: a known
    principal settles most pairs outright, and the rest of one b go to one
    closure call. Every congruence is a join of join-irreducible ones, and
    those are principal, so _join_rows builds the lattice from the
    principals that are not the join of the principals strictly below
    them, found from one generating pair per principal: L congruences from
    J join-irreducibles take fewer than J * L row joins. BudgetExceeded
    when the principals or the lattice do not fit in budget."""
    if alg.size == 0:
        return np.empty((1, 0), dtype=np.uint8)
    reps, pairs, _ = _principals(alg, budget)
    rows = _join_rows(reps[_join_irreducibles(reps, pairs)], budget)
    return rows[np.argsort(_ordered_keys(rows))]


def all_congruences(alg, budget=DEFAULT_BUDGET):
    """Every congruence of alg, sorted by labels: the Partitions of
    _congruence_rows."""
    return _partitions(_congruence_rows(alg, budget))
