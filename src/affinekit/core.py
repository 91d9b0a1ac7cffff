"""Finite algebras: signatures, terms, partitions, homomorphisms, and the
basic constructions (subuniverse, power, quotient, congruence generation,
full congruence lattice).

Elements of an algebra of size k are always 0..k-1. Operation tables are
flat tuples in row-major order: the entry for arguments (a0, .., a_{r-1})
sits at index a0*k^(r-1) + .. + a_{r-1}, i.e. the first argument is the
most significant digit. Points of a power A^n use the same big-endian
encoding, so tables, power carriers and product carriers all agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

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


def _recode(m, k, r, base):
    """For every code below k**r: its big-endian digits mapped by m, encoded
    in radix base."""
    out = np.zeros(k ** r, dtype=np.int64)
    for digit in np.indices((k,) * r).reshape(r, k ** r):
        out = out * base + m[digit]
    return out


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
        return self.table(name)[encode_point(args, self.size)] if r else self.table(name)[0]

    @cached_property
    def _np_tables(self):
        out = {}
        for (s, r), tab in zip(self.signature.symbols, self.tables):
            out[s] = np.asarray(tab, dtype=np.int64).reshape((self.size,) * r)
        return out

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
    return alg.op(term.symbol, tuple(evaluate_term(alg, a, env) for a in term.args))


def generate_subuniverse(alg, seeds):
    """Smallest subuniverse containing seeds, in canonical discovery order:
    sorted seeds first, then breadth-first rounds applying operations in
    signature order to tuples (in big-endian index order) over the elements
    known at the start of the round."""
    for s in seeds:
        if not 0 <= s < alg.size:
            raise ValidationError(f"seed {s} outside carrier")
    found = []
    seen = set()
    for s in sorted(set(seeds)):
        found.append(s)
        seen.add(s)
    while True:
        frozen = len(found)
        for (sym, r), tab in zip(alg.signature.symbols, alg.tables):
            if r == 0:
                v = tab[0]
                if v not in seen:
                    found.append(v)
                    seen.add(v)
                continue
            for args in product(found[:frozen], repeat=r):
                v = tab[encode_point(args, alg.size)]
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
    """The least-member array of normalized labels."""
    lab = np.asarray(labels, dtype=np.int64)
    return np.unique(lab, return_index=True)[1][lab]


def _partition(rep):
    """The Partition of a least-member array."""
    return Partition(len(rep), tuple(np.unique(rep, return_inverse=True)[1].tolist()))


def _settle(rep, a, b):
    """The join of the partition rep with the pairs (a[i], b[i]): hook the
    larger representative of each split pair onto the smaller one until
    every pair lies in one block."""
    while True:
        ra, rb = rep[a], rep[b]
        split = ra != rb
        if not split.any():
            return rep
        hook = np.arange(len(rep))
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
        nxt = 0
        for lab in self.labels:
            if lab > nxt or lab < 0:
                raise ValidationError(
                    "labels not normalized; use Partition.from_labels"
                )
            if lab == nxt:
                nxt += 1

    @classmethod
    def from_labels(cls, raw):
        seen = {}
        out = []
        for lab in raw:
            if lab not in seen:
                seen[lab] = len(seen)
            out.append(seen[lab])
        return cls(len(out), tuple(out))

    @classmethod
    def from_pairs(cls, size, pairs):
        return _partition(_settle(np.arange(size), *_pair_arrays(size, pairs)))

    @classmethod
    def identity(cls, size):
        return cls(size, tuple(range(size)))

    @classmethod
    def total(cls, size):
        return cls(size, (0,) * size)

    @property
    def num_blocks(self):
        return max(self.labels) + 1 if self.labels else 0

    def blocks(self):
        out = [[] for _ in range(self.num_blocks)]
        for i, lab in enumerate(self.labels):
            out[lab].append(i)
        return tuple(tuple(b) for b in out)

    def together(self, a, b):
        return self.labels[a] == self.labels[b]

    def refines(self, other):
        if other.size != self.size:
            raise ShapeMismatch("partitions of different sets")
        rep = {}
        for i, lab in enumerate(self.labels):
            if lab in rep:
                if other.labels[i] != other.labels[rep[lab]]:
                    return False
            else:
                rep[lab] = i
        return True

    def meet(self, other):
        if other.size != self.size:
            raise ShapeMismatch("partitions of different sets")
        return Partition.from_labels(list(zip(self.labels, other.labels)))

    def join(self, other):
        if other.size != self.size:
            raise ShapeMismatch("partitions of different sets")
        # union-find over the blocks of self: link the blocks that meet one
        # block of other
        parent = list(range(self.num_blocks))

        def root(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        anchor = {}
        for a, b in zip(self.labels, other.labels):
            ra, rb = root(a), root(anchor.setdefault(b, a))
            parent[max(ra, rb)] = min(ra, rb)
        return Partition.from_labels([root(a) for a in self.labels])

    def is_congruence_of(self, alg):
        """Compatible with every operation of alg?"""
        if alg.size != self.size:
            raise ShapeMismatch("partition size differs from carrier size")
        if self.size == 0:
            return True
        lab = np.asarray(self.labels, dtype=np.int64)
        rep_of = _least_members(self.labels)
        for (sym, r), tab in zip(alg.signature.symbols, alg.tables):
            if r == 0:
                continue
            t = np.asarray(tab, dtype=np.int64)
            if not np.array_equal(lab[t], lab[t[_recode(rep_of, self.size, r, self.size)]]):
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
    if h.source.size == 0:
        return True
    m = np.asarray(h.mapping, dtype=np.int64)
    ks, kt = h.source.size, h.target.size
    for sym, r in h.source.signature.symbols:
        ts = np.asarray(h.source.table(sym), dtype=np.int64)
        tt = np.asarray(h.target.table(sym), dtype=np.int64)
        if r == 0:
            if m[ts[0]] != tt[0]:
                return False
            continue
        if not np.array_equal(m[ts], tt[_recode(m, ks, r, kt)]):
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
    for s in sizes:
        total *= s
        if total > budget:
            raise BudgetExceeded(f"product carrier exceeds budget {budget}")

    if not factors:
        tables = tuple(
            tuple(0 for _ in range(1 if r == 0 else 1 ** r))
            for _, r in signature.symbols
        )
        return FiniteAlgebra(signature, 1, tables, name="trivial")

    digits = np.indices(sizes).reshape(len(factors), total)  # coordinates of each code
    weights = [1] * len(factors)
    for i in range(len(factors) - 2, -1, -1):
        weights[i] = weights[i + 1] * sizes[i + 1]

    tables = []
    for sym, r in signature.symbols:
        if r == 0:
            val = 0
            for i, f in enumerate(factors):
                val += f.table(sym)[0] * weights[i]
            tables.append((int(val),))
            continue
        if total ** r > budget:
            raise BudgetExceeded(f"product table for {sym!r} exceeds budget {budget}")
        arg_codes = np.indices((total,) * r).reshape(r, total ** r)
        out = np.zeros(total ** r, dtype=np.int64)
        for i, f in enumerate(factors):
            t = f.np_table(sym)
            coords = tuple(digits[i][ac] for ac in arg_codes)
            out += t[coords] * weights[i]
        tables.append(tuple(int(v) for v in out))
    return FiniteAlgebra(signature, total, tuple(tables))


def power_algebra(alg, n, budget=DEFAULT_BUDGET):
    """alg^n; for n = 0 the one-element algebra."""
    if n < 0:
        raise ValidationError("negative power")
    return product_algebra([alg] * n, signature=alg.signature, budget=budget)


def generate_congruence(alg, pairs):
    """Smallest congruence containing the pairs, by the worklist closure
    that all_congruences shares."""
    a, b = _pair_arrays(alg.size, pairs)
    if alg.size == 0:
        return Partition(0, ())
    return _partition(_closure(_unary_translations(alg), a, b))


def quotient_algebra(alg, part):
    """Quotient by a congruence; returns (quotient, canonical projection)."""
    if part.size != alg.size:
        raise ShapeMismatch("partition size differs from carrier size")
    if not part.is_congruence_of(alg):
        raise NotACongruence("partition is not compatible with the operations")
    reps = [block[0] for block in part.blocks()]
    tables = []
    for (sym, r), tab in zip(alg.signature.symbols, alg.tables):
        if r == 0:
            tables.append((part.labels[tab[0]],))
            continue
        flat = []
        for args in product(reps, repeat=r):
            flat.append(part.labels[tab[encode_point(args, alg.size)]])
        tables.append(tuple(flat))
    quot = FiniteAlgebra(alg.signature, len(reps), tuple(tables))
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
    onto = []
    weights = [1] * len(factors)
    for i in range(len(factors) - 2, -1, -1):
        weights[i] = weights[i + 1] * factors[i + 1].size
    for i, f in enumerate(factors):
        seen = {(x // weights[i]) % f.size for x in h.mapping}
        onto.append(len(seen) == f.size)
    return SubdirectReport(injective=injective, onto_each_factor=tuple(onto))


# --------------------------------------------------------------------------
# the full congruence lattice


def _join_closure(base, size, budget):
    """Close a set of partitions under pairwise join (with identity)."""
    interned = {}
    order = []

    def intern(p):
        if p.labels not in interned:
            interned[p.labels] = p
            order.append(p)
            if len(order) > budget:
                raise BudgetExceeded(f"congruence lattice exceeds budget {budget}")
        return interned[p.labels]

    intern(Partition.identity(size))
    for p in base:
        intern(p)
    memo = {}
    frontier = list(order)
    while frontier:
        nxt = []
        for p in frontier:
            for q in base:
                key = (p.labels, q.labels) if p.labels <= q.labels else (q.labels, p.labels)
                if key in memo:
                    continue
                j = p.join(q)
                memo[key] = j
                if j.labels not in interned:
                    intern(j)
                    nxt.append(j)
        frontier = nxt
    return order


def _unary_translations(alg):
    """Every basic translation x -> f(c1,..,x,..,cr) other than the
    identity, deduplicated; row x lists the images of x."""
    ident = np.arange(alg.size)
    rows = np.unique(np.concatenate([ident[None], *(
        np.moveaxis(alg.np_table(sym), pos, -1).reshape(-1, alg.size)
        for sym, r in alg.signature.symbols for pos in range(r)
    )]), axis=0)
    return np.ascontiguousarray(rows[(rows != ident).any(axis=1)].T)


class _Principals:
    """The distinct principal congruences found so far, as rows of
    least-member arrays with their block counts, and at a*k + b the row of
    Cg(a, b) for every pair asked so far (-1 for the others)."""

    def __init__(self, k, budget):
        self.k, self.budget = k, budget
        self.reps = np.empty((0, k), dtype=np.int64)
        self.blocks = np.empty(0, dtype=np.int64)
        self.index = {}
        self.of_pair = np.full(k * k, -1, dtype=np.int64)

    def finest_holding(self, a, b):
        """The row of the finest known congruence holding (a, b), or None."""
        rows = np.flatnonzero(self.reps[:, a] == self.reps[:, b])
        return rows[np.argmax(self.blocks[rows])] if len(rows) else None

    def record(self, a, b, rep):
        row = self.index.setdefault(rep.tobytes(), len(self.index))
        if row == len(self.reps):
            if row == self.budget:
                raise BudgetExceeded(f"congruence lattice exceeds budget {self.budget}")
            self.reps = np.vstack([self.reps, rep])
            self.blocks = np.append(self.blocks, np.count_nonzero(rep == np.arange(self.k)))
        self.of_pair[a * self.k + b] = row


def _closure(images, a, b, known=None):
    """The least congruence holding the pairs (a[i], b[i]), as a
    least-member array, by Freese's worklist closure: a popped pair (x, y)
    joins each image pair (t(x), t(y)) under a basic translation t (a
    column of images) into the partition, and the image pairs that merge
    two blocks are pushed in turn.

    With known (a _Principals) and one pair p, an image pair whose
    principal congruence is known is joined in whole instead, since Cg(p)
    is the equivalence closure of p and every Cg(t(p)); and if Cg(p) is
    already known, the closure stops as soon as it reaches it."""
    k = len(images)
    ident = np.arange(k)
    rep = _settle(ident, a, b)
    finest = known.finest_holding(a[0], b[0]) if known is not None else None
    work = list(zip(a.tolist(), b.tolist()))
    while work:
        x, y = work.pop()
        u, v = images[x], images[y]
        split = rep[u] != rep[v]
        codes = np.minimum(u, v)[split] * k + np.maximum(u, v)[split]
        before = rep
        if known is not None:
            rows = known.of_pair[codes]
            found = np.unique(rows[rows >= 0])
            if finest is not None and finest in found:
                return known.reps[finest]
            joined = known.reps[found]
            rep = _settle(rep, np.arange(joined.size) % k, joined.ravel())
            codes = codes[rows < 0]
        codes = np.unique(codes)
        lo, hi = codes // k, codes % k
        rep = _settle(rep, lo, hi)
        if finest is not None and np.count_nonzero(rep == ident) == known.blocks[finest]:
            return known.reps[finest]
        # push the pairs that merge two blocks of the partition before
        parent = {}
        for c, d, rc, rd in zip(lo.tolist(), hi.tolist(),
                                before[lo].tolist(), before[hi].tolist()):
            while rc in parent:
                rc = parent[rc]
            while rd in parent:
                rd = parent[rd]
            if rc != rd:
                parent[max(rc, rd)] = min(rc, rd)
                work.append((c, d))
    return rep


def _join_irreducibles(reps):
    """The rows of reps (distinct congruences) that are not the join of
    the rows strictly below them."""
    ident = np.arange(reps.shape[1])
    out = []
    for rep in reps:
        below = reps[(rep[reps] == rep).all(axis=1) & (reps != rep).any(axis=1)]
        join = _settle(ident, np.arange(below.size) % len(ident), below.ravel())
        if not np.array_equal(join, rep):
            out.append(rep)
    return out


def all_congruences(alg, budget=DEFAULT_BUDGET):
    """Every congruence of alg, sorted by labels.

    Cg(a, b) for each pair a < b comes from the worklist closure, which
    joins in the principal congruences of earlier pairs. Every congruence
    is a join of join-irreducible ones, and those are principal, so only
    the principals that are not the join of the principals strictly below
    them are closed under join. BudgetExceeded when the principals or the
    lattice outgrow budget."""
    k = alg.size
    if k == 0:
        return (Partition(0, ()),)
    images = _unary_translations(alg)
    known = _Principals(k, budget)
    for b in range(k):
        for a in range(b):
            known.record(a, b, _closure(images, np.array([a]), np.array([b]), known))
    base = [_partition(rep) for rep in _join_irreducibles(known.reps)]
    lattice = _join_closure(base, k, budget)
    return tuple(sorted(lattice, key=lambda p: p.labels))
