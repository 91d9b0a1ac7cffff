"""Built-in example algebras and two packaged demonstrations: the finite
Stone-style correspondence over the two-element Boolean algebra, and a
classifier reporting which congruences of a free algebra are closure-fixed
over a chosen ground."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (DEFAULT_BUDGET, FiniteAlgebra, _chunks, _congruence_rows, _frozen,
                   _ordered_keys, _partitions)
from .errors import UnknownSymbol
from .free import ground_space
from .galois import _v_masks


def _bool2():
    return FiniteAlgebra.make(2, [
        ("and", 2, (0, 0, 0, 1)),
        ("or", 2, (0, 1, 1, 1)),
        ("not", 1, (1, 0)),
        ("0", 0, (0,)),
        ("1", 0, (1,)),
    ], name="bool2")


def _distlat2():
    return FiniteAlgebra.make(2, [
        ("and", 2, (0, 0, 0, 1)),
        ("or", 2, (0, 1, 1, 1)),
        ("0", 0, (0,)),
        ("1", 0, (1,)),
    ], name="distlat2")


def _semilat2():
    return FiniteAlgebra.make(2, [("and", 2, (0, 0, 0, 1))], name="semilat2")


def _z2():
    return FiniteAlgebra.make(2, [
        ("add", 2, (0, 1, 1, 0)),
        ("neg", 1, (0, 1)),
        ("0", 0, (0,)),
    ], name="z2")


def _z4():
    return FiniteAlgebra.make(4, [
        ("add", 2, (0, 1, 2, 3, 1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2)),
        ("neg", 1, (0, 3, 2, 1)),
        ("0", 0, (0,)),
    ], name="z4")


def _z2_in_z4():
    # the subalgebra {0, 2} of the four-element cyclic group, relabeled
    # 0 -> 0, 2 -> 1; tables coincide with the two-element group
    return FiniteAlgebra.make(2, [
        ("add", 2, (0, 1, 1, 0)),
        ("neg", 1, (0, 1)),
        ("0", 0, (0,)),
    ], name="z2-in-z4")


BUILTINS = {
    "bool2": _bool2,
    "distlat2": _distlat2,
    "semilat2": _semilat2,
    "z2": _z2,
    "z4": _z4,
    "z2-in-z4": _z2_in_z4,
}


def builtin(name):
    try:
        return BUILTINS[name]()
    except KeyError:
        raise UnknownSymbol(
            f"no builtin algebra named {name!r} (have: {', '.join(sorted(BUILTINS))})"
        ) from None


def list_builtins():
    return tuple(sorted(BUILTINS))


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StoneReport:
    arity: int
    congruence_count: int
    closed_count: int
    subset_count: int
    all_fixed: bool
    all_subsets_closed: bool
    subsets_checked: int
    bijective: bool
    order_reversing_ok: bool
    pairs_checked: int


def _lattice(space, budget):
    """The congruences of the free algebra as the least-member rows of
    _congruence_rows, in all_congruences' order; their distinct V masks,
    ordered as rows; the index of each one's mask; and the radical C(V) of
    each mask as a row. Every phi with V phi = V theta lies within C(V phi),
    and V(C(V theta)) = V theta, so C(V theta) is the row with the fewest
    blocks among those with theta's mask index."""
    rows = _congruence_rows(space.free, budget)
    space.require_ok()
    v = _v_masks(space, rows)
    _, first, inv = np.unique(_ordered_keys(v), return_index=True, return_inverse=True)
    order = np.lexsort(((rows == np.arange(rows.shape[1])).sum(axis=1), inv))
    return rows, v[first], inv, rows[order[np.searchsorted(inv[order], np.arange(len(first)))]]


def stone_demo(arity, budget=DEFAULT_BUDGET, generator=None, seed=2026):
    """Over the two-element Boolean algebra, congruences of the free
    algebra on `arity` generators correspond exactly to subsets of the
    n-cube: every congruence is point-set-fixed, every subset is closed,
    the two directions invert each other, and the correspondence reverses
    order. The report carries the verdicts; a different generator may be
    passed to watch the correspondence fail. Every check is read off the
    lattice: a congruence is fixed exactly when no other has its V mask,
    and a subset is closed exactly when it is a V mask, the subsets being
    checked in order up to the first one that is not."""
    alg = generator if generator is not None else _bool2()
    space = ground_space(alg, alg, arity, budget)
    rows, masks, inv, _ = _lattice(space, budget)
    npts, count = space.npoints, len(rows)
    subset_count = 2 ** npts
    rng = random.Random(seed)
    if subset_count <= 2 ** 16:
        codes = range(subset_count)
    else:
        codes = sorted({rng.randrange(subset_count) for _ in range(4096)})
    # code c holds point a when c >> a & 1, the little-endian bit order
    closed = {int.from_bytes(mask, "little")
              for mask in map(bytes, np.packbits(masks, axis=1, bitorder="little"))}
    miss = next((i for i, c in enumerate(codes) if c not in closed), len(codes))
    pairs = np.array(range(count * count) if count * count <= 4096
                     else rng.sample(range(count * count), 4096), dtype=np.int64)
    order_ok = True
    for a, b in (np.divmod(chunk, count) for chunk in _chunks(pairs, space.free.size)):
        refines = (np.take_along_axis(rows[b], rows[a], axis=1) == rows[b]).all(axis=1)
        order_ok &= bool((refines == (masks[inv[a]] | ~masks[inv[b]]).all(axis=1)).all())
    return StoneReport(
        arity=arity,
        congruence_count=count,
        closed_count=len(masks),
        subset_count=subset_count,
        all_fixed=len(masks) == count,
        all_subsets_closed=miss == len(codes),
        subsets_checked=min(miss + 1, len(codes)),
        bijective=len(masks) == count == subset_count,
        order_reversing_ok=order_ok,
        pairs_checked=len(pairs),
    )


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifiedCongruence:
    partition: object
    fixed: bool
    radical: object  # equals the partition exactly when fixed


@dataclass(frozen=True, eq=False)
class ClassifyReport:
    """The congruences and their radicals are kept as least-member rows,
    _inv[i] being the radical row of congruence i; entries are built from
    them when first read, and reports compare by them."""

    arity: int
    total: int
    fixed_count: int
    _rows: np.ndarray = field(repr=False)
    _fixed: np.ndarray = field(repr=False)
    _inv: np.ndarray = field(repr=False)
    _radicals: np.ndarray = field(repr=False)

    @cached_property
    def entries(self):
        rad = _partitions(self._radicals)
        return tuple(ClassifiedCongruence(partition=th, fixed=f, radical=rad[i])
                     for th, f, i in zip(_partitions(self._rows), self._fixed.tolist(),
                                         self._inv.tolist()))

    def __eq__(self, other):
        return (isinstance(other, ClassifyReport)
                and (self.arity, self.entries) == (other.arity, other.entries))

    def __hash__(self):
        return hash((self.arity, self.entries))


def classify_fixed(generator, ground, arity, budget=DEFAULT_BUDGET):
    """Report for every congruence of the free algebra whether it is fixed
    under the closure pass over the given ground: whether its radical C(V),
    read off the lattice once per distinct V mask as the coarsest
    congruence with that mask, equals it."""
    space = ground_space(generator, ground, arity, budget)
    rows, _, inv, radicals = _lattice(space, budget)
    fixed = (radicals[inv] == rows).all(axis=1)
    return ClassifyReport(arity, len(rows), int(fixed.sum()),
                          *map(_frozen, (rows, fixed, inv, radicals)))
