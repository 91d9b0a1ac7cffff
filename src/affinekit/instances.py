"""Built-in example algebras and two packaged demonstrations: the finite
Stone-style correspondence over the two-element Boolean algebra, and a
classifier reporting which congruences of a free algebra are closure-fixed
over a chosen ground."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import DEFAULT_BUDGET, FiniteAlgebra, all_congruences
from .errors import UnknownSymbol
from .free import ground_space
from .galois import (
    AffineSubset,
    c_operator,
    radical_of_partition,
    v_of_partition,
    zariski_closure,
)


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


def stone_demo(arity, budget=DEFAULT_BUDGET, generator=None, seed=2026):
    """Over the two-element Boolean algebra, congruences of the free
    algebra on `arity` generators correspond exactly to subsets of the
    n-cube: every congruence is point-set-fixed, every subset is closed,
    the two directions invert each other, and the correspondence reverses
    order. The report carries the verdicts; a different generator may be
    passed to watch the correspondence fail."""
    alg = generator if generator is not None else _bool2()
    space = ground_space(alg, alg, arity, budget)
    congruences = all_congruences(space.free.as_algebra(), budget)
    solutions = {th: v_of_partition(space, th) for th in congruences}
    closed = {v.points: th for th, v in solutions.items()}
    all_fixed = all(c_operator(v) == th for th, v in solutions.items())
    subset_count = 2 ** space.npoints
    rng = random.Random(seed)
    if subset_count <= 2 ** 16:
        codes = range(subset_count)
    else:
        codes = sorted({rng.randrange(subset_count) for _ in range(4096)})
    subsets_checked = 0
    all_subsets_closed = True
    for code in codes:
        pts = tuple(a for a in range(space.npoints) if code >> a & 1)
        s = AffineSubset.of(space, pts)
        subsets_checked += 1
        if zariski_closure(s) != s:
            all_subsets_closed = False
            break
    bijective = (
        len(closed) == len(congruences)
        and all_subsets_closed
        and len(congruences) == subset_count
    )

    pairs = [(a, b) for a in congruences for b in congruences]
    if len(pairs) > 4096:
        pairs = rng.sample(pairs, 4096)
    order_ok = True
    vsets = {th: set(v.points) for th, v in solutions.items()}
    for a, b in pairs:
        if a.refines(b) != (vsets[b] <= vsets[a]):
            order_ok = False
            break
    return StoneReport(
        arity=arity,
        congruence_count=len(congruences),
        closed_count=len(closed),
        subset_count=subset_count,
        all_fixed=all_fixed,
        all_subsets_closed=all_subsets_closed,
        subsets_checked=subsets_checked,
        bijective=bijective,
        order_reversing_ok=order_ok,
        pairs_checked=len(pairs),
    )


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifiedCongruence:
    partition: object
    fixed: bool
    radical: object  # equals the partition exactly when fixed


@dataclass(frozen=True)
class ClassifyReport:
    arity: int
    total: int
    fixed_count: int
    entries: tuple


def classify_fixed(generator, ground, arity, budget=DEFAULT_BUDGET):
    """Walk every congruence of the free algebra and report whether it is
    fixed under the closure pass over the given ground."""
    space = ground_space(generator, ground, arity, budget)
    entries = []
    fixed_count = 0
    for th in all_congruences(space.free.as_algebra(), budget):
        rad = radical_of_partition(space, th)
        fixed = rad == th
        fixed_count += fixed
        entries.append(ClassifiedCongruence(partition=th, fixed=fixed, radical=rad))
    return ClassifyReport(
        arity=arity,
        total=len(entries),
        fixed_count=fixed_count,
        entries=tuple(entries),
    )
