"""Plain-Python answers to the query stream, computed from the evaluation
matrix ``ev`` (one row of values per free-algebra element, one column per
point) and, for congruence generation, from operation tables that
``free_tables`` rebuilds out of the element value tables and the
generator's tables. Nothing here calls affinekit; the benchmark compares the
library's answers with these after the timed stream.
"""

from itertools import product

import numpy as np


def normalize(keys):
    """Block labels numbered by least member, for any sequence of keys."""
    seen = {}
    return tuple(seen.setdefault(key, len(seen)) for key in keys)


def kernel(ev, points):
    """C(S): elements are related when they agree at every point of S."""
    return normalize(tuple(row[a] for a in points) for row in ev)


def solutions(ev, npoints, labels):
    """V of a partition: points where every element equals the least member
    of its block."""
    rep = {}
    for p, lab in enumerate(labels):
        rep.setdefault(lab, p)
    pairs = [(rep[lab], p) for p, lab in enumerate(labels) if rep[lab] != p]
    return tuple(a for a in range(npoints)
                 if all(ev[p][a] == ev[q][a] for p, q in pairs))


def relation_solutions(ev, npoints, pairs):
    """V of a relation: points where both sides of every pair agree."""
    return tuple(a for a in range(npoints)
                 if all(ev[p][a] == ev[q][a] for p, q in pairs))


def closure(ev, npoints, points):
    return solutions(ev, npoints, kernel(ev, points))


def radical(ev, npoints, labels):
    return kernel(ev, solutions(ev, npoints, labels))


def evaluation(ev, a):
    """The injective map F/C({a}) -> A: the values of column a, one per
    kernel block, blocks in least-member order."""
    return tuple(dict.fromkeys(row[a] for row in ev))


def free_tables(rows, k, ops):
    """The free algebra's operation tables, applied pointwise: entry
    (a1, .., ar) of an operation is the element whose value table is the
    generator's operation applied to the value tables of a1, .., ar.
    ``rows`` holds one value table per element (one column per point of
    G^n), ``k`` is |G| and ``ops`` the generator's (arity, flat big-endian
    table) pairs. Returns flat big-endian tables in the order of ``ops``."""
    rows = np.asarray(rows, dtype=np.int64)
    index = {row.tobytes(): i for i, row in enumerate(rows)}
    out = []
    for r, table in ops:
        t = np.asarray(table, dtype=np.int64).reshape((k,) * r)
        if r == 0:
            const = np.full(rows.shape[1], t[()], dtype=np.int64)
            out.append((index[const.tobytes()],))
            continue
        flat = []
        # the last argument varies fastest, across every element at once
        for first in product(range(len(rows)), repeat=r - 1):
            values = t[tuple(rows[a] for a in first) + (rows,)]
            flat.extend(index[v.tobytes()] for v in values)
        out.append(tuple(flat))
    return out


def translations(ops, size):
    """Every basic translation x -> f(c1, .., x, .., cr) except the identity,
    from (arity, flat big-endian table) pairs."""
    out = set()
    for r, table in ops:
        for pos in range(r):
            for consts in product(range(size), repeat=r - 1):
                row = []
                for x in range(size):
                    code = 0
                    for v in consts[:pos] + (x,) + consts[pos:]:
                        code = code * size + v
                    row.append(table[code])
                out.add(tuple(row))
    out.discard(tuple(range(size)))
    return list(out)


def congruence(trans, size, pairs):
    """The least congruence containing the pairs: union-find closed under the
    basic translations, one worklist entry per merge."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = []
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            work.append((a, b))
    while work:
        a, b = work.pop()
        for t in trans:
            x, y = t[a], t[b]
            if x != y:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
                    work.append((x, y))
    return normalize(find(i) for i in range(size))
