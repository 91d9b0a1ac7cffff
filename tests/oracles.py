"""Independent brute-force oracles.

Everything here is deliberately naive and shares no code with the package:
set-based fixpoints, exhaustive enumeration, no numpy, no canonical orders.
Tests compare the package's answers against these on small instances. The
exceptions are adjunction_squares, a reference route that checks the
package's naturality sweep one square at a time through its single-arrow
functors and composition; free_bfs, the full-round clone BFS that the
package ran before its semi-naive rounds; join_irreducibles, the all-rows test that the
package ran before it kept a generating pair for each principal
congruence; stone_report, the per-congruence, per-subset and per-pair
loop that stone_demo ran before its array sweeps; term_pointwise, the
pointwise evaluation that term parsing ran before it evaluated in F(n);
_c_rows, the sweep that computed C of every V mask before classify
and stone read the radicals off the lattice; and radical_meet, the
meet of point kernels that radical_of_partition ran before it became
C of V.

Run as a script to print the frozen constants used in the test suite.
"""

import random
from itertools import product


def encode(point, k):
    code = 0
    for a in point:
        code = code * k + a
    return code


def apply_op(table, k, args_tables, npoints):
    """Pointwise application of an operation table to argument tables."""
    r = len(args_tables)
    out = []
    for c in range(npoints):
        idx = 0
        for j in range(r):
            idx = idx * k + args_tables[j][c]
        out.append(table[idx] if r else table[0])
    return tuple(out)


def brute_clone(ops, k, n):
    """All n-ary term functions over carrier {0..k-1}: set-based fixpoint.

    ops: dict name -> (arity, flat table). Returns a frozenset of value
    tables (tuples of length k**n).
    """
    npoints = k ** n
    funcs = set()
    for i in range(n):
        funcs.add(tuple((c // k ** (n - 1 - i)) % k for c in range(npoints)))
    for arity, table in ops.values():
        if arity == 0:
            funcs.add(tuple(table[0] for _ in range(npoints)))
    changed = True
    while changed:
        changed = False
        snapshot = list(funcs)
        for arity, table in ops.values():
            if arity == 0:
                continue
            for args in product(snapshot, repeat=arity):
                f = apply_op(table, k, args, npoints)
                if f not in funcs:
                    funcs.add(f)
                    changed = True
    return frozenset(funcs)


def all_boolean_functions(n):
    npoints = 2 ** n
    return [tuple(bits) for bits in product((0, 1), repeat=npoints)]


def is_monotone(table, n):
    npoints = 2 ** n
    for c in range(npoints):
        for d in range(npoints):
            if c | d == d and table[c] > table[d]:
                return False
    return True


def monotone_tables(n):
    return frozenset(t for t in all_boolean_functions(n) if is_monotone(t, n))


def semilattice_tables(n):
    """AND over each nonempty variable subset."""
    npoints = 2 ** n
    out = set()
    for mask in range(1, 2 ** n):
        vars_in = [i for i in range(n) if mask >> i & 1]
        tab = []
        for c in range(npoints):
            point = [(c // 2 ** (n - 1 - i)) % 2 for i in range(n)]
            tab.append(min(point[i] for i in vars_in))
        out.add(tuple(tab))
    return frozenset(out)


def linear_tables(n, k):
    """All maps (x_1..x_n) -> sum a_i x_i mod k."""
    npoints = k ** n
    out = set()
    for coeffs in product(range(k), repeat=n):
        tab = []
        for c in range(npoints):
            point = [(c // k ** (n - 1 - i)) % k for i in range(n)]
            tab.append(sum(a * x for a, x in zip(coeffs, point)) % k)
        out.add(tuple(tab))
    return frozenset(out)


def all_partitions(n):
    """Every partition of {0..n-1} as a labels tuple (restricted growth)."""
    if n == 0:
        return [()]
    result = []

    def grow(labels, mx):
        if len(labels) == n:
            result.append(tuple(labels))
            return
        for b in range(mx + 2):
            grow(labels + [b], max(mx, b))

    grow([0], 0)
    return result


def respects_ops(labels, ops, k):
    """Is the partition compatible with every operation table?"""
    for arity, table in ops.values():
        if arity == 0:
            continue
        for u in product(range(k), repeat=arity):
            for v in product(range(k), repeat=arity):
                if all(labels[a] == labels[b] for a, b in zip(u, v)):
                    fu = table[encode(u, k)]
                    fv = table[encode(v, k)]
                    if labels[fu] != labels[fv]:
                        return False
    return True


def brute_congruences(ops, k):
    """Exhaustive congruence enumeration; fine up to carrier ~7."""
    return frozenset(p for p in all_partitions(k) if respects_ops(p, ops, k))


def normalize(labels):
    """Renumber blocks by first appearance."""
    seen = {}
    return tuple(seen.setdefault(lab, len(seen)) for lab in labels)


def is_normalized(labels):
    """Are the labels numbered by first appearance? The per-label check:
    each label is one seen before or the next unused one, from 0 up."""
    nxt = 0
    for lab in labels:
        if lab > nxt or lab < 0:
            return False
        if lab == nxt:
            nxt += 1
    return True


def _merge(labels, a, b):
    """Put b's block into a's (labels is a list); True when they differed."""
    old, new = labels[b], labels[a]
    if old == new:
        return False
    for i, lab in enumerate(labels):
        if lab == old:
            labels[i] = new
    return True


def least_congruence(ops, k, pairs):
    """The least congruence holding the pairs, by a fixpoint over the
    tables: for every argument tuple s, merge f(s) with f(s*), where s*
    replaces each argument by the least member of its block, until a
    whole pass merges nothing."""
    labels = list(range(k))
    for a, b in pairs:
        _merge(labels, a, b)
    changed = True
    while changed:
        changed = False
        least = {}
        for i, lab in enumerate(labels):
            least.setdefault(lab, i)
        for arity, table in ops.values():
            if arity == 0:
                continue
            for s in product(range(k), repeat=arity):
                star = tuple(least[labels[x]] for x in s)
                if _merge(labels, table[encode(s, k)], table[encode(star, k)]):
                    changed = True
    return normalize(labels)


def principal_congruences(ops, k):
    """The distinct Cg(u, v), u < v, one fixpoint per pair."""
    return {least_congruence(ops, k, [(u, v)]) for v in range(k) for u in range(v)}


def join_closure(parts, k):
    """The identity and every join of the given partitions (label tuples),
    by pairwise joins until nothing new appears."""
    def join(p, q):
        labels = list(p)
        first = {}
        for i, lab in enumerate(q):
            _merge(labels, first.setdefault(lab, i), i)
        return normalize(labels)

    lattice = {tuple(range(k))} | set(parts)
    while True:
        new = {join(p, q) for p in lattice for q in parts} - lattice
        if not new:
            return lattice
        lattice |= new


def basic_translations(ops, k):
    """Every map x -> f(c1,..,x,..,cr) as a tuple of images."""
    out = set()
    for arity, table in ops.values():
        for pos in range(arity):
            for consts in product(range(k), repeat=arity - 1):
                out.add(tuple(table[encode(consts[:pos] + (x,) + consts[pos:], k)]
                              for x in range(k)))
    return out


def transformation_monoid(maps, k):
    """The monoid generated by maps (tuples of images) on {0..k-1}: from
    the identity, compose every map found with every generator until
    nothing new appears."""
    maps = [tuple(f) for f in maps]
    found = {tuple(range(k))}
    frontier = list(found)
    while frontier:
        new = {tuple(g[f[x]] for x in range(k)) for f in frontier for g in maps} - found
        found |= new
        frontier = list(new)
    return frozenset(found)


def boolean_ideal_congruences(and_t, or_t, not_t, k):
    """Congruences of a finite Boolean algebra via its ideals.

    Enumerates every subset, keeps those that are ideals (contain bottom,
    or-closed, downward closed), and turns each into the partition
    a ~ b  iff  (a xor b) in ideal. Independent of any closure machinery.
    """
    def meet(a, b):
        return and_t[a * k + b]

    def xor(a, b):
        return or_t[meet(a, not_t[b]) * k + meet(not_t[a], b)]

    bottom = next(a for a in range(k) if all(meet(a, b) == a for b in range(k)))
    parts = set()
    for mask in range(1, 2 ** k):
        ideal = [a for a in range(k) if mask >> a & 1]
        if bottom not in ideal:
            continue
        iset = set(ideal)
        if any(or_t[a * k + b] not in iset for a in ideal for b in ideal):
            continue
        if any(meet(a, b) not in iset for a in ideal for b in range(k)):
            continue
        labels = [None] * k
        nxt = 0
        for a in range(k):
            if labels[a] is None:
                labels[a] = nxt
                for b in range(a + 1, k):
                    if xor(a, b) in iset:
                        labels[b] = nxt
                nxt += 1
        parts.add(tuple(labels))
    return frozenset(parts)


def abelian_subgroup_congruences(add_t, k):
    """Congruences of a finite abelian group algebra via its subgroups."""
    def sub(a, b):
        # a - b: find c with b + c = a
        return next(c for c in range(k) if add_t[b * k + c] == a)

    zero = next(a for a in range(k) if add_t[a * k + a] == add_t[a * k + a] and
                all(add_t[a * k + b] == b for b in range(k)))
    parts = set()
    for mask in range(1, 2 ** k):
        sg = [a for a in range(k) if mask >> a & 1]
        if zero not in sg:
            continue
        sset = set(sg)
        if any(add_t[a * k + b] not in sset for a in sg for b in sg):
            continue
        if any(sub(zero, a) not in sset for a in sg):
            continue
        labels = [None] * k
        nxt = 0
        for a in range(k):
            if labels[a] is None:
                labels[a] = nxt
                for b in range(a + 1, k):
                    if sub(a, b) in sset:
                        labels[b] = nxt
                nxt += 1
        parts.add(tuple(labels))
    return frozenset(parts)


def brute_homs(src_ops, src_k, dst_ops, dst_k):
    """All homomorphisms between two small algebras, as mapping tuples."""
    homs = []
    for mapping in product(range(dst_k), repeat=src_k):
        ok = True
        for name, (arity, table) in src_ops.items():
            d_arity, d_table = dst_ops[name]
            if d_arity != arity:
                ok = False
                break
            for args in product(range(src_k), repeat=arity):
                lhs = mapping[table[encode(args, src_k)]]
                rhs = d_table[encode(tuple(mapping[a] for a in args), dst_k)]
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            homs.append(mapping)
    return homs


def brute_c(ev_rows, points):
    """Kernel-intersection over chosen columns, by raw pairwise comparison.

    ev_rows: list of value rows (row p = values of p at every point).
    Returns a labels tuple over row indices.
    """
    m = len(ev_rows)
    labels = list(range(m))
    for p in range(m):
        for q in range(p):
            if labels[q] != labels[p] and all(
                ev_rows[p][a] == ev_rows[q][a] for a in points
            ):
                old, new = labels[p], labels[q]
                for i in range(m):
                    if labels[i] == old:
                        labels[i] = new
    # normalize by least member
    seen = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return tuple(out)


def brute_v(ev_rows, npoints, pairs):
    return tuple(
        a for a in range(npoints) if all(ev_rows[p][a] == ev_rows[q][a] for p, q in pairs)
    )


def meet_irreducible_sets(sets, npoints):
    """The point sets (tuples) that differ from the intersection of the sets
    strictly containing them, the intersection of none being all points."""
    out = set()
    for a in sets:
        meet = set(range(npoints))
        for b in sets:
            if set(a) < set(b):
                meet &= set(b)
        if meet != set(a):
            out.add(a)
    return out


def free_as_algebra(ops, k, n):
    """The free algebra on n generators as (ops dict, size) on the sorted
    value tables of brute_clone, operations acting pointwise."""
    npoints = k ** n
    elems = sorted(brute_clone(ops, k, n))
    index = {t: i for i, t in enumerate(elems)}
    out_ops = {}
    for name, (arity, table) in ops.items():
        if arity == 0:
            const = tuple(table[0] for _ in range(npoints))
            out_ops[name] = (0, (index[const],))
        else:
            flat = []
            for args in product(elems, repeat=arity):
                flat.append(index[apply_op(table, k, args, npoints)])
            out_ops[name] = (arity, tuple(flat))
    return out_ops, len(elems)


def free_bfs(generator, arity):
    """The full-round clone BFS that free._free_cached ran before its rounds
    became semi-naive: each round applies every operation, in signature
    order, to every tuple of the elements known at the round start, in
    big-endian order, and looks up every result. Returns (rows, witnesses,
    recipes, var_positions, tables): rows as lists, tables as flat lists of
    element indices from the last round ([p] for a constant)."""
    import numpy as np

    from affinekit.core import App, Var, _apply_all, _digits, decode_point

    npoints = generator.size ** arity
    rows, witnesses, recipes, index = [], [], [], {}

    def intern(key, row, witness, recipe):
        if key not in index:
            index[key] = len(rows)
            rows.append(row)
            witnesses.append(witness)
            recipes.append(recipe)
        return index[key]

    var_positions = tuple(
        intern(row.tobytes(), row, Var(i), (None, (i,)))
        for i, row in enumerate(_digits((generator.size,) * arity))
    )
    while True:
        frozen = len(rows)
        stacked = np.array(rows, dtype=np.int64).reshape(frozen, npoints)
        tables = []
        for s, (sym, r) in enumerate(generator.signature.symbols):
            if r == 0:
                row = np.full(npoints, generator.table(sym)[0], dtype=np.int64)
                tables.append([intern(row.tobytes(), row, App(sym), (s, ()))])
                continue
            cand = _apply_all(generator.np_table(sym), stacked, r).reshape(-1, npoints)
            found = []
            for g, row in enumerate(cand):
                p = index.get(row.tobytes())
                if p is None:
                    operands = decode_point(g, frozen, r)
                    witness = App(sym, tuple(witnesses[o] for o in operands))
                    p = intern(row.tobytes(), row.copy(), witness, (s, operands))
                found.append(p)
            tables.append(found)
        if len(rows) == frozen:
            break
    return [row.tolist() for row in rows], witnesses, recipes, var_positions, tables


def _fresh_tuples(frozen, last, r):
    """The r-tuples over range(frozen) with an entry of at least last, in
    the order of product(range(frozen), repeat=r)."""
    if r == 0:
        return
    for i in range(frozen):
        if i >= last:
            for rest in product(range(frozen), repeat=r - 1):
                yield (i,) + rest
        else:
            for rest in _fresh_tuples(frozen, last, r - 1):
                yield (i,) + rest


def graph_closure_ground(free, ground):
    """Evaluation of a package free algebra over a ground algebra by the
    graph construction: close the pairs (x_i, i-th coordinate function on
    A^n) under all operations inside F x A^(A^n). Evaluation at a point is
    well defined exactly when no element picks up two rows that disagree at
    that point. Returns (ev, point_ok) as lists; ev[p] is the first row
    found for element p."""
    falg = free.as_algebra()
    arity = free.arity
    ka = ground.size
    npoints = ka ** arity

    pairs = []
    seen = set()

    def add(pair):
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)

    for i in range(arity):
        row = tuple((c // ka ** (arity - 1 - i)) % ka for c in range(npoints))
        add((free.var(i), row))
    # semi-naive rounds: a tuple of pairs all known a round earlier was
    # combined then, so only tuples holding a pair of the last round are new
    last = 0
    while True:
        frozen = len(pairs)
        for sym, r in ground.signature.symbols:
            if r == 0:
                add((falg.table(sym)[0], tuple(ground.table(sym)[0] for _ in range(npoints))))
                continue
            for idx in _fresh_tuples(frozen, last, r):
                args = [pairs[i] for i in idx]
                fval = falg.op(sym, tuple(p[0] for p in args))
                add((fval, apply_op(ground.table(sym), ka, [p[1] for p in args], npoints)))
        if len(pairs) == frozen:
            break
        last = frozen

    rows_by_elem = {}
    for fval, row in pairs:
        rows_by_elem.setdefault(fval, []).append(row)
    ev = []
    point_ok = [True] * npoints
    for p in range(falg.size):
        got = rows_by_elem[p]
        ev.append(list(got[0]))
        for other in got[1:]:
            for a in range(npoints):
                if other[a] != got[0][a]:
                    point_ok[a] = False
    return ev, point_ok


def ground_fixpoint(free, ground):
    """Evaluation of a package free algebra over a ground algebra, one point
    at a time. At a point a, values[p] is the set of values of element p in
    the subalgebra of F x A generated by the pairs (x_i, a_i): a fixpoint
    over the elements, which adds g(v_1, .., v_r) to the values of
    f(p_1, .., p_r) for every operation, every operand tuple of elements
    and every choice of their values until nothing grows. Evaluation at a
    is well defined exactly when every element has one value there. ev[p]
    is p's witness term evaluated at each point, a value of values[p].
    Returns (ev, point_ok) as lists. Cheaper than graph_closure_ground
    when elements pick up many rows, dearer on a large free algebra."""
    falg = free.as_algebra()
    arity, size, ka = free.arity, free.size, ground.size
    symbols = ground.signature.symbols
    ev = [[None] * ka ** arity for _ in range(size)]
    point_ok = []
    for a in range(ka ** arity):
        point = [(a // ka ** (arity - 1 - i)) % ka for i in range(arity)]
        values = [set() for _ in range(size)]
        for i in range(arity):
            values[free.var(i)].add(point[i])
        grew = True
        while grew:
            grew = False
            for sym, r in symbols:
                gtab, ftab = ground.table(sym), falg.table(sym)
                for idx, args in enumerate(product(range(size), repeat=r)):
                    got = values[ftab[idx]]
                    for vals in product(*(values[p] for p in args)):
                        v = gtab[encode(vals, ka)]
                        if v not in got:
                            got.add(v)
                            grew = True

        def evaluate(term):
            if not hasattr(term, "symbol"):  # a variable
                return point[term.index]
            return ground.op(term.symbol, tuple(evaluate(t) for t in term.args))

        for p in range(size):
            ev[p][a] = evaluate(free.elements[p].witness)
            assert ev[p][a] in values[p]
        point_ok.append(all(len(v) == 1 for v in values))
    return ev, point_ok


def closure_labels(size, pairs):
    """Normalized labels of the equivalence closure of pairs on range(size)."""
    labels = list(range(size))
    for a, b in pairs:
        _merge(labels, a, b)
    return normalize(labels)


def join_irreducibles(reps):
    """The rows of reps (distinct congruences as least-member arrays) that
    are not the join of the rows strictly below them. Row j lies below row
    i when row i puts every element in one block with its row-j
    representative: a test over every pair of rows and every element. The
    rows are distinct, so only row i itself is not strictly below it."""
    import numpy as np

    from affinekit.core import _settle

    ident = np.arange(reps.shape[1])
    out = []
    for i, rep in enumerate(reps):
        below = (np.take(rep, reps) == rep).all(axis=1)
        below[i] = False
        below = reps[below]
        join = _settle(ident, np.arange(below.size) % len(ident), below.ravel())
        if not np.array_equal(join, rep):
            out.append(rep)
    return out


def radical_meet(space, part):
    """C(V(part)) as the meet of the point kernels of V(part), one point at
    a time."""
    from affinekit.core import Partition
    from affinekit.galois import point_kernel, v_of_partition

    acc = Partition.total(space.free.size)
    for a in v_of_partition(space, part).points:
        acc = acc.meet(point_kernel(space, a))
    return acc


def _c_rows(space, masks):
    """C of many point sets, from bool point masks, as least-member rows. An
    element's key is its values at the mask's points in radix |A|, (mask *
    |A|**a) @ ev.T; an int64 holds the points of 63 bits, so more points
    take several key columns. Their tuples are ranked by one lexsort and a
    neighbour diff, and _least_members gets the ranks. The rows come in the
    least dtype that holds the elements."""
    import numpy as np

    from affinekit.core import _chunks, _least_members

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


def stable_classes(congruences, size, pairs):
    """The coarsest of congruences (label tuples) that puts together only
    elements with the same row and the same column of pairs together with
    the diagonal; it is checked to hold every other such congruence."""
    rel = set(pairs) | {(a, a) for a in range(size)}
    row = [{b for b in range(size) if (a, b) in rel} for a in range(size)]
    col = [{b for b in range(size) if (b, a) in rel} for a in range(size)]
    inside = [c for c in congruences
              if all(row[a] == row[b] and col[a] == col[b]
                     for a in range(size) for b in range(size) if c[a] == c[b])]
    best = min(inside, key=lambda c: len(set(c)))
    assert all(refines(c, best) for c in inside)
    return normalize(best)


def point_arrows(ev_rows, k, src_points, dst_points, witnesses):
    """Definable maps, one witness tuple at a time: w induces the graph
    a -> code of (w_1(a), .., w_m(a)) over src_points, kept when it lands
    in dst_points. Returns (first witness, graph) per distinct graph, in
    witness order."""
    dst = set(dst_points)
    out = {}
    for w in witnesses:
        row = tuple(encode([ev_rows[i][a] for i in w], k) for a in src_points)
        if set(row) <= dst:
            out.setdefault(row, w)
    return [(w, row) for row, w in out.items()]


def relation_arrows(tables_m, tables_n, k, n, x_pairs, y_pairs, witnesses):
    """Relation arrows (F(n), x) -> (F(m), y), one witness tuple at a time.
    Elements are value tables over the k-element generator; w gives the
    homomorphism h: F(m) -> F(n) substituting w_i for x_i, kept when every
    pair of y goes to a pair of x or to a reflexive pair. Returns (first
    witness, class map) per distinct class map, in witness order."""
    index = {t: i for i, t in enumerate(tables_n)}
    xset = set(x_pairs)
    xbar = closure_labels(len(tables_n), x_pairs)
    ybar = closure_labels(len(tables_m), y_pairs)
    out = {}
    for w in witnesses:
        inner = [tables_n[i] for i in w]
        h = [index[apply_op(t, k, inner, k ** n)] for t in tables_m]
        if any(h[p] != h[q] and (h[p], h[q]) not in xset for p, q in y_pairs):
            continue
        class_map = {}
        for p, c in enumerate(ybar):
            if class_map.setdefault(c, xbar[h[p]]) != xbar[h[p]]:
                raise AssertionError("carried relation gave an ill-defined class map")
        out.setdefault(tuple(class_map[c] for c in sorted(class_map)), w)
    return [(w, class_map) for class_map, w in out.items()]


def adjunction_squares(subset, y, budget, seed):
    """(lhs, rhs, bijection_ok, natural_ok) of verify_adjunction for S and
    y in one context, one naturality square at a time: the package's hom
    sets, cq_arrow and then, and the correspondence Phi evaluated here
    point by point. The rng draws the cases verify_adjunction samples."""
    from affinekit.adjunction import (
        DArrowClass, cq_arrow, cq_object, hom_set_dq, hom_set_rq, vq_object,
    )
    from affinekit.core import Partition
    from affinekit.errors import AssertionFailure, BijectionFailure
    from affinekit.galois import AffineSubset, Relation

    def induced(src, dst, witness, error):
        rows, k = src.space.ev.tolist(), src.space.ground.size
        images = tuple(encode([rows[w][a] for w in witness], k) for a in src.points)
        if not set(images) <= set(dst.points):
            raise error
        return DArrowClass(src, dst, images, witness)

    def phi(src, vy, arrow):
        return induced(src, vy, arrow.witness,
                       BijectionFailure("correspondence image left V(y)"))

    space = subset.space
    x, vy = cq_object(subset), vq_object(y)
    lhs = hom_set_rq(x, y, budget)
    rhs = hom_set_dq(subset, vy, budget)
    mapped = [phi(subset, vy, a) for a in lhs]
    bijection_ok = len(rhs) == len(set(mapped)) == len(mapped) and set(mapped) == set(rhs)

    rng = random.Random(seed)

    def sample(items):
        return items if len(items) <= 64 else rng.sample(items, 64)

    natural_ok = True
    companions = [AffineSubset.empty(space), AffineSubset.full(space), subset]
    for s0 in dict.fromkeys(companions):
        fs = hom_set_dq(s0, subset, budget)
        for f, alpha in sample([(f, a) for f in fs for a in lhs]):
            left = phi(s0, vy, cq_arrow(f).then(alpha))
            right = f.then(phi(subset, vy, alpha))
            natural_ok &= left == right
    targets = [y, Relation.identity(y.space)]
    if y.space.free.size:
        targets.append(Relation.from_partition(y.space, Partition.total(y.space.free.size)))
    for y1 in dict.fromkeys(targets):
        vy1 = vq_object(y1)
        gs = hom_set_rq(y, y1, budget)
        for g, alpha in sample([(g, a) for g in gs for a in lhs]):
            left = phi(subset, vy1, alpha.then(g))
            stray = AssertionFailure("induced map left the target point set")
            right = phi(subset, vy, alpha).then(induced(vy, vy1, g.witness, stray))
            natural_ok &= left == right
    return len(lhs), len(rhs), bijection_ok, natural_ok


def first_equal_rows(rows):
    """For each row of a list of rows, the index of the first equal row."""
    return [rows.index(row) for row in rows]


def refines(p, q):
    """Does the partition with labels p refine the one with labels q?"""
    first = {}
    return all(q[first.setdefault(lab, i)] == q[i] for i, lab in enumerate(p))


def stone_report(arity, generator, seed=2026):
    """The StoneReport of stone_demo, one congruence, subset and pair at a
    time, with brute_v and brute_c for V and C: V per congruence, C of each
    V, V(C(S)) per subset up to the first that is not closed, and refines
    per pair. The rng draws the subset codes and the pairs that stone_demo
    samples. Only the free algebra and its congruences come from the
    package."""
    from affinekit.core import all_congruences
    from affinekit.free import ground_space
    from affinekit.instances import StoneReport

    space = ground_space(generator, generator, arity)
    rows, npts = space.ev.tolist(), space.npoints
    congruences = all_congruences(space.free.as_algebra())

    def v(labels):
        glued = [(p, q) for p in range(len(labels)) for q in range(p) if labels[p] == labels[q]]
        return brute_v(rows, npts, glued)

    solutions = {th.labels: v(th.labels) for th in congruences}
    closed = set(solutions.values())
    all_fixed = all(brute_c(rows, pts) == th for th, pts in solutions.items())
    subset_count = 2 ** npts
    rng = random.Random(seed)
    if subset_count <= 2 ** 16:
        codes = range(subset_count)
    else:
        codes = sorted({rng.randrange(subset_count) for _ in range(4096)})
    subsets_checked, all_subsets_closed = 0, True
    for code in codes:
        s = tuple(a for a in range(npts) if code >> a & 1)
        subsets_checked += 1
        if v(brute_c(rows, s)) != s:
            all_subsets_closed = False
            break
    pairs = [(a.labels, b.labels) for a in congruences for b in congruences]
    if len(pairs) > 4096:
        pairs = rng.sample(pairs, 4096)
    order_ok = all(refines(a, b) == (set(solutions[b]) <= set(solutions[a])) for a, b in pairs)
    return StoneReport(
        arity=arity,
        congruence_count=len(congruences),
        closed_count=len(closed),
        subset_count=subset_count,
        all_fixed=all_fixed,
        all_subsets_closed=all_subsets_closed,
        subsets_checked=subsets_checked,
        bijective=(len(closed) == len(congruences) and all_subsets_closed
                   and len(congruences) == subset_count),
        order_reversing_ok=order_ok,
        pairs_checked=len(pairs),
    )


# Operation tables for the builtin two-element and cyclic algebras,
# written out longhand so nothing is shared with the package.
BOOL2 = {
    "and": (2, (0, 0, 0, 1)),
    "or": (2, (0, 1, 1, 1)),
    "not": (1, (1, 0)),
    "0": (0, (0,)),
    "1": (0, (1,)),
}
DISTLAT2 = {
    "and": (2, (0, 0, 0, 1)),
    "or": (2, (0, 1, 1, 1)),
    "0": (0, (0,)),
    "1": (0, (1,)),
}
SEMILAT2 = {"and": (2, (0, 0, 0, 1))}
Z2 = {
    "add": (2, (0, 1, 1, 0)),
    "neg": (1, (0, 1)),
    "0": (0, (0,)),
}
Z4 = {
    "add": (2, tuple((i + j) % 4 for i in range(4) for j in range(4))),
    "neg": (1, (0, 3, 2, 1)),
    "0": (0, (0,)),
}
IMPL2 = {  # two-element implication algebra dressed in the z2 signature
    "add": (2, (1, 1, 0, 1)),
    "neg": (1, (0, 1)),
    "0": (0, (0,)),
}


def relation_fault(size, pairs):
    """The message for the first bad pair of a relation on size elements,
    checked pair by pair: its range, then its order after the pair before
    it. None when every pair is good."""
    last = None
    for p in pairs:
        if not all(0 <= v < size for v in p):
            return "relation pair outside the free algebra"
        if last is not None and not last < p:
            return "pairs must be sorted and distinct"
        last = p
    return None


def term_pointwise(space, term):
    """The element of F(n) that term denotes, by the route cli.term_to_element
    took before it evaluated the term once in F(n): the term evaluated in
    the generator at every point of G^n, in code order, then that value
    table looked up among F(n)'s elements. Errors are those of the first
    point's evaluation."""
    from affinekit.core import decode_point, evaluate_term

    g, n = space.free.generator, space.free.arity
    table = tuple(
        evaluate_term(g, term, decode_point(p, g.size, n)) for p in range(g.size ** n)
    )
    return space.free.index_of_table(table)


if __name__ == "__main__":
    print("bool2 clone sizes:", [len(brute_clone(BOOL2, 2, n)) for n in range(4)])
    print("  == all functions:", [
        brute_clone(BOOL2, 2, n) == frozenset(all_boolean_functions(n))
        for n in range(4)
    ])
    print("distlat2 clone sizes:", [len(brute_clone(DISTLAT2, 2, n)) for n in range(4)])
    print("  == monotone:", [
        brute_clone(DISTLAT2, 2, n) == monotone_tables(n) for n in range(4)
    ])
    print("semilat2 clone sizes:", [len(brute_clone(SEMILAT2, 2, n)) for n in range(4)])
    print("  == subset-ANDs:", [
        brute_clone(SEMILAT2, 2, n) == semilattice_tables(n) for n in range(1, 4)
    ])
    print("z2 clone sizes:", [len(brute_clone(Z2, 2, n)) for n in range(4)])
    print("  == linear:", [brute_clone(Z2, 2, n) == linear_tables(n, 2) for n in range(4)])
    print("z4 clone sizes:", [len(brute_clone(Z4, 4, n)) for n in range(3)])
    print("  == linear:", [brute_clone(Z4, 4, n) == linear_tables(n, 4) for n in range(3)])

    # congruence counts of the free algebras, via exhaustive partition filter
    # F_bool2(1) is the 4-element Boolean algebra [x, not x, 0, 1]
    fb1 = {
        "and": (2, tuple(
            encode((min(a0, b0), min(a1, b1)), 2)
            for a0, a1 in ((0, 1), (1, 0), (0, 0), (1, 1))
            for b0, b1 in ((0, 1), (1, 0), (0, 0), (1, 1))
        )),
    }
    for label, ops, k, n in [
        ("bool2 F(1)", BOOL2, 2, 1),
        ("semilat2 F(1)", SEMILAT2, 2, 1),
        ("semilat2 F(2)", SEMILAT2, 2, 2),
        ("z2 F(1)", Z2, 2, 1),
        ("z2 F(2)", Z2, 2, 2),
        ("z4 F(1)", Z4, 4, 1),
        ("distlat2 F(1)", DISTLAT2, 2, 1),
        ("distlat2 F(2)", DISTLAT2, 2, 2),
    ]:
        fops, size = free_as_algebra(ops, k, n)
        cons = brute_congruences(fops, size)
        print(f"Con({label}): carrier {size}, {len(cons)} congruences")

    print("homs F_z2(2) -> impl2:", len(brute_homs(*free_as_algebra(Z2, 2, 2), *((IMPL2, 2)))))
    fz2, sz = free_as_algebra(Z2, 2, 2)
    print("homs F_z2(2) -> z2:", len(brute_homs(fz2, sz, Z2, 2)))

    fb2, szb = free_as_algebra(BOOL2, 2, 2)
    print("Con(bool2 F(2)) via ideals:",
          len(boolean_ideal_congruences(fb2["and"][1], fb2["or"][1], fb2["not"][1], szb)))
    fz4, sz4 = free_as_algebra(Z4, 4, 2)
    print("Con(z4 F(2)) via subgroups:", len(abelian_subgroup_congruences(fz4["add"][1], sz4)))
    fz22, szz = free_as_algebra(Z2, 2, 2)
    print("Con(z2 F(2)) via subgroups:", len(abelian_subgroup_congruences(fz22["add"][1], szz)))
