"""Command-line front end.

Each subcommand loads a generator algebra (builtin name or JSON file),
optionally a different evaluation ground, builds the free algebra at the
requested arity, and prints either readable text or canonical JSON
(sorted keys, stable layout). Exit codes: 0 success, 1 domain errors
(unknown symbols, arity or range problems, inputs outside the variety),
2 malformed input or bad usage, 3 budget exceeded, 4 a verified theorem
check failed, which means a bug in this package rather than in the input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .adjunction import representability_check, verify_adjunction
from .core import (
    DEFAULT_BUDGET,
    App,
    FiniteAlgebra,
    Partition,
    Var,
    _digits,
    decode_point,
    encode_point,
    evaluate_term,
    generate_congruence,
)
from .errors import (
    AffineError,
    BijectionFailure,
    BudgetExceeded,
    ParseError,
    TheoremViolation,
    ValidationError,
)
from .free import ground_space
from .galois import (
    AffineSubset,
    PresentedAlgebra,
    Relation,
    c_operator,
    nullstellensatz_check,
    radical_of_partition,
    v_operator,
    zariski_closure,
    zariski_report,
)
from .instances import BUILTINS, builtin, classify_fixed, list_builtins, stone_demo
from .version import VERSION


# --------------------------------------------------------------------------
# input parsing


def algebra_from_dict(data, fallback_name=""):
    if not isinstance(data, dict):
        raise ValidationError("algebra file must hold a JSON object")
    size = data.get("size")
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ValidationError("'size' must be an integer >= 1")
    ops = data.get("ops")
    if not isinstance(ops, list):
        raise ValidationError("'ops' must be a list of operation objects")
    triples = []
    for entry in ops:
        if not isinstance(entry, dict):
            raise ValidationError("each operation must be a JSON object")
        name = entry.get("name")
        arity = entry.get("arity")
        table = entry.get("table")
        if not isinstance(name, str) or not name:
            raise ValidationError("operation 'name' must be a non-empty string")
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
            raise ValidationError(f"operation {name!r}: 'arity' must be an integer >= 0")
        if not isinstance(table, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in table
        ):
            raise ValidationError(f"operation {name!r}: 'table' must be a list of integers")
        triples.append((name, arity, tuple(table)))
    label = data.get("name", fallback_name)
    if not isinstance(label, str):
        raise ValidationError("'name' must be a string")
    return FiniteAlgebra.make(size, triples, name=label)


def parse_algebra_file(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return algebra_from_dict(data, fallback_name=path)


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i:
                raise ParseError(f"unexpected character {ch!r} in term")
            tokens.append(text[i:j])
            i = j
    return tokens


def parse_term(text):
    """Terms are written functionally: and(x0, not(x1)), add(x0, 0), 1.
    Names x0, x1, .. are variables; anything else must be an operation."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"term ended early: {text!r}")
        pos += 1
        return tokens[pos - 1]

    def term():
        tok = take()
        if tok in "(),":
            raise ParseError(f"unexpected {tok!r} in {text!r}")
        if len(tok) > 1 and tok[0] == "x" and tok[1:].isdigit():
            return Var(int(tok[1:]))
        args = []
        if peek() == "(":
            take()
            if peek() != ")":
                args.append(term())
                while peek() == ",":
                    take()
                    args.append(term())
            if peek() != ")":
                raise ParseError(f"missing ')' in {text!r}")
            take()
        return App(tok, tuple(args))

    out = term()
    if pos != len(tokens):
        raise ParseError(f"trailing input after term in {text!r}")
    return out


def term_to_element(space, term):
    g = space.free.generator
    k = g.size
    n = space.free.arity
    table = tuple(
        evaluate_term(g, term, decode_point(p, k, n)) for p in range(k ** n)
    )
    return space.free.index_of_table(table)


def parse_points(text, space):
    text = (text or "").strip()
    if not text:
        return AffineSubset.empty(space)
    k = space.ground.size
    codes = []
    for chunk in text.split(";"):
        parts = [p.strip() for p in chunk.split(",")]
        try:
            coords = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(f"point {chunk!r} is not a comma-separated integer tuple") from None
        if len(coords) != space.arity:
            raise ValidationError(
                f"point {chunk!r} has {len(coords)} coordinates, wanted {space.arity}"
            )
        if not all(0 <= c < k for c in coords):
            raise ValidationError(f"point {chunk!r} has coordinates outside the ground")
        codes.append(encode_point(coords, k))
    return AffineSubset.of(space, codes)


def parse_relation(space, pairs_text, equations_text):
    pairs = []
    text = (pairs_text or "").strip()
    if text:
        for chunk in text.split(";"):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise ParseError(f"pair {chunk!r} must be two comma-separated indices")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ParseError(f"pair {chunk!r} is not a pair of integers") from None
    text = (equations_text or "").strip()
    if text:
        for chunk in text.split(";"):
            sides = chunk.split("=")
            if len(sides) != 2:
                raise ParseError(f"equation {chunk!r} must have exactly one '='")
            lhs = term_to_element(space, parse_term(sides[0]))
            rhs = term_to_element(space, parse_term(sides[1]))
            pairs.append((lhs, rhs))
    return Relation.of(space, pairs)


# --------------------------------------------------------------------------
# shared option handling


def _add_generator_opts(p):
    p.add_argument("--algebra", metavar="FILE", help="generator algebra from a JSON file")
    p.add_argument(
        "--builtin", metavar="NAME",
        help=f"generator algebra by name ({', '.join(list_builtins())})",
    )


def _add_common_opts(p, ground=True):
    if ground:
        p.add_argument(
            "--ground", metavar="FILE_OR_NAME",
            help="evaluation algebra (defaults to the generator)",
        )
    p.add_argument("--arity", type=int, default=1, help="number of free generators")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="work cap before giving up (default %(default)s)")
    p.add_argument("--json", action="store_true", help="canonical JSON output")


def _load_ref(value):
    if value in BUILTINS:
        return builtin(value)
    return parse_algebra_file(value)


def _generator(args, default=None):
    if getattr(args, "algebra", None) and getattr(args, "builtin", None):
        raise ValidationError("give either --algebra or --builtin, not both")
    if getattr(args, "algebra", None):
        return parse_algebra_file(args.algebra)
    if getattr(args, "builtin", None):
        return builtin(args.builtin)
    if default is not None:
        return default
    raise ValidationError("a generator algebra is needed: --algebra FILE or --builtin NAME")


def _space(args, default_generator=None, arity=None):
    g = _generator(args, default=default_generator)
    a = _load_ref(args.ground) if getattr(args, "ground", None) else g
    n = args.arity if arity is None else arity
    if n < 0:
        raise ValidationError("--arity must be >= 0")
    return ground_space(g, a, n, args.budget)


def _blocks_payload(space, part):
    blocks = [list(b) for b in part.blocks()]
    terms = [[space.free.elements[i].term_string() for i in b] for b in blocks]
    return blocks, terms


# --------------------------------------------------------------------------
# subcommand handlers: each returns (payload, text lines). Where the text
# costs real work, the lines come from a generator, so --json never builds
# them.


def _cmd_builtins(args):
    rows = []
    for name in list_builtins():
        alg = builtin(name)
        rows.append({
            "name": name,
            "size": alg.size,
            "ops": [{"name": s, "arity": r} for s, r in alg.signature.symbols],
        })
    lines = [
        f"{r['name']}: {r['size']} elements, ops "
        + ", ".join(f"{o['name']}/{o['arity']}" for o in r["ops"])
        for r in rows
    ]
    return {"builtins": rows}, lines


def _cmd_free(args):
    space = _space(args)
    free = space.free
    elements = [
        {"index": i, "table": list(e.table), "term": e.term_string()}
        for i, e in enumerate(free.elements)
    ]
    payload = {
        "generator": free.generator.name or "(file)",
        "arity": free.arity,
        "size": free.size,
        "elements": elements,
    }
    lines = [f"free algebra on {free.arity} generators: {free.size} elements"]
    lines += [f"  {e['index']}: {e['term']}  table {e['table']}" for e in elements]
    return payload, lines


def _cmd_cop(args):
    space = _space(args)
    s = parse_points(args.points, space)
    part = c_operator(s)
    blocks, terms = _blocks_payload(space, part)
    payload = {"points": [list(p) for p in s.decoded()],
               "num_blocks": part.num_blocks, "blocks": blocks, "block_terms": terms}
    lines = [f"kernel of evaluation at {len(s.points)} points: {part.num_blocks} classes"]
    lines += [f"  class {i}: " + ", ".join(t) for i, t in enumerate(terms)]
    return payload, lines


def _cmd_vop(args):
    space = _space(args)
    rel = parse_relation(space, args.pairs, args.equations)
    s = v_operator(rel)
    payload = {"pairs": [list(p) for p in rel.pairs],
               "count": len(s.points),
               "points": [list(p) for p in s.decoded()]}
    lines = [f"solution set of {len(rel.pairs)} pairs: {len(s.points)} points"]
    lines += [f"  {','.join(map(str, p))}" for p in s.decoded()]
    return payload, lines


def _cmd_closure(args):
    space = _space(args)
    s = parse_points(args.points, space)
    closed = zariski_closure(s)
    payload = {"points": [list(p) for p in s.decoded()],
               "closure": [list(p) for p in closed.decoded()],
               "is_closed": closed == s}
    lines = [f"closure has {len(closed.points)} points"
             + (" (already closed)" if closed == s else "")]
    lines += [f"  {','.join(map(str, p))}" for p in closed.decoded()]
    return payload, lines


def _cmd_radical(args):
    space = _space(args)
    rel = parse_relation(space, args.pairs, args.equations)
    plain = Partition.from_pairs(space.free.size, rel.pairs)
    rad = radical_of_partition(space, plain)
    blocks, terms = _blocks_payload(space, rad)
    payload = {"pairs": [list(p) for p in rel.pairs],
               "num_blocks": rad.num_blocks, "blocks": blocks,
               "block_terms": terms, "fixed": rad == plain}
    lines = [f"radical has {rad.num_blocks} classes"
             + (" (the relation's own closure)" if rad == plain else "")]
    lines += [f"  class {i}: " + ", ".join(t) for i, t in enumerate(terms)]
    return payload, lines


def _cmd_null(args):
    space = _space(args)
    rel = parse_relation(space, args.pairs, args.equations)
    theta = generate_congruence(space.free.as_algebra(), rel.pairs)
    report = nullstellensatz_check(PresentedAlgebra(space, theta))
    blocks, terms = _blocks_payload(space, theta)
    payload = {"congruence_blocks": blocks, "block_terms": terms,
               "fixed": report.fixed, "radical": report.radical,
               "subdirect": report.subdirect, "holds": report.holds}
    lines = [
        f"congruence generated by the input has {theta.num_blocks} classes",
        f"  point-set-fixed:    {report.fixed}",
        f"  equals its radical: {report.radical}",
        f"  subdirect in point quotients: {report.subdirect}",
        f"  three conditions agree: {report.holds}",
    ]
    return payload, lines


def _cmd_zariski(args):
    space = _space(args)
    rep = zariski_report(space, args.budget)
    points = _digits((space.ground.size,) * space.arity).T.tolist()
    decoded = [[points[a] for a in s] for s in rep.closed_sets]
    payload = {"count": len(rep.closed_sets), "closed_sets": decoded,
               "is_topology": rep.is_topology, "union_closed": rep.union_closed,
               "matches_discrete": rep.matches_discrete}

    def lines():
        yield (f"{len(rep.closed_sets)} closed sets; topology: {rep.is_topology}; "
               f"union-closed: {rep.union_closed}; discrete: {rep.matches_discrete}")
        for s in decoded:
            yield "  {" + "; ".join(",".join(map(str, p)) for p in s) + "}"

    return payload, lines()


def _cmd_adjoint(args):
    space = _space(args)
    m = args.target_arity if args.target_arity is not None else args.arity
    target_space = _space(args, arity=m)
    s = parse_points(args.points, space)
    y = parse_relation(target_space, args.pairs, args.equations)
    rep = verify_adjunction(s, y, args.budget)
    if not (rep.bijection_ok and rep.natural_ok):
        raise BijectionFailure("adjunction verification failed")
    payload = {"lhs": rep.lhs, "rhs": rep.rhs,
               "bijection_ok": rep.bijection_ok, "natural_ok": rep.natural_ok}
    lines = [
        f"presented-side arrows: {rep.lhs}",
        f"point-side arrows:     {rep.rhs}",
        f"bijection: {rep.bijection_ok}; naturality: {rep.natural_ok}",
    ]
    return payload, lines


def _cmd_represent(args):
    space = _space(args)
    rel = parse_relation(space, args.pairs, args.equations)
    rep = representability_check(rel, stable=args.assume_stable, budget=args.budget)
    if not rep.match and not args.assume_stable:
        raise BijectionFailure("representable hom count missed the quotient size")
    payload = {"hom_count": rep.hom_count, "quotient_size": rep.quotient_size,
               "match": rep.match}
    lines = [f"arrows into the one-generator identity object: {rep.hom_count}",
             f"closure-quotient size: {rep.quotient_size}",
             f"match: {rep.match}"]
    return payload, lines


def _cmd_stone(args):
    g = _generator(args, default=builtin("bool2"))
    rep = stone_demo(args.arity, args.budget, generator=g)
    payload = {
        "arity": rep.arity,
        "congruences": rep.congruence_count,
        "closed_sets": rep.closed_count,
        "subsets": rep.subset_count,
        "all_fixed": rep.all_fixed,
        "all_subsets_closed": rep.all_subsets_closed,
        "subsets_checked": rep.subsets_checked,
        "bijective": rep.bijective,
        "order_reversing": rep.order_reversing_ok,
        "pairs_checked": rep.pairs_checked,
        "ok": rep.bijective and rep.all_fixed and rep.order_reversing_ok,
    }
    lines = [
        f"arity {rep.arity}: {rep.congruence_count} congruences, "
        f"{rep.closed_count} closed sets, {rep.subset_count} subsets",
        f"  all congruences fixed: {rep.all_fixed}",
        f"  all subsets closed:    {rep.all_subsets_closed} "
        f"({rep.subsets_checked} checked)",
        f"  correspondence bijective: {rep.bijective}",
        f"  order-reversing: {rep.order_reversing_ok} ({rep.pairs_checked} pairs)",
    ]
    return payload, lines


def _cmd_classify(args):
    space = _space(args)
    rep = classify_fixed(space.free.generator, space.ground, args.arity, args.budget)
    entries = []
    for e in rep.entries:
        blocks = [list(b) for b in e.partition.blocks()]
        # a fixed congruence is its own radical
        radical = blocks if e.fixed else [list(b) for b in e.radical.blocks()]
        entries.append({"blocks": blocks, "fixed": e.fixed, "radical_blocks": radical})
    payload = {"total": rep.total, "fixed_count": rep.fixed_count, "entries": entries}

    def lines():
        yield f"{rep.fixed_count} of {rep.total} congruences are point-set-fixed"
        for e in entries:
            tag = "fixed  " if e["fixed"] else "widens "
            yield "  " + tag + " | ".join(",".join(map(str, b)) for b in e["blocks"])
            if not e["fixed"]:
                rdesc = " | ".join(",".join(map(str, b)) for b in e["radical_blocks"])
                yield f"         radical: {rdesc}"

    return payload, lines()


# --------------------------------------------------------------------------
# output


# Byte classes of the one-line JSON text: 1 opens, -1 closes, 0 separates
# items, 2 is anything else.
_STEP = np.full(128, 2, dtype=np.int8)
_STEP[[ord("["), ord("{")]] = 1
_STEP[[ord("]"), ord("}")]] = -1
_STEP[ord(",")] = 0


def _dumps(payload):
    """json.dumps(payload, indent=2, sort_keys=True), from the C encoder's
    one-line ASCII text: outside strings, a newline and two spaces per level
    go after each '[', '{' and ',' and before each ']' and '}', except
    inside an empty [] or {}. Temporaries go as soon as they are spent, so
    the peak stays near the size of the output."""
    raw = json.dumps(payload, sort_keys=True, separators=(",", ": "))
    text = np.frombuffer(raw.encode("ascii"), dtype=np.uint8)
    # with escaped backslashes and quotes blanked, quotes delimit strings
    plain = raw.replace("\\\\", "__").replace('\\"', "__").encode("ascii")
    quote = np.frombuffer(plain, dtype=np.uint8) == ord('"')
    del raw, plain
    step = _STEP[text]
    step[np.cumsum(quote, dtype=np.uint8) & 1 == 1] = 2  # inside a string
    del quote
    at = np.flatnonzero(step < 2)
    step = step[at]
    depth = np.cumsum(step, dtype=np.int32)
    empty = np.flatnonzero((step[:-1] == 1) & (step[1:] == -1) & (np.diff(at) == 1))
    keep = np.ones(len(at), dtype=bool)
    keep[empty] = keep[empty + 1] = False
    cut = (at + (step >= 0))[keep]  # an indent goes in before text[cut]
    width = 1 + 2 * depth[keep]
    del at, step, depth, keep
    size = len(text) + int(width.sum())
    # dest[j]: where text[j] lands, past every indent cut at or before j
    dest = np.zeros(len(text), dtype=np.int32 if size < 2**31 else np.int64)
    dest[cut] = width
    np.cumsum(dest, out=dest)
    dest += np.arange(len(text), dtype=dest.dtype)
    newline = dest[cut] - width
    del cut, width
    out = np.full(size, ord(" "), dtype=np.uint8)
    out[dest] = text
    del dest
    out[newline] = ord("\n")
    return str(out, "ascii")


# --------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="affinekit",
        description="finite-algebra closure operators, transforms, and hom-set checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, generator=True, ground=True, points=False,
            relation=False):
        p = sub.add_parser(name, help=help_)
        if generator:
            _add_generator_opts(p)
        _add_common_opts(p, ground=ground)
        if points:
            p.add_argument("--points", default="",
                           help="semicolon-separated points, e.g. '0,1;1,0'")
        if relation:
            p.add_argument("--pairs", default="",
                           help="element-index pairs, e.g. '0,1;2,3'")
            p.add_argument("--equations", default="",
                           help="term equations, e.g. 'and(x0,x1)=x0'")
        p.set_defaults(handler=handler)
        return p

    p = sub.add_parser("builtins", help="list the built-in algebras")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_builtins)

    add("free", _cmd_free, "list the free algebra's term functions", ground=False)
    add("cop", _cmd_cop, "kernel congruence of evaluation at a point set", points=True)
    add("vop", _cmd_vop, "common solution set of a relation", relation=True)
    add("closure", _cmd_closure, "closure of a point set", points=True)
    add("radical", _cmd_radical, "radical congruence of a relation", relation=True)
    add("null", _cmd_null, "three-way fixed/radical/subdirect equivalence check",
        relation=True)
    add("zariski", _cmd_zariski, "enumerate closed sets and topology flags")
    p = add("adjoint", _cmd_adjoint, "two-sided hom-set count with naturality",
            points=True, relation=True)
    p.add_argument("--target-arity", type=int, default=None,
                   help="arity of the relation side (defaults to --arity)")
    p = add("represent", _cmd_represent, "hom count against the closure quotient",
            relation=True)
    p.add_argument("--assume-stable", action="store_true",
                   help="skip the translation-stability check")
    add("stone", _cmd_stone, "subsets/congruences correspondence demo", ground=False)
    add("classify", _cmd_classify, "which congruences are point-set-fixed")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        payload, lines = args.handler(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TheoremViolation as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AffineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = {"command": args.command, "version": VERSION, **payload}
        print(_dumps(payload))
    else:
        for line in lines:
            print(line)
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
