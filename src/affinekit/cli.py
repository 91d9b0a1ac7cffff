"""Command-line front end.

Each subcommand loads a generator algebra (builtin name or JSON file),
optionally a different evaluation ground, builds the free algebra at the
requested arity, and prints either readable text or canonical JSON
(sorted keys, stable layout). Exit codes: 0 success, 1 domain errors
(unknown symbols, arity or range problems, inputs outside the variety),
2 malformed input or bad usage, 3 budget exceeded, 4 a verified theorem
check failed, which means a bug in this package rather than in the input,
141 stdout closed before the output was written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .adjunction import representability_check, verify_adjunction
from .core import (
    DEFAULT_BUDGET,
    App,
    FiniteAlgebra,
    Var,
    _chunks,
    _digits,
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
    rel_closure,
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
    """The element of F(n) that the term denotes: its value at F(n)'s generators."""
    return evaluate_term(space.free, term, space.free.var_positions)


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
            pairs.append(tuple(term_to_element(space, parse_term(side)) for side in sides))
    return Relation.of(space, pairs)


# --------------------------------------------------------------------------
# shared option handling


def _add_command(sub, name):
    """The subparser of a command of _COMMANDS, with its options."""
    handler, help_, options = _COMMANDS[name]
    p = sub.add_parser(name, help=help_)
    p.set_defaults(handler=handler)
    if options is None:
        p.add_argument("--json", action="store_true")
        return
    p.add_argument("--algebra", metavar="FILE", help="generator algebra from a JSON file")
    p.add_argument("--builtin", metavar="NAME",
                   help=f"generator algebra by name ({', '.join(list_builtins())})")
    if "no-ground" not in options:
        p.add_argument("--ground", metavar="FILE_OR_NAME",
                       help="evaluation algebra (defaults to the generator)")
    p.add_argument("--arity", type=int, default=1, help="number of free generators")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="work cap before giving up (default %(default)s)")
    p.add_argument("--json", action="store_true", help="canonical JSON output")
    if "points" in options:
        p.add_argument("--points", default="", help="semicolon-separated points, e.g. '0,1;1,0'")
    if "relation" in options:
        p.add_argument("--pairs", default="", help="element-index pairs, e.g. '0,1;2,3'")
        p.add_argument("--equations", default="", help="term equations, e.g. 'and(x0,x1)=x0'")
    if "target-arity" in options:
        p.add_argument("--target-arity", type=int, default=None,
                       help="arity of the relation side (defaults to --arity)")
    if "assume-stable" in options:
        p.add_argument("--assume-stable", action="store_true",
                       help="skip the translation-stability check")


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
    n, flag = (args.arity, "--arity") if arity is None else (arity, "--target-arity")
    if n < 0:
        raise ValidationError(f"{flag} must be >= 0")
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
    k = free.generator.size

    def elements(d):
        ind, key = _indent(d), _indent(d + 1)
        values = [_indent(d + 2) + str(v) for v in range(k)]
        for chunk in _chunks(range(free.size), k ** free.arity):
            yield ",".join(f'{ind}{{{key}"index": {i},{key}"table": ['
                           + ",".join(map(values.__getitem__, free.elements[i].table))
                           + f'{key}],{key}"term": '
                           + json.dumps(free.elements[i].term_string()) + ind + "}"
                           for i in chunk)

    payload = {
        "generator": free.generator.name or "(file)",
        "arity": free.arity,
        "size": free.size,
        "elements": elements,
    }

    def lines():
        yield f"free algebra on {free.arity} generators: {free.size} elements"
        for i, e in enumerate(free.elements):
            yield f"  {i}: {e.term_string()}  table {list(e.table)}"

    return payload, lines()


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
    plain = rel_closure(rel)
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
    theta = generate_congruence(space.free, rel.pairs)
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

    def closed_sets(d):
        for bits in rep._bits():
            yield _json_sets(bits, points, d)

    payload = {"count": rep._count, "closed_sets": closed_sets,
               "is_topology": rep.is_topology, "union_closed": rep.union_closed,
               "matches_discrete": rep.matches_discrete}

    def lines():
        yield (f"{rep._count} closed sets; topology: {rep.is_topology}; "
               f"union-closed: {rep.union_closed}; discrete: {rep.matches_discrete}")
        texts = [",".join(map(str, p)) for p in points]
        for bits in rep._bits():
            yield _member_texts(bits, texts, "  {", "; ", "}", "  {}", "\n")

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
    k = space.free.size

    def described(render):
        """(blocks, fixed, radical blocks) of each entry, the block lists as
        texts by render, a chunk at a time. A fixed congruence is its own
        radical; any other radical's text is made once, when first needed."""
        radical = {}
        for rows, fixed, inv in zip(*(_chunks(a, k) for a in (rep._rows, rep._fixed, rep._inv))):
            new = sorted(set(inv[~fixed].tolist()) - radical.keys())
            radical.update(zip(new, render(rep._radicals[new])))
            yield [(b, f, b if f else radical[i])
                   for b, f, i in zip(render(rows), fixed.tolist(), inv.tolist())]

    def entries(d):
        ind, key = _indent(d), _indent(d + 1)
        for chunk in described(lambda rows: _json_blocks(rows, d + 1)):
            yield ",".join(f'{ind}{{{key}"blocks": {b},{key}"fixed": {json.dumps(f)},'
                           f'{key}"radical_blocks": {r}{ind}}}' for b, f, r in chunk)

    payload = {"total": rep.total, "fixed_count": rep.fixed_count, "entries": entries}

    def lines():
        yield f"{rep.fixed_count} of {rep.total} congruences are point-set-fixed"
        texts = [str(x) for x in range(k)]
        for chunk in described(lambda rows: _block_texts(rows, texts, "", ",", "", " | ")):
            for b, f, r in chunk:
                yield ("  fixed  " if f else "  widens ") + b
                if not f:
                    yield f"         radical: {r}"

    return payload, lines()


# --------------------------------------------------------------------------
# output: the text of json.dumps(payload, indent=2, sort_keys=True), written a
# chunk at a time. A long list in a payload is a function of its items' depth
# that yields their texts a chunk of items at a time: each item with its
# newline and indent, the items joined by commas. An item's text is one join
# of the texts of element indices or points at their depth, made once per
# chunk.


def _indent(depth):
    return "\n" + "  " * depth


def _json_pieces(value, depth=0):
    """The text of json.dumps(value, indent=2, sort_keys=True) at depth, in
    pieces; dicts have string keys, and their callable values are long
    lists."""
    if isinstance(value, dict) and value:
        sep = "{"
        for key, item in sorted(value.items()):
            yield f"{sep}{_indent(depth + 1)}{json.dumps(key)}: "
            yield from _json_pieces(item, depth + 1)
            sep = ","
        yield _indent(depth) + "}"
    elif callable(value):
        sep = "["
        for text in value(depth + 1):
            if text:
                yield sep + text
                sep = ","
        yield "[]" if sep == "[" else _indent(depth) + "]"
    else:
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", _indent(depth))


def _block_texts(rows, texts, open_, sep, close, cut):
    """The blocks of each least-member row in order of least member, joined
    by cut, each block its members' texts joined by sep between open_ and
    close. One stable argsort lines up the members of each block."""
    k = len(texts)
    if not k:
        return [""] * len(rows)
    table = ([close + cut + open_ + t for t in texts] + [sep + t for t in texts]
             + [open_ + t for t in texts])
    order = np.argsort(rows, axis=1, kind="stable")
    tok = order + k * (np.diff(np.take_along_axis(rows, order, axis=1), prepend=-1) == 0)
    tok[:, 0] += 2 * k
    return ["".join(map(table.__getitem__, r)) + close for r in tok.tolist()]


def _member_texts(bits, texts, open_, sep, close, empty, between):
    """The rows of a 0/1 matrix as one text, joined by between: each row the
    texts of its set columns joined by sep between open_ and close, or empty
    when none is set."""
    n = len(texts)
    bits = bits[:, :n].astype(bool)
    table = ([sep + t for t in texts] + [open_ + t for t in texts]
             + [close + between, empty + between, close, empty])
    tok = np.where(bits, np.arange(n) + n * (np.cumsum(bits, axis=1) == 1), -1)
    tok = np.c_[tok, np.where(bits.any(axis=1), 2 * n, 2 * n + 1)]
    tok[-1:, n] += 2  # the last row without between
    return "".join(map(table.__getitem__, tok[tok >= 0].tolist()))


def _json_blocks(rows, depth):
    """The JSON texts at depth of the blocks of least-member rows."""
    texts = [_indent(depth + 2) + str(x) for x in range(rows.shape[1])]
    sub = _indent(depth + 1)
    return [f"[{b}{_indent(depth)}]" if b else "[]"
            for b in _block_texts(rows, texts, sub + "[", ",", sub + "]", ",")]


def _json_sets(bits, points, depth):
    """The JSON text of the point sets of the rows of a 0/1 matrix as items
    at depth of a list."""
    ind, sub = _indent(depth), _indent(depth + 1)
    texts = [sub + json.dumps(p, indent=2).replace("\n", sub) for p in points]
    return _member_texts(bits, texts, ind + "[", ",", ind + "]", ind + "[]", ",")


# --------------------------------------------------------------------------


# name -> (handler, help, option words), in the order of the help text. All
# but builtins (None: --json alone) take the generator, --ground unless
# "no-ground", --arity, --budget, --json, and the options their words name
_COMMANDS = {
    "builtins": (_cmd_builtins, "list the built-in algebras", None),
    "free": (_cmd_free, "list the free algebra's term functions", "no-ground"),
    "cop": (_cmd_cop, "kernel congruence of evaluation at a point set", "points"),
    "vop": (_cmd_vop, "common solution set of a relation", "relation"),
    "closure": (_cmd_closure, "closure of a point set", "points"),
    "radical": (_cmd_radical, "radical congruence of a relation", "relation"),
    "null": (_cmd_null, "three-way fixed/radical/subdirect equivalence check", "relation"),
    "zariski": (_cmd_zariski, "enumerate closed sets and topology flags", ""),
    "adjoint": (_cmd_adjoint, "two-sided hom-set count with naturality",
                "points relation target-arity"),
    "represent": (_cmd_represent, "hom count against the closure quotient",
                  "relation assume-stable"),
    "stone": (_cmd_stone, "subsets/congruences correspondence demo", "no-ground"),
    "classify": (_cmd_classify, "which congruences are point-set-fixed", ""),
}


def _build_parser(argv=()):
    """The parser of the command that argv names, or of every command when
    it names none (help, a missing or an unknown command). The one-command
    parser's metavar lists every command, so its usage text is the same."""
    parser = argparse.ArgumentParser(
        prog="affinekit",
        description="finite-algebra closure operators, transforms, and hom-set checks",
    )
    names = list(argv[:1]) if argv[:1] and argv[0] in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _add_command(sub, name)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
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
    try:
        if args.json:
            for piece in _json_pieces({"command": args.command, "version": VERSION, **payload}):
                sys.stdout.write(piece)
            sys.stdout.write("\n")
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # devnull, so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
