import hashlib
import json
import os
import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import affinekit
from affinekit import core
from affinekit.cli import (
    _build_parser,
    _json_blocks,
    _json_pieces,
    _json_sets,
    algebra_from_dict,
    main,
    parse_term,
    term_to_element,
)
from affinekit.core import App, Var
from affinekit.errors import (AffineError, ArityMismatch, ParseError, UnknownSymbol,
                              VariableOutOfRange)
from affinekit.free import ground_space

import oracles
from test_clone import generators


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_algebra(tmp_path, name, size, opdefs, filename=None):
    data = {
        "name": name,
        "size": size,
        "ops": [
            {"name": s, "arity": r, "table": list(t)} for s, (r, t) in opdefs.items()
        ],
    }
    path = tmp_path / (filename or f"{name}.json")
    path.write_text(json.dumps(data))
    return str(path)


# --- term parser ------------------------------------------------------------


def test_parse_term_shapes():
    assert parse_term("x0") == Var(0)
    assert parse_term("x12") == Var(12)
    assert parse_term("0") == App("0", ())
    assert parse_term("and(x0, not(x1))") == App(
        "and", (Var(0), App("not", (Var(1),)))
    )
    assert parse_term(" add ( x0 , 0 ) ") == App("add", (Var(0), App("0", ())))


def test_parse_term_errors():
    for bad in ["", "and(x0", "and(x0,)", "x0)", "and(x0,x1)x0", "f(*)", "(x0)"]:
        with pytest.raises(ParseError):
            parse_term(bad)


def outcome(f, *args):
    """f's result, or the type and message of the AffineError it raises."""
    try:
        return f(*args)
    except AffineError as exc:
        return type(exc), str(exc)


@st.composite
def terms(draw, g, n, depth=3):
    """A term over g's symbols and x0..x(n-1); now and then a fault: an
    unknown symbol, a wrong number of arguments or a variable out of range."""
    kind = draw(st.sampled_from(["var", "app", "app", "app", "unknown", "arity", "range"]))
    if kind == "unknown":
        return App("nope", ())
    if kind == "range":
        return Var(n + draw(st.integers(0, 2)))
    if kind == "var" or depth == 0:
        return Var(draw(st.integers(0, max(n - 1, 0))))  # x0 is out of range at n = 0
    sym, r = draw(st.sampled_from(g.signature.symbols))
    if kind == "arity":
        r = r + 1 if r == 0 or draw(st.booleans()) else r - 1
    return App(sym, tuple(draw(terms(g, n, depth - 1)) for _ in range(r)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_term_to_element_matches_the_pointwise_route_on_random_algebras(data):
    g, n = data.draw(generators())
    space = ground_space(g, g, n)
    term = data.draw(terms(g, n))
    got = outcome(term_to_element, space, term)
    assert got == outcome(oracles.term_pointwise, space, term)
    assert type(got) in (int, tuple)


@pytest.mark.parametrize("name, n, texts", [
    ("bool2", 2, ["x0", "1", "and(x0, not(x1))", "or(x1, and(x0, 1))",
                  "xor(x0, x0)", "not(x0, x1)", "x2"]),
    ("z4", 1, ["x0", "0", "add(x0, neg(x0))", "add(add(x0, x0), 0)",
               "mul(x0, x0)", "neg()", "x1"]),
])
def test_term_to_element_matches_the_pointwise_route(name, n, texts):
    space = ground_space(affinekit.builtin(name), affinekit.builtin(name), n)
    got = [outcome(term_to_element, space, parse_term(text)) for text in texts]
    assert got == [outcome(oracles.term_pointwise, space, parse_term(text)) for text in texts]
    assert all(type(e) is int for e in got[:4])
    assert [e[0] for e in got[4:]] == [UnknownSymbol, ArityMismatch, VariableOutOfRange]


# --- golden outputs ---------------------------------------------------------


def test_cop_golden_json(capsys):
    code, out, _ = run(capsys, ["cop", "--builtin", "bool2", "--points", "1", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "command": "cop",
        "version": "0.1.0",
        "points": [[1]],
        "num_blocks": 2,
        "blocks": [[0, 3], [1, 2]],
        "block_terms": [["x0", "1"], ["not(x0)", "0"]],
    }


def test_cop_golden_text(capsys):
    code, out, _ = run(capsys, ["cop", "--builtin", "bool2", "--points", "1"])
    assert code == 0
    assert out.splitlines() == [
        "kernel of evaluation at 1 points: 2 classes",
        "  class 0: x0, 1",
        "  class 1: not(x0), 0",
    ]


def test_vop_equation_matches_pairs(capsys):
    argv_eq = ["vop", "--builtin", "z4", "--ground", "z2", "--equations", "x0=0"]
    argv_ix = ["vop", "--builtin", "z4", "--ground", "z2", "--pairs", "0,3"]
    code_a, out_a, _ = run(capsys, argv_eq + ["--json"])
    code_b, out_b, _ = run(capsys, argv_ix + ["--json"])
    assert code_a == code_b == 0
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["points"] == b["points"] == [[0]]
    assert a["pairs"] == b["pairs"] == [[0, 3]]


def test_null_golden(capsys):
    code, out, _ = run(capsys, [
        "null", "--builtin", "z4", "--ground", "z2", "--pairs", "0,2", "--json",
    ])
    assert code == 0
    assert json.loads(out) == {
        "command": "null",
        "version": "0.1.0",
        "congruence_blocks": [[0, 2], [1, 3]],
        "block_terms": [["x0", "neg(x0)"], ["add(x0, x0)", "0"]],
        "fixed": True,
        "radical": True,
        "subdirect": True,
        "holds": True,
    }


def test_zariski_golden(capsys):
    code, out, _ = run(capsys, ["zariski", "--builtin", "z4", "--arity", "1", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "command": "zariski",
        "version": "0.1.0",
        "count": 3,
        "closed_sets": [[[0]], [[0], [2]], [[0], [1], [2], [3]]],
        "is_topology": False,
        "union_closed": True,
        "matches_discrete": False,
    }


# sha256 of `zariski --builtin <g> --arity <n> --json` stdout, recorded from
# the subset-scan and lattice-walk routes this command used before
ZARISKI_JSON_SHA256 = {
    ("z4", 3): "f8330c6ed5a8d88693711e33ebc0279fe47a41ae09a7cae3d6552a63aea2290a",
    ("semilat2", 4): "66cbac6a09d1ed3d4bb71d77a41781a54e3af8a9d5226f5df826085f08d7951a",
    ("bool2", 3): "f6683e67853d8ca32f9cc8e33c74747f0df1fc8c62f49bea15daa306400115d2",
    ("z4", 2): "623c98de8a9293bdf1edd10ff01ca421bd8164dedda9adf57fd7db833e438d58",
    ("semilat2", 3): "1bc2fdc900cb5d75306ddc16a1b1184fd3cd42ead1c0ac7d6e936f4289cc3a9c",
}


@pytest.mark.parametrize("name, n", sorted(ZARISKI_JSON_SHA256))
def test_zariski_json_matches_frozen_digest(capsys, name, n):
    code, out, _ = run(capsys, ["zariski", "--builtin", name, "--arity", str(n), "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ZARISKI_JSON_SHA256[name, n]


# sha256 of the --json stdout of the benchmark's lattice jobs that run
# all_congruences, recorded from the principal stage that closed every pair;
# the last three (64 points of 2 bits at z4@3, semilat2@4, and stone off the
# theorem) recorded from the per-congruence and per-subset loops
LATTICE_JSON_SHA256 = {
    "stone --arity 2": "cf8e0638c0df212052db132c21aa174524be516d3345680e5cade8b68371a6b7",
    "stone --arity 3": "bbad79610788ec5fa786ceb12ceb1a57240dcf4e9692a43f56dfdab90de2d325",
    "classify --builtin distlat2 --arity 3":
        "da78c49dfa1f113cad28c8ceaeb6c90b1117b0bf059d567bfb62739d9aff6f58",
    "classify --builtin z4 --ground z2-in-z4 --arity 3":
        "ef79f688d260fe3292f8d494b17655b2bc381357f450c97cd38fb1c2c7a72e23",
    "classify --builtin z4 --arity 3":
        "7d9062a1c760d546ab06ae58a0f6a140ed6239bb41ae9a41b27a5a5021160eb0",
    "classify --builtin semilat2 --arity 4":
        "ccbab19e538fe988c764d2cd568492692d59c1255a2555b2f82226933dfbacbf",
    "stone --builtin semilat2 --arity 3":
        "9bb9b7623de90b39f653f20f30ed4cbc06e9179561e7453f56ca24505c6beccb",
}

# sha256 of text stdout, recorded from the handlers that built their lines
# for --json runs too and decoded one point at a time
TEXT_SHA256 = {
    "zariski --builtin semilat2 --arity 4":
        "0926223b13f2305516a14c93a7aa3a8407d4e6db588cb4cb64b673bd47b62668",
    "classify --builtin z4 --ground z2-in-z4 --arity 2":
        "a2e975e836eb09560abcac1f9b45cd8f30e82a64946e5684a2ed046af212f845",
}


# sha256 of exit code and --json stdout of cop, closure and null at arity 2,
# each builtin over itself: the empty point set and three seeded point sets,
# and four seeded pair lists; recorded from the c_operator that ranked the
# rows with np.unique over axis 0
COP_CLOSURE_NULL_SHA256 = {
    "bool2": "7ec31c604f16d1253763fcfd947cdfd63ed9f97f52b19941d863622fb713fefb",
    "distlat2": "414483b1ff4628348d024079464aec5a971076efb31ebe7c59d5c63e8cb4d295",
    "semilat2": "afa81cc06019ea1222d17ea8179645b883b93daf414197d7ab56639f5ed05e4b",
    "z2": "421e2a027d4d6b5eaa1fd5ceb1cb569973ff636b6f984506d93a7a356c2064d9",
    "z2-in-z4": "9e1b9106184fd7cef7a8f74b435b54afe54d72388caef33febc97e8a8aeff1bb",
    "z4": "9bd1e3d3e7a4287105d53df6d3153cadef1651d7fd650b56b054eddd4a202d71",
}


def cop_closure_null_argvs(name):
    space = affinekit.ground_space(affinekit.builtin(name), affinekit.builtin(name), 2)
    rng = random.Random(f"cop closure null {name}")
    k, m = space.ground.size, space.free.size
    points = [""] + [";".join(f"{a},{b}" for a in range(k) for b in range(k)
                              if rng.random() < 0.4) for _ in range(3)]
    pairs = [";".join(f"{rng.randrange(m)},{rng.randrange(m)}" for _ in range(j))
             for j in range(4)]
    return ([[cmd, "--builtin", name, "--arity", "2", "--points", p]
             for p in points for cmd in ("cop", "closure")]
            + [["null", "--builtin", name, "--arity", "2", "--pairs", p] for p in pairs])


@pytest.mark.parametrize("name", sorted(COP_CLOSURE_NULL_SHA256))
def test_cop_closure_null_json_match_frozen_digest(capsys, name):
    digest = hashlib.sha256()
    for argv in cop_closure_null_argvs(name):
        code, out, _ = run(capsys, argv + ["--json"])
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == COP_CLOSURE_NULL_SHA256[name]


@pytest.mark.parametrize("job", sorted(LATTICE_JSON_SHA256))
def test_lattice_json_matches_frozen_digest(capsys, job):
    code, out, _ = run(capsys, job.split() + ["--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_JSON_SHA256[job]


@pytest.mark.parametrize("job", sorted(TEXT_SHA256))
def test_text_output_matches_frozen_digest(capsys, job):
    code, out, _ = run(capsys, job.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_SHA256[job]


def test_adjoint_golden(capsys):
    code, out, _ = run(capsys, ["adjoint", "--builtin", "bool2", "--points", "1", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "command": "adjoint",
        "version": "0.1.0",
        "lhs": 2,
        "rhs": 2,
        "bijection_ok": True,
        "natural_ok": True,
    }


# sha256 of stdout, exit code and stderr of adjoint and represent runs,
# recorded from the per-square naturality loop these commands used before
ADJOINT_REPRESENT_SHA256 = [
    (["adjoint", "--builtin", "bool2", "--arity", "2", "--target-arity", "1",
      "--points", "0,0;0,1;1,0;1,1", "--json"], 0,
     "d378cc3301aab8e50e941515904c1fa6e63e3621ecd4751ff5d0cd10531b56dd", ""),
    (["adjoint", "--builtin", "bool2", "--arity", "2", "--target-arity", "1",
      "--points", "0,1;1,1", "--pairs", "0,1", "--json"], 0,
     "56c373c930582f9116cbf9cd460ef28145190e3bfc5c5b795074f5cc75c06c29", ""),
    (["adjoint", "--builtin", "z4", "--ground", "z2", "--arity", "1", "--points", "1",
      "--json"], 0,
     "ee7b97d0c05c89ab381921acbb2254dc6aea22f7e726fe5bf024f9d487b901dc", ""),
    (["adjoint", "--builtin", "z4", "--ground", "z2-in-z4", "--arity", "2",
      "--target-arity", "1", "--points", "0,0;1,1", "--json"], 0,
     "ee7b97d0c05c89ab381921acbb2254dc6aea22f7e726fe5bf024f9d487b901dc", ""),
    (["adjoint", "--builtin", "semilat2", "--arity", "1", "--target-arity", "0",
      "--points", "1", "--json"], 0,
     "40ee2af20a309660d3008cd2bc9ba13893401da1e06bcff5ce4f976da2e49f10", ""),
    (["represent", "--builtin", "bool2", "--arity", "1", "--pairs", "0,3",
      "--assume-stable", "--json"], 0,
     "614b6098b8852665b87bfe02638748b387ac7e6b5ad2dc90e9958e52df890d33", ""),
    (["represent", "--builtin", "z4", "--ground", "z2", "--pairs", "3,1", "--json"], 0,
     "6a83a7545949aa2795526f8cf38407c8ceaac233db2206cc422d5a168a747052", ""),
    (["represent", "--builtin", "z4", "--arity", "2", "--json"], 0,
     "1709d6642942aa6a5f94f08bb0191561ea958fb507af6a815b193515d7010c6f", ""),
    # the naturality companion hom(A^3, S) needs 7^3 witness tuples
    (["adjoint", "--builtin", "semilat2", "--arity", "3", "--target-arity", "1",
      "--points", "1,1,1", "--budget", "100", "--json"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: 343 witness tuples exceed budget 100\n"),
]


@pytest.mark.parametrize(
    "argv, code, sha256, err", ADJOINT_REPRESENT_SHA256,
    ids=[f"{case[0][0]}{i}" for i, case in enumerate(ADJOINT_REPRESENT_SHA256)],
)
def test_adjoint_and_represent_match_frozen_digest(capsys, argv, code, sha256, err):
    got_code, out, got_err = run(capsys, argv)
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_represent_golden(capsys):
    code, out, _ = run(capsys, ["represent", "--builtin", "z4", "--ground", "z2", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "command": "represent",
        "version": "0.1.0",
        "hom_count": 4,
        "quotient_size": 4,
        "match": True,
    }


def test_stone_golden(capsys):
    code, out, _ = run(capsys, ["stone", "--arity", "1", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "command": "stone",
        "version": "0.1.0",
        "arity": 1,
        "congruences": 4,
        "closed_sets": 4,
        "subsets": 4,
        "subsets_checked": 4,
        "all_fixed": True,
        "all_subsets_closed": True,
        "bijective": True,
        "order_reversing": True,
        "pairs_checked": 16,
        "ok": True,
    }


def test_classify_golden(capsys):
    code, out, _ = run(capsys, [
        "classify", "--builtin", "z4", "--ground", "z2", "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert (payload["total"], payload["fixed_count"]) == (3, 2)
    assert payload["entries"][2] == {
        "blocks": [[0], [1], [2], [3]],
        "fixed": False,
        "radical_blocks": [[0, 2], [1, 3]],
    }


def test_reruns_are_byte_identical(capsys):
    argv = ["zariski", "--builtin", "z4", "--arity", "1", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


# --- algebra files ----------------------------------------------------------


def test_algebra_file_matches_builtin(capsys, tmp_path):
    path = write_algebra(tmp_path, "bool2", 2, oracles.BOOL2)
    _, via_file, _ = run(capsys, ["cop", "--algebra", path, "--points", "1", "--json"])
    _, via_builtin, _ = run(capsys, ["cop", "--builtin", "bool2", "--points", "1", "--json"])
    assert json.loads(via_file) == json.loads(via_builtin)


def test_algebra_file_signature_order(capsys, tmp_path):
    fwd = write_algebra(tmp_path, "z2", 2, oracles.Z2, filename="fwd.json")
    rev = write_algebra(
        tmp_path, "z2", 2, dict(reversed(list(oracles.Z2.items()))), filename="rev.json",
    )
    _, out_f, _ = run(capsys, ["free", "--algebra", fwd, "--arity", "1", "--json"])
    _, out_r, _ = run(capsys, ["free", "--algebra", rev, "--arity", "1", "--json"])
    terms_f = [e["term"] for e in json.loads(out_f)["elements"]]
    terms_r = [e["term"] for e in json.loads(out_r)["elements"]]
    # the same two term functions, but discovery honors the file's op order
    assert terms_f == ["x0", "add(x0, x0)"]
    assert terms_r == ["x0", "0"]


def test_ground_by_file(capsys, tmp_path):
    path = write_algebra(tmp_path, "z2", 2, oracles.Z2)
    _, via_file, _ = run(capsys, [
        "represent", "--builtin", "z4", "--ground", path, "--json",
    ])
    _, via_name, _ = run(capsys, [
        "represent", "--builtin", "z4", "--ground", "z2", "--json",
    ])
    assert json.loads(via_file) == json.loads(via_name)


def algebra_dict(alg):
    return {
        "name": alg.name,
        "size": alg.size,
        "ops": [{"name": s, "arity": r, "table": list(t)}
                for (s, r), t in zip(alg.signature.symbols, alg.tables)],
    }


@settings(max_examples=100, deadline=None)
@given(generators())
def test_algebra_dict_round_trips(case):
    alg, _ = case
    again = algebra_from_dict(json.loads(json.dumps(algebra_dict(alg))))
    assert again == alg and again.name == alg.name


def with_op(data, **fields):
    """data with fields of its first operation replaced, None deleting one."""
    op = {k: v for k, v in {**data["ops"][0], **fields}.items() if v is not None}
    return {**data, "ops": [op, *data["ops"][1:]]}


# each breaks an algebra file's data in one place
MALFORMED = [
    lambda d: [d],
    lambda d: d["size"],
    lambda d: {k: v for k, v in d.items() if k != "size"},
    lambda d: {**d, "size": 0},
    lambda d: {**d, "size": -d["size"]},
    lambda d: {**d, "size": float(d["size"])},
    lambda d: {**d, "size": str(d["size"])},
    lambda d: {**d, "size": True},
    lambda d: {**d, "ops": {}},
    lambda d: {**d, "ops": [[1]]},
    lambda d: {**d, "ops": d["ops"] + d["ops"][:1]},  # a symbol twice
    lambda d: {**d, "name": 5},
    lambda d: with_op(d, name=""),
    lambda d: with_op(d, name=7),
    lambda d: with_op(d, arity=None),
    lambda d: with_op(d, arity=-1),
    lambda d: with_op(d, arity=True),
    lambda d: with_op(d, arity=1.0),
    lambda d: with_op(d, table=None),
    lambda d: with_op(d, table="0"),
    lambda d: with_op(d, table=d["ops"][0]["table"] + [0]),
    lambda d: with_op(d, table=[d["size"]] * len(d["ops"][0]["table"])),
    lambda d: with_op(d, table=[float(v) for v in d["ops"][0]["table"]]),
    lambda d: with_op(d, table=[True] * len(d["ops"][0]["table"])),
]


@settings(max_examples=100, deadline=None)
@given(generators(), st.sampled_from(MALFORMED))
def test_malformed_algebra_files_exit_2(tmp_path_factory, case, fault):
    text = json.dumps(algebra_dict(case[0]))
    path = tmp_path_factory.mktemp("algebra") / "algebra.json"
    for bad in (json.dumps(fault(algebra_dict(case[0]))), text[:-1]):
        path.write_text(bad)
        assert main(["free", "--algebra", str(path), "--arity", "1"]) == 2


# --- exit codes -------------------------------------------------------------


def test_exit_domain_errors(capsys):
    assert run(capsys, ["cop", "--builtin", "nope", "--points", "1"])[0] == 1
    assert run(capsys, ["vop", "--builtin", "bool2", "--equations", "xor(x0,x0)=x0"])[0] == 1
    assert run(capsys, ["vop", "--builtin", "bool2", "--equations", "and(x0)=x0"])[0] == 1
    assert run(capsys, ["vop", "--builtin", "bool2", "--equations", "and(x0,x5)=x0"])[0] == 1


def test_exit_usage_errors(capsys, tmp_path):
    assert run(capsys, ["vop", "--builtin", "bool2", "--pairs", "0"])[0] == 2
    assert run(capsys, ["cop", "--builtin", "bool2", "--points", "2"])[0] == 2
    assert run(capsys, ["cop", "--builtin", "bool2", "--points", "0,1"])[0] == 2
    assert run(capsys, ["cop"])[0] == 2  # no generator given
    assert run(capsys, [
        "cop", "--builtin", "bool2", "--algebra", "x.json", "--points", "0",
    ])[0] == 2
    assert run(capsys, [])[0] == 2  # no subcommand
    assert run(capsys, ["cop", "--builtin", "bool2", "--arity", "zz"])[0] == 2
    # a negative arity is named by the option that gave it
    assert run(capsys, ["cop", "--builtin", "bool2", "--arity", "-1"]) == (
        2, "", "error: --arity must be >= 0\n")
    assert run(capsys, ["adjoint", "--builtin", "bool2", "--arity", "1",
                        "--target-arity", "-1"]) == (
        2, "", "error: --target-arity must be >= 0\n")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, ["cop", "--algebra", str(bad), "--points", "0"])[0] == 2
    empty = write_algebra(tmp_path, "none", 0, {"op": (1, (0,))})
    assert run(capsys, ["cop", "--algebra", empty, "--points", "0"])[0] == 2
    short = write_algebra(tmp_path, "short", 2, {"and": (2, (0, 0, 0))})
    assert run(capsys, ["cop", "--algebra", short, "--points", "0"])[0] == 2
    assert run(capsys, ["cop", "--algebra", str(tmp_path / "missing.json"),
                        "--points", "0"])[0] == 2


def test_readme_relation_examples_run(capsys):
    # the README's examples of --equations (terms) and --pairs (indices)
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    for flag, text in [("--equations", "and(x0, x1) = and(x1, x0)"),
                       ("--pairs", "0,1;2,3")]:
        assert f'`{flag} "{text}"`' in readme
        code, out, _ = run(capsys, ["vop", "--builtin", "bool2", "--arity", "2", flag, text])
        assert code == 0 and out.startswith("solution set of ")


def test_exit_budget(capsys):
    code, _, err = run(capsys, ["free", "--builtin", "bool2", "--arity", "3",
                                "--budget", "10"])
    assert code == 3
    assert "budget" in err


# the points of G^n (A^n) are charged before their coordinates are listed:
# these asked for 320 TiB, 240 GiB, 6.25 GiB and 1.5 GiB of them
@pytest.mark.parametrize("argv", [
    ["free", "--builtin", "bool2", "--arity", "40"],
    ["stone", "--arity", "30"],
    ["zariski", "--builtin", "bool2", "--arity", "25"],
    ["cop", "--builtin", "z4", "--arity", "12"],
])
def test_point_tables_over_budget_exit_3(capsys, argv):
    assert run(capsys, argv) == (3, "", "error: free algebra exceeds budget 1000000\n")


def test_exit_help_and_errors_to_stderr(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0 and "subcommand" in out or "usage" in out
    code, out, err = run(capsys, ["cop", "--builtin", "nope", "--points", "1"])
    assert code == 1 and out == "" and "nope" in err

# (exit code, sha256 prefixes of stdout and stderr) of the help and usage
# texts at 80 columns, recorded from the parser that held every command. A
# parser built for the invoked command alone must print the same bytes:
# argparse reports unrecognized arguments with the top-level usage, which
# lists every command
USAGE_DIGESTS = {
    "--help": (0, "fc7e301e4e2ceed0", "e3b0c44298fc1c14"),
    "builtins --help": (0, "0f08802f6cab8c4c", "e3b0c44298fc1c14"),
    "free --help": (0, "522fe15db459f2e3", "e3b0c44298fc1c14"),
    "cop --help": (0, "b3f83b17e5273a77", "e3b0c44298fc1c14"),
    "vop --help": (0, "a973b9ec3431189d", "e3b0c44298fc1c14"),
    "closure --help": (0, "86f8b63ce084f739", "e3b0c44298fc1c14"),
    "radical --help": (0, "7f79cc8bdea4f5e9", "e3b0c44298fc1c14"),
    "null --help": (0, "58d37d2a0ade95c9", "e3b0c44298fc1c14"),
    "zariski --help": (0, "360316e8e2919620", "e3b0c44298fc1c14"),
    "adjoint --help": (0, "aa1c63e86e257fa1", "e3b0c44298fc1c14"),
    "represent --help": (0, "3b3ea1b30e517022", "e3b0c44298fc1c14"),
    "stone --help": (0, "81d35faca52c5158", "e3b0c44298fc1c14"),
    "classify --help": (0, "76951960b145a034", "e3b0c44298fc1c14"),
    "bogus": (2, "e3b0c44298fc1c14", "1eab44cf07be72aa"),
    "": (2, "e3b0c44298fc1c14", "e0e59ca6c09bfb29"),
    "zariski --nope": (2, "e3b0c44298fc1c14", "0bbcd23070a29401"),
    "stone --arity 2 --json extra": (2, "e3b0c44298fc1c14", "3a0d2dc3c031756d"),
}


@pytest.mark.parametrize("argv", sorted(USAGE_DIGESTS))
def test_help_and_usage_texts_match_frozen_digest(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, argv.split())
    assert (code, *(hashlib.sha256(x.encode()).hexdigest()[:16] for x in (out, err))) \
        == USAGE_DIGESTS[argv]


def test_parser_holds_only_the_invoked_command():
    def commands(argv):
        return list(_build_parser(argv)._subparsers._group_actions[0].choices)

    every = commands([])
    assert len(every) == 12 and commands(["bogus"]) == commands(["--help"]) == every
    for name in every:
        assert commands([name, "--arity", "2"]) == [name]


def test_mismatched_signature_is_domain_error(capsys):
    code, _, err = run(capsys, ["cop", "--builtin", "bool2", "--ground", "z2",
                                "--points", "1"])
    assert code == 1
    assert err.startswith("error:")


def test_not_in_variety_is_domain_error(capsys):
    # z4 shares the group signature but breaks x+x=0, so evaluating the
    # two-element group's term functions over it has no consistent answer
    code, _, err = run(capsys, ["cop", "--builtin", "z2", "--ground", "z4",
                                "--points", "1"])
    assert code == 1
    assert err.startswith("error:")


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; importing scipy would about
    # double a CLI process's peak RSS
    src = os.path.dirname(os.path.dirname(affinekit.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, affinekit.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy 1.x imports numpy.ma with numpy itself")
def test_lattice_and_adjunction_paths_load_no_numpy_ma():
    # numpy 2's unique without index outputs imports numpy.ma, 15-16 ms a
    # process; the classify, stone and adjunction routes never need it
    src = os.path.dirname(os.path.dirname(affinekit.__file__))
    script = (
        "import contextlib, io, sys\n"
        "from affinekit import AffineSubset, Relation, builtin, ground_space\n"
        "from affinekit.adjunction import verify_adjunction\n"
        "from affinekit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['classify', '--builtin', 'z4', '--ground', 'z2-in-z4',\n"
        "                 '--arity', '2', '--json']) == 0\n"
        "    assert main(['stone', '--arity', '2', '--json']) == 0\n"
        "z4 = builtin('z4')\n"
        "space = ground_space(z4, builtin('z2-in-z4'), 1)\n"
        "y = Relation.identity(ground_space(z4, builtin('z2-in-z4'), 2))\n"
        "assert verify_adjunction(AffineSubset.of(space, [0, 1]), y).bijection_ok\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("argv, skip", [
    (["classify", "--builtin", "z4", "--arity", "3", "--json"], 0),
    (["zariski", "--builtin", "semilat2", "--arity", "4"], 0),
    # 32 MB in four chunks of 16,384 closed sets: the pipe closes in the third
    (["zariski", "--builtin", "distlat2", "--arity", "4", "--json"], 20 << 20),
], ids=["argv0", "argv1", "argv2"])
def test_closed_stdout_exits_141_without_a_traceback(argv, skip):
    # every output outgrows a pipe's buffer, so the writer meets the closed end
    src = os.path.dirname(os.path.dirname(affinekit.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "affinekit.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    assert len(proc.stdout.read(skip)) == skip
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# Runs the CLI on its arguments and prints its exit code, stdout size and
# sha256, and ru_maxrss from os.wait4. It runs in a process of its own: a
# child's ru_maxrss also counts the pages it shared with its parent before
# exec, which from inside pytest would be the test runner's whole heap.
STREAM_PROBE = """
import hashlib, json, os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "affinekit.cli", *sys.argv[1:]],
                        stdout=subprocess.PIPE)
digest, size = hashlib.sha256(), 0
for block in iter(lambda: proc.stdout.read(1 << 20), b""):
    digest.update(block)
    size += len(block)
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), size, digest.hexdigest(),
                  usage.ru_maxrss]))
"""


def test_zariski_json_streams_in_bounded_memory():
    """65,536 closed sets over 16 points, 32 MB of text, written a chunk at a
    time: the process peaked at 190 MB when the whole text was built first."""
    src = os.path.dirname(os.path.dirname(affinekit.__file__))
    out = subprocess.run(
        [sys.executable, "-c", STREAM_PROBE, "zariski", "--builtin", "distlat2",
         "--arity", "4", "--json"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stdout
    code, size, digest, maxrss = json.loads(out)
    assert (code, size) == (0, 32_243_873)
    assert digest == "4b3f2eeec6e7bca290d9e270721fa7cb75e7cd9177e6940b5289f3f510553f25"
    assert maxrss < 100 * 1024  # kilobytes


@pytest.mark.parametrize("job, digest", [
    ("classify --builtin distlat2 --arity 3 --json",
     LATTICE_JSON_SHA256["classify --builtin distlat2 --arity 3"]),
    ("classify --builtin z4 --ground z2-in-z4 --arity 3 --json",
     LATTICE_JSON_SHA256["classify --builtin z4 --ground z2-in-z4 --arity 3"]),
    ("classify --builtin z4 --ground z2-in-z4 --arity 2",
     TEXT_SHA256["classify --builtin z4 --ground z2-in-z4 --arity 2"]),
    ("zariski --builtin semilat2 --arity 4 --json", ZARISKI_JSON_SHA256["semilat2", 4]),
    ("zariski --builtin semilat2 --arity 4", TEXT_SHA256["zariski --builtin semilat2 --arity 4"]),
])
def test_output_in_small_chunks_matches_frozen_digest(capsys, job, digest):
    """The writers at 64 entries a chunk: many chunks, and radicals first
    needed in a later chunk than the one that made their text."""
    with mock.patch.object(core, "_CHUNK", 64):
        code, out, _ = run(capsys, job.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# --- the --json encoder -------------------------------------------------------

CHARS = st.one_of(
    st.sampled_from(list('"\\[]{},: ') + ["\ud800", "\udfff"]),  # lone surrogates too
    st.characters(max_codepoint=0x1F),
    st.characters(min_codepoint=0x80),
    st.characters(),
)
TEXT = st.one_of(
    st.text(CHARS),
    # a run of backslashes before a quote, escaped or not once encoded
    st.builds(lambda run, a, b: a + "\\" * run + '"' + b,
              st.integers(0, 6), st.text(CHARS), st.text(CHARS)),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)), st.floats(), TEXT,
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner), st.dictionaries(TEXT, inner)),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES)
@example(json.loads("[" * 60 + "]" * 60))
@example(json.loads('{"a": ' * 60 + "{}" + "}" * 60))
@example({"": {}, "a": [[], {}, [{}]], "\\\\\"": "\\\""})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 10**40])
def test_json_encoder_matches_json_dumps(value):
    assert "".join(_json_pieces(value)) == json.dumps(value, indent=2, sort_keys=True)


@st.composite
def least_member_rows(draw):
    """Rows of random labels 0..k-1 as least-member rows: x goes to the
    first element with x's label."""
    k = draw(st.sampled_from([0, 1, 2, 5]))
    rows = draw(st.lists(st.lists(st.integers(0, max(k - 1, 0)), min_size=k, max_size=k),
                         max_size=4))
    return np.array([[row.index(lab) for lab in row] for row in rows],
                    dtype=np.uint8).reshape(len(rows), k)


@st.composite
def point_masks(draw):
    """Random 0/1 rows over the points of A^n for |A| = 3, with up to 7 zero
    columns after them as np.unpackbits leaves, and the points as lists."""
    arity = draw(st.integers(0, 2))
    npts = 3 ** arity
    rows = draw(st.lists(st.lists(st.booleans(), min_size=npts, max_size=npts), max_size=5))
    bits = np.zeros((len(rows), npts + draw(st.integers(0, 7))), dtype=np.uint8)
    bits[:, :npts] = np.array(rows, dtype=np.uint8).reshape(len(rows), npts)
    return bits, [list(p) for p in np.ndindex((3,) * arity)]


@settings(max_examples=200, deadline=None)
@given(least_member_rows(), point_masks())
@example(np.zeros((0, 3), dtype=np.uint8), (np.zeros((0, 1), dtype=np.uint8), [[]]))
@example(np.array([[0, 0, 2]], dtype=np.uint8), (np.ones((1, 1), dtype=np.uint8), [[]]))
@example(np.zeros((2, 1), dtype=np.uint8), (np.zeros((2, 3), dtype=np.uint8), [[0], [1], [2]]))
def test_list_writers_match_json_dumps(rows, masks):
    """The blocks of least-member rows and the point sets of masks, written
    by _json_blocks and _json_sets, against json.dumps of the same lists;
    once at the top and once a level further in."""
    bits, points = masks
    blocks = [[[x for x, r in enumerate(row) if r == least] for least in sorted(set(row))]
              for row in rows.tolist()]
    sets = [[points[a] for a in range(len(points)) if row[a]] for row in bits.tolist()]

    def block_items(d):
        yield ",".join("\n" + "  " * d + b for b in _json_blocks(rows, d))

    def set_items(d):
        yield _json_sets(bits, points, d)

    lazy = {"blocks": block_items, "sets": set_items}
    plain = {"blocks": blocks, "sets": sets}
    assert "".join(_json_pieces({**lazy, "in": lazy})) == json.dumps(
        {**plain, "in": plain}, indent=2, sort_keys=True)
