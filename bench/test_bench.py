"""Tests of the benchmark itself (not of affinekit):

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

They run each workload in its tiny mode through the same processes as a
real run, check the self-time arithmetic on synthetic spans, and prove the
verdict gate is not a no-op.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import affinekit as ak  # noqa: E402
import child  # noqa: E402
import oracle  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- tiny mode of every workload passes the gate --------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_passes_gate(workload):
    result = run.run(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"], result["errors"]
    line = run.report(result, SPEC)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_traced(workload):
    result = run.run(workload, seed=3, seconds=0, trace=True, tiny=True)
    assert result["failed"] == 0 and result["correct"], result["errors"]
    line = run.report(result, SPEC)
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    layers = result["layers"]
    if workload == "lattice":
        assert layers["cli.main.calls"] == len(run.TINY_LATTICE_JOBS)
        assert layers["core.Partition.join.calls"] > 0  # a counted method
    if workload == "adjunction":
        # adjunction reaches substitute through its own module global
        assert layers["free.substitute.calls"] > 0
        assert layers["adjunction.witness_tuples"] >= layers["adjunction.arrows"] > 0
    if workload == "queries":
        assert layers["core.generate_congruence.calls"] == 2 * 3


def test_long_job_is_set_up_again(monkeypatch):
    # every tiny job counts as long; the first is set up twice more
    argv = run.TINY_LATTICE_JOBS[0][0]
    monkeypatch.setattr(run, "LONG_JOB_S", 0.0)
    monkeypatch.setattr(run, "SETUP_BUILDS", {" ".join(argv): ("bool2", "bool2", 2)})
    kinds, spawn = [], run.run_process
    monkeypatch.setattr(run, "run_process",
                        lambda spec, deadline: kinds.append(spec["kind"]) or spawn(spec, deadline))
    result = run.run("lattice", seed=3, seconds=0, trace=False, tiny=True)
    assert result["failed"] == 0 and result["correct"], result["errors"]
    assert result["attempted"] == len(run.TINY_LATTICE_JOBS)  # builds ask nothing
    assert kinds.count("build") == run.LATTICE_REPEATS - 1


def test_short_jobs_repeat_while_time_is_left():
    least = run.LATTICE_REPEATS * len(run.TINY_LATTICE_JOBS)
    result = run.run("lattice", seed=3, seconds=0, trace=False, tiny=True)
    assert result["attempted"] == least
    result = run.run("lattice", seed=3, seconds=8, trace=False, tiny=True)
    assert result["failed"] == 0 and result["correct"], result["errors"]
    assert result["attempted"] > least and result["passes"] == 1


def test_each_verdict_counts_at_its_fastest():
    def proc(setup, times):
        return {"job": "j", "error": None, "rss_mb": 1.0, "setup_s": setup,
                "verdicts": [{"t": t, "ok": True} for t in times]}
    m = run.pass_metrics([proc(1.0, [2.0, 5.0]), proc(3.0, [4.0, 1.0]),
                          proc(2.0, [3.0, 3.0])])
    assert m["setup_s"] == 2.0  # the median set-up
    assert m["wall_s"] == 2.0 + 2.0 + 1.0
    assert m["verdict_s.geomean"] == pytest.approx(2.0 ** 0.5)


def test_query_digest_repeats_for_a_seed():
    a = run.run("queries", seed=5, seconds=0, trace=False, tiny=True)
    b = run.run("queries", seed=5, seconds=0, trace=False, tiny=True)
    c = run.run("queries", seed=6, seconds=0, trace=False, tiny=True)
    assert a["digest"] == b["digest"] != c["digest"]
    assert len(a["digest"]) == 1


# -- self time --------------------------------------------------------------------

def test_self_time_on_nested_spans():
    # A [0,10] holds B [1,4] (which holds C [2,3]) and D [5,9]; then B [11,13]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0, 11.0, 13.0])
    tr = Tracer(clock=lambda: next(ticks))
    a = tr.enter(tr.name_id("A"))
    b = tr.enter(tr.name_id("B"))
    c = tr.enter(tr.name_id("C"))
    tr.leave(c)
    tr.leave(b)
    d = tr.enter(tr.name_id("D"))
    tr.leave(d)
    tr.leave(a)
    b2 = tr.enter(tr.name_id("B"))
    tr.leave(b2)
    summary = tr.summary()
    assert summary["self_s"] == {"A": 3.0, "B": 2.0 + 2.0, "C": 1.0, "D": 4.0}
    assert summary["calls"] == {"A": 1, "B": 2, "C": 1, "D": 1}


def test_self_time_from_flat_arrays():
    names = ["outer", "inner"]
    calls, self_s = self_times(
        names, name=[0, 1, 1], parent=[-1, 0, 0],
        start=[0.0, 0.5, 2.0], end=[4.0, 1.5, 2.25])
    assert calls == {"outer": 1, "inner": 2}
    assert self_s == {"outer": 4.0 - 1.0 - 0.25, "inner": 1.25}


# -- the gate is not a no-op ---------------------------------------------------------

def test_wrong_expected_answer_fails_the_gate(monkeypatch):
    jobs = list(run.TINY_LATTICE_JOBS)
    argv, expect = jobs[0]
    jobs[0] = (argv, dict(expect, congruences=expect["congruences"] + 1))
    monkeypatch.setattr(run, "TINY_LATTICE_JOBS", tuple(jobs))
    result = run.run("lattice", seed=3, seconds=0, trace=False, tiny=True)
    assert result["failed"] > 0 and result["fail_ratio"] > 0
    assert {v["kind"] for v in result["failures"]} == {" ".join(argv)}
    assert not run.report(result, SPEC)["correct"]


def test_query_oracle_rejects_a_wrong_answer():
    g = ak.builtin("z4")
    space = ak.ground_space(g, ak.builtin("z2-in-z4"), 2)
    falg = space.free.as_algebra()
    orc = child.QueryOracle(space)
    for kind, x in [("c_operator", [0, 3]), ("zariski_closure", [1]),
                    ("v_operator", [(0, 5)]), ("cong", (1, 2)),
                    ("gelfand_evaluation", (2, (1, 0)))]:
        lib_input = {
            "c_operator": lambda: ak.AffineSubset.of(space, x),
            "zariski_closure": lambda: ak.AffineSubset.of(space, x),
            "v_operator": lambda: ak.Relation.of(space, x),
        }.get(kind, lambda: x)()
        got = child.canon(child.ask(ak, kind, space, falg, lib_input))
        assert got == child.canon(orc.expect(kind, x))
    wrong = list(ak.c_operator(ak.AffineSubset.of(space, [0])).labels)
    wrong[-1] += 1
    assert child.canon(wrong) != child.canon(orc.expect("c_operator", [0]))


@pytest.mark.parametrize("name,ground,n", [("bool2", "bool2", 2), ("z4", "z2-in-z4", 2),
                                           ("semilat2", "semilat2", 3)])
def test_oracle_tables_match_the_library(name, ground, n):
    # the congruence oracle rebuilds the tables; on the seed they agree
    g = ak.builtin(name)
    free = ak.ground_space(g, ak.builtin(ground), n).free
    ops = [(r, t) for (_, r), t in zip(g.signature.symbols, g.tables)]
    assert tuple(oracle.free_tables(free.table_matrix(), g.size, ops)) == free.as_algebra().tables


# -- known answers cross-checked against tests/oracles.py --------------------------

def _ops(alg):
    return {s: (r, t) for (s, r), t in zip(alg.signature.symbols, alg.tables)}


def test_adjunction_sweep_sizes_match_oracles():
    # the sweep asks about every congruence of these free algebras, except
    # that of z4 at m = 2 it keeps one of the three two-block ones
    bool2, z4, z2 = ak.builtin("bool2"), ak.builtin("z4"), ak.builtin("z2-in-z4")
    f = ak.ground_space(bool2, bool2, 1).free.as_algebra()
    assert len(ak.all_congruences(f)) == len(oracles.brute_congruences(_ops(f), f.size)) == 4
    f = ak.ground_space(bool2, bool2, 2).free.as_algebra()
    ops = _ops(f)
    ideals = oracles.boolean_ideal_congruences(ops["and"][1], ops["or"][1], ops["not"][1], f.size)
    assert len(ak.all_congruences(f)) == len(ideals) == 16
    f = ak.ground_space(z4, z2, 1).free.as_algebra()
    assert len(ak.all_congruences(f)) == len(oracles.brute_congruences(_ops(f), f.size)) == 3
    f = ak.ground_space(z4, z2, 2).free.as_algebra()
    subgroups = oracles.abelian_subgroup_congruences(_ops(f)["add"][1], f.size)
    assert len(ak.all_congruences(f)) == len(subgroups) == 15
    coatoms = sum(th.num_blocks == 2 for th in ak.all_congruences(f))
    assert coatoms == sum(len(set(labels)) == 2 for labels in subgroups) == 3


def _fixed_count(generator, ground, n):
    """Closure-fixed congruences of F(n) over ground, from brute_c/brute_v."""
    space = ak.ground_space(generator, ground, n)
    f = space.free.as_algebra()
    rows = [list(r) for r in space.ev]
    fixed = 0
    cons = oracles.brute_congruences(_ops(f), f.size)
    for labels in cons:
        pairs = [(p, q) for p in range(f.size) for q in range(p) if labels[p] == labels[q]]
        pts = oracles.brute_v(rows, space.npoints, pairs)
        fixed += oracles.brute_c(rows, pts) == labels
    return len(cons), fixed


def _closed_count(generator, n):
    space = ak.ground_space(generator, generator, n)
    rows = [list(r) for r in space.ev]
    closed = set()
    for mask in range(2 ** space.npoints):
        pts = [a for a in range(space.npoints) if mask >> a & 1]
        labels = oracles.brute_c(rows, pts)
        pairs = [(p, q) for p in range(len(rows)) for q in range(p) if labels[p] == labels[q]]
        closed.add(oracles.brute_v(rows, space.npoints, pairs))
    return len(closed)


def test_tiny_lattice_answers_match_oracles():
    expect = {tuple(argv[:2]): e for argv, e in run.TINY_LATTICE_JOBS}
    bool2 = ak.builtin("bool2")
    f = ak.ground_space(bool2, bool2, 2).free.as_algebra()
    ops = _ops(f)
    ideals = oracles.boolean_ideal_congruences(ops["and"][1], ops["or"][1], ops["not"][1], f.size)
    assert expect[("stone", "--arity")]["congruences"] == len(ideals)
    assert expect[("stone", "--arity")]["closed_sets"] == _closed_count(bool2, 2)
    total, fixed = _fixed_count(ak.builtin("z4"), ak.builtin("z2-in-z4"), 1)
    assert expect[("classify", "--builtin")] == {"total": total, "fixed_count": fixed}
    assert expect[("zariski", "--builtin")]["count"] == _closed_count(ak.builtin("semilat2"), 2)


# -- without the program, the benchmark fails ----------------------------------------

def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
