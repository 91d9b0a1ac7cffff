"""The affinekit benchmark.

    python3 bench/run.py --workload lattice --seed 1 --seconds 60 --trace 0
    python3 bench/run.py              # every workload, untraced then traced

Workloads (all closed loop, one client, one process at a time):

  lattice     five CLI jobs, each in a fresh interpreter: the paper's
              headline demonstrations answered cold, the way a shell user
              pays for them. Nearly all time is in core.all_congruences.
  adjunction  one library session of hom-set sweeps: verify_adjunction over
              every congruence of F_bool2(m), m <= 2, and over z4 / z2-in-z4
              (all at m = 1, one at m = 2), plus representability. Time
              goes to witness-tuple enumeration and free.substitute; core
              work is negligible.
  queries     one warm library session over five instances: a seeded stream
              of small reads and of congruence generation with a
              Nullstellensatz check, each answer checked by bench/oracle.py.
              Run by hand only: BENCHMARK.json does not list it, because
              one pass (about 11 s of set-up and a 22 s stream) leaves no
              room for repeats in a run.

A run repeats passes of its workload while another pass still fits in
--seconds (at least one), each pass in fresh interpreters. Each job, call
or query counts at its fastest over the run's repeats, set-up at its median. With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics, both as the last line
of standard output in JSON. Every verdict is checked; a wrong answer, an
exception or a crashed process counts as failed and the run goes on.
Results and spans are written under bench/out/.
"""

import argparse
import compileall
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("lattice", "adjunction", "queries")

# CLI job -> fields of its --json answer that must read these values. The
# arity-3 and arity-4 counts were read off the seed code; bench/test_bench.py
# cross-checks what tests/oracles.py can reach.
LATTICE_JOBS = (
    (["stone", "--arity", "3"],
     {"congruences": 256, "closed_sets": 256, "bijective": True,
      "order_reversing": True}),
    (["classify", "--builtin", "distlat2", "--arity", "3"],
     {"total": 256, "fixed_count": 256}),
    (["classify", "--builtin", "z4", "--ground", "z2-in-z4", "--arity", "3"],
     {"total": 129, "fixed_count": 16}),
    (["zariski", "--builtin", "z4", "--arity", "3"],
     {"count": 129, "is_topology": False}),
    (["zariski", "--builtin", "semilat2", "--arity", "4"],
     {"count": 2271}),
)
TINY_LATTICE_JOBS = (
    (["stone", "--arity", "2"],
     {"congruences": 16, "closed_sets": 16, "bijective": True,
      "order_reversing": True}),
    (["classify", "--builtin", "z4", "--ground", "z2-in-z4", "--arity", "1"],
     {"total": 3, "fixed_count": 2}),
    (["zariski", "--builtin", "semilat2", "--arity", "2"],
     {"count": 4}),
)

CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s
LATTICE_REPEATS = 3  # least runs per pass of every lattice job shorter
LONG_JOB_S = 5.0     # than this (more while time is left); longer jobs run once
# The instance a long job builds before its first question. Its set-up is
# timed LATTICE_REPEATS - 1 more times in processes that only build this.
SETUP_BUILDS = {"stone --arity 3": ("bool2", "bool2", 3)}


# -- processes ----------------------------------------------------------------

def spawn(spec, deadline):
    """Run bench/child.py on one spec; returns (result or None, spawn time,
    max RSS in MB, error text)."""
    OUT.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    (OUT / "logs").mkdir(exist_ok=True)
    with open(OUT / "logs" / f"{spec['tag']}.log", "w+") as fh:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        fh.seek(0)
        lines = fh.read().splitlines()
    rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0 or not lines:
        return None, t_spawn, rss_mb, "\n".join(lines[-5:]) or f"exit {proc.returncode}"
    return json.loads(lines[-1]), t_spawn, rss_mb, None


def run_process(spec, deadline):
    """One child process; returns its measurements."""
    if spec["trace"]:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        spec["spans"] = str(OUT / "spans" / f"{spec['tag']}.npz")
    res, t_spawn, rss_mb, err = spawn(spec, deadline)
    job = " ".join(spec.get("argv", [spec["kind"]]))
    if res is None:
        return {"job": job, "error": err, "rss_mb": rss_mb, "digest": None,
                "verdicts": [{"t": float("nan"), "ok": False, "kind": "process"}]}
    ready = res["t_ready"] if res["t_ready"] is not None else res["t_import"]
    return {
        "job": job, "error": None, "rss_mb": rss_mb, "digest": res.get("digest"),
        "setup_s": ready - t_spawn + res.get("builder_s", 0.0),
        "wall_s": max((v["end"] - t_spawn for v in res["verdicts"]), default=None),
        "import_s": res["import_s"], "verdicts": res["verdicts"],
        "trace": res.get("trace"),
    }


def run_pass(workload, seed, trace, tiny, tag, deadline, until):
    """One pass: fresh interpreters, fixed work (for lattice, repeats go on
    while another round fits before `until`). Returns one record per
    process."""
    base = {"seed": seed, "trace": trace, "tiny": tiny}
    if workload != "lattice":
        return [run_process(dict(base, kind=workload, tag=f"{tag}-0"), deadline)]
    jobs = list(TINY_LATTICE_JOBS if tiny else LATTICE_JOBS)
    random.Random(seed).shuffle(jobs)  # the seed orders the fixed jobs
    procs = []

    def run_job(argv, kind="lattice", **extra):
        spec = dict(base, kind=kind, argv=argv, tag=f"{tag}-{len(procs)}", **extra)
        procs.append(run_process(spec, deadline))
        return procs[-1]

    first = [run_job(argv, expect=expect) for argv, expect in jobs]
    # Long jobs are only set up again, LATTICE_REPEATS - 1 times. Short jobs
    # run again after the long ones, at least as often and then while
    # another round fits, so that their repeats span the run.
    done = [(job, p) for job, p in zip(jobs, first) if p["error"] is None]
    short = [job for job, p in done if p["wall_s"] < LONG_JOB_S]
    builds = [(argv, SETUP_BUILDS[" ".join(argv)]) for (argv, _), p in done
              if p["wall_s"] >= LONG_JOB_S and " ".join(argv) in SETUP_BUILDS]
    for _ in range(LATTICE_REPEATS - 1):
        for argv, build in builds:
            run_job(argv, kind="build", build=build)
    rounds = 1
    while short:
        t_round = time.monotonic()
        for argv, expect in short:
            run_job(argv, expect=expect)
        rounds += 1
        now = time.monotonic()
        if rounds >= LATTICE_REPEATS and now + (now - t_round) > until:
            break
    return procs


# -- metrics ------------------------------------------------------------------

def percentile(values, q):
    """Nearest rank: the smallest value with at least q% of values at or
    below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def by_job(procs, key):
    """Median of one per-process value over each job's repeats, summed over
    the jobs."""
    groups = {}
    for p in procs:
        if p["error"] is None and p[key] is not None:
            groups.setdefault(p["job"], []).append(p[key])
    return sum(statistics.median(v) for v in groups.values())


def pass_metrics(procs):
    """End-to-end metrics of a set of processes. A verdict's time is its
    fastest over the repeats of its job (every pass asks the same questions
    in the same order), so that a moment the machine runs slow counts only
    where every repeat met one; set-up counts at its median."""
    groups = {}
    for p in procs:
        for i, v in enumerate(p["verdicts"]):
            if v["ok"]:
                groups.setdefault((p["job"], i), (v.get("class"), []))[1].append(v["t"])
    best = [(kind, min(ts)) for kind, ts in groups.values()]
    times = [t for _, t in best]
    setup = by_job(procs, "setup_s")
    m = {
        "setup_s": setup,
        "wall_s": setup + sum(times),
        "verdict_s.geomean": geomean(times) if times else float("nan"),
        "peak_rss_mb": max(p["rss_mb"] for p in procs),
    }
    for kind, q, name in (("read", 50, "read_s.p50"), ("read", 99, "read_s.p99"),
                          ("cong", 50, "cong_s.p50"), ("cong", 90, "cong_s.p90")):
        times = [t for k, t in best if k == kind]
        if times:
            m[name] = percentile(times, q)
    return m


def boundary_check(verdicts, kind, q):
    """Is percentile q of a query class on a step between two instances'
    cost classes? Returns the ratio of the values 2% of ranks above and
    below it, and the instances found in that window."""
    rows = sorted((v["t"], v["inst"]) for v in verdicts
                  if v["ok"] and v.get("class") == kind)
    n = len(rows)
    at = max(0, math.ceil(q / 100.0 * n) - 1)
    lo, hi = max(0, at - n // 50), min(n - 1, at + n // 50)
    return rows[hi][0] / rows[lo][0], sorted({i for _, i in rows[lo:hi + 1]})


def layer_metrics(procs):
    """Per-layer values of one pass: spans and counters summed over the
    first run of each job, so that counts do not depend on repeats."""
    calls, self_s, counts = {}, {}, {}
    first = {}
    for p in procs:
        first.setdefault(p["job"], p)
    for tr in (p["trace"] for p in first.values() if p["error"] is None):
        for name, n in tr["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, s in tr["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s
        for name, n in tr["counts"].items():
            counts[name] = counts.get(name, 0) + n
    m = {f"{name}.calls": n for name, n in calls.items()}
    m.update({f"{name}.self_s": s for name, s in self_s.items()})
    for name, s in self_s.items():  # a module's self time: all its spans
        layer = name.split(".")[0] + ".self_s"
        m[layer] = m.get(layer, 0.0) + s
    m.update(counts)
    tuples = counts.get("adjunction.witness_tuples", 0)
    m["adjunction.hom_yield"] = counts.get("adjunction.arrows", 0) / tuples if tuples else 0.0
    return m


def median_of(dicts, name):
    values = [d[name] for d in dicts if name in d and not math.isnan(d[name])]
    return statistics.median(values) if values else float("nan")


# -- environment --------------------------------------------------------------

def reference_loop():
    """Time of a fixed pure-Python loop: a noise diagnostic that never
    scales a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": commit}


# -- one run ------------------------------------------------------------------

def run(workload, seed, seconds, trace, tiny=False):
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    env = environment()
    env["ref_loop_s"] = reference_loop()
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    passes = []
    while True:
        tag = f"{'tiny-' if tiny else ''}{workload}-seed{seed}-p{len(passes)}"
        passes.append(run_pass(workload, seed, trace, tiny, tag, deadline, t0 + seconds))
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(passes) > seconds or any(p["error"] for p in passes[-1]):
            break
    procs = [p for pas in passes for p in pas]
    verdicts = [v for p in procs for v in p["verdicts"]]
    first = [v for p in passes[0] for v in p["verdicts"]]
    # every pass of a run asks the same questions, so there is one digest
    digests = {p["digest"] for p in procs}
    per_pass = [pass_metrics(p) for p in passes]
    end_to_end = pass_metrics(procs)
    failed = sum(not v["ok"] for v in verdicts)
    result = {
        "workload": workload, "seed": seed, "trace": trace, "tiny": tiny,
        "env": env, "passes": len(passes),
        "attempted": len(verdicts), "failed": failed,
        "fail_ratio": failed / len(verdicts),
        "digest": sorted(digests, key=str),
        "errors": [p["error"] for p in procs if p["error"]],
        "failures": [v for v in verdicts if not v["ok"]][:5],
        "end_to_end": end_to_end,
        "samples": {
            "verdicts": len(first),
            "read": sum(v.get("class") == "read" for v in first),
            "cong": sum(v.get("class") == "cong" for v in first),
        },
        "per_pass": per_pass,
    }
    result["correct"] = failed == 0 and len(digests) == 1
    if workload == "queries" and failed == 0:
        result["boundaries"] = {
            name: boundary_check(first, kind, q)
            for name, kind, q in (("read_s.p50", "read", 50), ("read_s.p99", "read", 99),
                                  ("cong_s.p50", "cong", 50), ("cong_s.p90", "cong", 90))}
    if trace:
        layers = [layer_metrics(p) for p in passes]
        # times are medians over passes; counts must repeat, so take the first
        result["layers"] = {name: median_of(layers, name) if name.endswith("_s")
                            else value for name, value in layers[0].items()}
        result["layers"]["bench.import_s"] = statistics.median(
            by_job(p, "import_s") for p in passes)
        result["layers"]["bench.traced_wall_s"] = result["end_to_end"]["wall_s"]
        counts = [{k: v for k, v in lay.items() if not k.endswith("self_s")} for lay in layers]
        result["counts_repeat"] = all(c == counts[0] for c in counts)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{'tiny-' if tiny else ''}{workload}-seed{seed}-trace{int(trace)}.json"
    with open(OUT / name, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    return result


# -- output -------------------------------------------------------------------

def report(result, bench):
    """Human-readable lines, then the JSON result line."""
    e = result["env"]
    print(f"# workload={result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])} passes={result['passes']} "
          f"verdicts/pass={result['samples']['verdicts']}"
          + (f" answers digest={result['digest']}" if result["digest"] != [None] else ""))
    print(f"# nproc={e['nproc']} python={e['python']} numpy={e['numpy']} "
          f"scipy={e['scipy']} commit={e['commit']} "
          f"ref_loop_s={e['ref_loop_s']:.4f} (noise diagnostic)")
    for err in result["errors"]:
        print(f"# process failed: {err}")
    for v in result["failures"]:
        print(f"# failed verdict: {v}")
    n = result["passes"]
    for name, value in result["end_to_end"].items():
        count = {"read_s": result["samples"]["read"],
                 "cong_s": result["samples"]["cong"]}.get(name.split(".")[0])
        extra = f"n={count} per pass" if count else ""
        if name in result.get("boundaries", {}):
            ratio, insts = result["boundaries"][name]
            extra += f", +-2% ranks span x{ratio:.2f}, instances {insts}"
        unit = "MB" if name.endswith("_mb") else "s"
        print(f"{name:20s} {value:12.6g} {unit:5s} over {n} pass(es) {extra}")
    print(f"{'fail_ratio':20s} {result['fail_ratio']:12.6g} ratio "
          f"{result['failed']} of {result['attempted']} verdicts")
    if result["trace"]:
        if not result["counts_repeat"]:
            print("# warning: counts differ between passes")
        for name, value in sorted(result["layers"].items()):
            print(f"  {name:45s} {value:14.6g}")
    wanted = bench["per_layer"] if result["trace"] else bench["end_to_end"]
    source = result["layers"] if result["trace"] else result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "affinekit" / "__init__.py").is_file():
        print(f"error: no affinekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if args.workload:
        result = run(args.workload, args.seed, seconds, bool(args.trace))
        print(json.dumps(report(result, bench)))
        return 0
    # every workload, untraced then traced, with the tracing overhead
    lines = {}
    for workload in WORKLOADS:
        plain = run(workload, args.seed, seconds, False)
        lines[workload] = report(plain, bench)
        traced = run(workload, args.seed, seconds, True)
        report(traced, bench)
        overhead = traced["end_to_end"]["wall_s"] - plain["end_to_end"]["wall_s"]
        print(f"# {workload}: tracing overhead {overhead:.3f} s on wall_s "
              f"({plain['end_to_end']['wall_s']:.3f} s untraced)")
    print(json.dumps({
        "correct": all(r["correct"] for r in lines.values()),
        "attempted": sum(r["attempted"] for r in lines.values()),
        "failed": sum(r["failed"] for r in lines.values()),
        "metrics": {f"{w}.{k}": v for w, r in lines.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
