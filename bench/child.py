"""One benchmark process: a fresh interpreter that runs one lattice job (or
only builds the instance of one), one adjunction session or one query
session, and prints its timestamps, verdicts and (when traced) layer summary
as one JSON line.

    python3 bench/child.py '<spec as JSON>'

The spec comes from run.py. Timestamps are time.monotonic(), which is one
clock for every process on the machine, so the parent can measure from the
moment it spawned this process.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import time

import oracle
from tracing import Stopwatch, Tracer

# -- queries ----------------------------------------------------------------

QUERY_INSTANCES = (
    ("bool2", "bool2", 3),
    ("z4", "z4", 3),
    ("z4", "z2-in-z4", 3),
    ("distlat2", "distlat2", 3),
    ("z4", "z2-in-z4", 4),
)
TINY_QUERY_INSTANCES = (
    ("bool2", "bool2", 2),
    ("z4", "z2-in-z4", 2),
    ("distlat2", "distlat2", 2),
)
READS = ("c_operator", "v_operator", "zariski_closure", "radical_of_partition",
         "gelfand_evaluation")
# Every instance gets the same number of each query kind, so the percentiles
# sit inside one instance's cost class whatever the seed: 1250 reads leave
# 12 samples beyond p99, 100 congruence queries leave 10 beyond p90.
READS_PER_CLASS = 50
CONGS_PER_INSTANCE = 20
TINY_PER_CLASS = 2


def canon(answer):
    return json.dumps(answer, default=int, separators=(",", ":"))


def _pick(rng, n, k):
    return sorted(rng.sample(range(n), min(n, k)))


def _pairs(rng, m, count):
    return [tuple(rng.sample(range(m), 2)) for _ in range(count)]


def make_query(ak, rng, kind, space):
    """Draw one query's input; returns (library input, plain input)."""
    m, npts = space.free.size, space.npoints
    if kind in ("c_operator", "zariski_closure"):
        pts = _pick(rng, npts, rng.randint(1, 4))
        return ak.AffineSubset.of(space, pts), pts
    if kind == "v_operator":
        pairs = _pairs(rng, m, rng.randint(1, 3))
        return ak.Relation.of(space, pairs), pairs
    if kind == "radical_of_partition":
        part = ak.Partition.from_pairs(m, _pairs(rng, m, rng.randint(1, 3)))
        return part, part.labels
    if kind == "gelfand_evaluation":
        code = rng.randrange(npts)
        point = tuple(ak.decode_point(code, space.ground.size, space.arity))
        return (code, point), (code, point)
    if kind == "cong":
        pair = tuple(rng.sample(range(m), 2))
        return pair, pair
    raise ValueError(kind)


def ask(ak, kind, space, falg, x):
    """The timed part of one query; returns a JSON-ready answer."""
    if kind == "c_operator":
        return ak.c_operator(x).labels
    if kind == "v_operator":
        return ak.v_operator(x).points
    if kind == "zariski_closure":
        return ak.zariski_closure(x).points
    if kind == "radical_of_partition":
        return ak.radical_of_partition(space, x).labels
    if kind == "gelfand_evaluation":
        code, point = x
        gamma = ak.gelfand_evaluation(space, point)
        presented = ak.PresentedAlgebra(space, ak.point_kernel(space, code))
        return [gamma.mapping, ak.sgk_inverse(presented, gamma)]
    if kind == "cong":
        theta = ak.generate_congruence(falg, [x])
        report = ak.nullstellensatz_check(ak.PresentedAlgebra(space, theta))
        return [theta.labels, report.fixed]
    raise ValueError(kind)


class QueryOracle:
    """Expected answers for one instance, from ev and, for congruences, from
    operation tables rebuilt out of the element value tables and the
    generator's tables (not from FreeAlgebra.as_algebra)."""

    def __init__(self, space):
        self.ev = space.ev.tolist()
        self.npts = space.npoints
        self.free = space.free
        self._trans = None

    def expect(self, kind, x):
        ev, npts = self.ev, self.npts
        if kind == "c_operator":
            return oracle.kernel(ev, x)
        if kind == "v_operator":
            return oracle.relation_solutions(ev, npts, x)
        if kind == "zariski_closure":
            return oracle.closure(ev, npts, x)
        if kind == "radical_of_partition":
            return oracle.radical(ev, npts, x)
        if kind == "gelfand_evaluation":
            # the round trip must give back the point that was evaluated
            code, point = x
            return [oracle.evaluation(ev, code), point]
        if kind == "cong":
            if self._trans is None:
                gen = self.free.generator
                arities = [r for _, r in gen.signature.symbols]
                tables = oracle.free_tables(self.free.table_matrix(), gen.size,
                                            list(zip(arities, gen.tables)))
                self._trans = oracle.translations(list(zip(arities, tables)),
                                                  self.free.size)
            labels = oracle.congruence(self._trans, self.free.size, [x])
            return [labels, oracle.radical(ev, npts, labels) == labels]
        raise ValueError(kind)


def run_queries(ak, spec):
    instances = TINY_QUERY_INSTANCES if spec["tiny"] else QUERY_INSTANCES
    per_class = TINY_PER_CLASS if spec["tiny"] else READS_PER_CLASS
    congs = TINY_PER_CLASS if spec["tiny"] else CONGS_PER_INSTANCE
    spaces, falgs = [], []
    for g, a, n in instances:
        space = ak.ground_space(ak.builtin(g), ak.builtin(a), n)
        spaces.append(space)
        falgs.append(space.free.as_algebra())

    rng = random.Random(spec["seed"])
    stream = [(kind, i) for i in range(len(instances))
              for kind in READS for _ in range(per_class)]
    stream += [("cong", i) for i in range(len(instances)) for _ in range(congs)]
    rng.shuffle(stream)
    inputs = [make_query(ak, rng, kind, spaces[i]) for kind, i in stream]
    t_ready = time.monotonic()  # set-up ends when the first question is ready

    verdicts, answers = [], []
    for (kind, i), (x, _) in zip(stream, inputs):
        t0 = time.perf_counter()
        try:
            answer = ask(ak, kind, spaces[i], falgs[i], x)
        except Exception as exc:  # a failed query is a failed verdict
            answer = f"error: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        verdicts.append({"t": t1 - t0, "end": time.monotonic(), "kind": kind,
                         "class": "cong" if kind == "cong" else "read",
                         "inst": i, "ok": None})
        answers.append(canon(answer))

    # the check runs after the stream, outside every timed region
    oracles = [QueryOracle(s) for s in spaces]
    digest = hashlib.sha256()
    for v, (kind, i), (_, plain), got in zip(verdicts, stream, inputs, answers):
        v["ok"] = got == canon(oracles[i].expect(kind, plain))
        digest.update(f"{kind} {i} {got}\n".encode())
    return {"t_ready": t_ready, "verdicts": verdicts,
            "digest": digest.hexdigest()[:16]}


# -- lattice: one CLI job ---------------------------------------------------

def run_lattice_job(ak, spec, watch):
    """One CLI job through affinekit.cli.main, with --json. The time inside
    free_algebra, ground_space and as_algebra is set-up, the rest of main()
    is the verdict."""
    buf = io.StringIO()
    t0 = time.monotonic()
    try:
        with contextlib.redirect_stdout(buf):
            rc = sys.modules["affinekit.cli"].main(spec["argv"] + ["--json"])
        answer = json.loads(buf.getvalue()) if rc == 0 else {}
    except Exception as exc:  # a crashed job is a failed verdict
        rc, answer = f"{type(exc).__name__}: {exc}", {}
    t1 = time.monotonic()
    got = {key: answer.get(key) for key in spec["expect"]}
    return {
        "t_ready": None,
        "builder_s": watch.total,
        "verdicts": [{"t": t1 - t0 - watch.total, "end": t1,
                      "ok": rc == 0 and got == spec["expect"],
                      "kind": " ".join(spec["argv"]), "rc": rc, "answer": got}],
    }


def run_build(ak, spec):
    """Set-up only: build the instance a long lattice job builds before its
    first question, and ask nothing."""
    generator, ground, arity = spec["build"]
    space = ak.ground_space(ak.builtin(generator), ak.builtin(ground), arity)
    space.free.as_algebra()
    return {"t_ready": time.monotonic(), "verdicts": []}


# -- adjunction: one library session ----------------------------------------

def run_adjunction(ak, spec):
    """The Boolean sweep of acceptance criterion 07, the same sweep for z4
    over z2-in-z4, and representability over every congruence of F_bool2(n),
    n <= 2. At m = 2 the z4 sweep keeps one congruence of 15, the two-block
    one with the least labels, so that three passes fit in one run."""
    arities = (1,) if spec["tiny"] else (1, 2)
    bool2 = ak.builtin("bool2")
    z4, z2 = ak.builtin("z4"), ak.builtin("z2-in-z4")
    lines = [ak.ground_space(bool2, bool2, 1), ak.ground_space(z4, z2, 1)]
    sweep = [(0, ak.ground_space(bool2, bool2, m)) for m in arities]
    sweep += [(1, ak.ground_space(z4, z2, m)) for m in arities]
    represent = [ak.ground_space(bool2, bool2, n) for n in range(len(arities) + 1)]
    for space in lines + [s for _, s in sweep] + represent:
        space.free.as_algebra()

    calls = []
    for line, space in sweep:
        subsets = [ak.AffineSubset.of(lines[line], pts)
                   for pts in [(), (0,), (1,), (0, 1)]]
        thetas = ak.all_congruences(space.free.as_algebra())
        if line == 1 and space.arity == 2:
            thetas = [min((th for th in thetas if th.num_blocks == 2),
                          key=lambda th: th.labels)]
        for theta in thetas:
            y = ak.Relation.from_partition(space, theta)
            calls += [("adjoint", s, y, None) for s in subsets]
    for space in represent:
        for theta in ak.all_congruences(space.free.as_algebra()):
            y = ak.Relation.from_partition(space, theta)
            calls.append(("represent", None, y, theta.num_blocks))
    random.Random(spec["seed"]).shuffle(calls)
    t_ready = time.monotonic()  # set-up ends when the first question is ready

    verdicts = []
    for kind, s, y, blocks in calls:
        t0 = time.perf_counter()
        try:
            if kind == "adjoint":
                r = ak.verify_adjunction(s, y, seed=spec["seed"])
                ok = r.lhs == r.rhs and r.bijection_ok and r.natural_ok
            else:
                r = ak.representability_check(y)
                ok = r.hom_count == r.quotient_size == blocks and r.match
        except Exception:  # a failed theorem check is a failed verdict
            ok = False
        t1 = time.perf_counter()
        verdicts.append({"t": t1 - t0, "end": time.monotonic(), "kind": kind,
                         "ok": ok})
    return {"t_ready": t_ready, "verdicts": verdicts}


def main(spec):
    t0 = time.monotonic()
    import affinekit
    import affinekit.cli  # noqa: F401  (the lattice jobs enter here)
    t_import = time.monotonic()
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install(affinekit)
    out = {"import_s": t_import - t0, "t_import": t_import}
    if spec["kind"] == "lattice":
        watch = Stopwatch()
        watch.install(affinekit)
        out.update(run_lattice_job(affinekit, spec, watch))
    elif spec["kind"] == "build":
        out.update(run_build(affinekit, spec))
    elif spec["kind"] == "adjunction":
        out.update(run_adjunction(affinekit, spec))
    else:
        out.update(run_queries(affinekit, spec))
    if tracer:
        out["trace"] = tracer.summary()
        tracer.dump(spec["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
