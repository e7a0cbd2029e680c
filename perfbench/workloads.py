"""The benchmark's three workloads.

Each workload runs whole rounds of the same operations for about
``seconds`` (at least one round), then checks the outputs outside the timed
regions.  The program runs either as the ``doctrinelab`` CLI, one process
per command and one process at a time, or through the package's public
functions in this process (``sweep``).  With ``trace`` a workload runs a
fixed number of plain and traced rounds instead and also returns per-layer
metrics.

A process started by vfork inherits its parent's peak RSS, so until the CLI
rounds are over this process imports neither doctrinelab nor ``checks`` and
holds no span dumps: it stays smaller than any program process it starts.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CLI = (sys.executable, "-m", "doctrinelab.cli")
TRACED_CLI = (sys.executable, str(HERE / "tracing.py"))
SETUP_REPEATS = 3
SETUP_SPAN_S = 2.0
SETUP_MAX_REPEATS = 15
PROCESS_TIMEOUT_S = 170.0


@dataclass
class Proc:
    rc: int
    start: float
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Op:
    """One operation: ``failures`` are unexpected exit codes and tracebacks,
    ``wrong`` are failed checks of its output."""
    name: str
    proc: Proc
    report: bytes | None = None
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    spans_path: Path | None = None
    spans: dict | None = None


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] | None = None

    def count(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            if op.failures or op.wrong:
                self.failed += 1
            self.problems += op.wrong


def program_env(**extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DOCTRINELAB_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def run_program(argv, cwd: Path, env: dict | None = None) -> Proc:
    """Run one program process to its end; wall time and peak RSS are its
    own."""
    with open(cwd / "stdout", "wb+") as out, open(cwd / "stderr", "wb+") as err:
        start = time.perf_counter()
        p = subprocess.Popen(list(argv), stdout=out, stderr=err, cwd=cwd,
                             env=env or program_env())
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(p.returncode, start, wall, usage.ru_maxrss / 1024.0,
                    out.read().decode("utf-8", "replace"),
                    err.read().decode("utf-8", "replace"))


def measure_setup(cwd: Path, probe_args) -> float:
    """Median over fresh processes of the time from process start until the
    workload's inputs are built: at least SETUP_REPEATS of them, and more
    while they take under SETUP_SPAN_S together, so that a set-up of a
    tenth of a second is not the median of three process starts."""
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SPAN_S
                                         and len(times) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        proc = run_program((sys.executable, str(HERE / "probe.py"), *probe_args), cwd)
        if proc.rc != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr}")
        times.append(float(proc.stdout) - start)
    return statistics.median(times)


def timed_rounds(seconds: float, one_round) -> list:
    """Whole rounds, at least one.  Another round starts only if one of the
    median length so far would end within ``seconds``, so that a run lasts
    at most about ``seconds`` however long a round takes."""
    rounds, lengths = [], []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        rounds.append(one_round(len(rounds)))
        now = time.perf_counter()
        lengths.append(now - begin)
        if now - start + statistics.median(lengths) > seconds:
            return rounds


def run_cli(name: str, args, cwd: Path, tag: str, traced: bool,
            env: dict | None = None, report: bool = True) -> Op:
    """One CLI command; under ``traced`` it runs through tracing.py."""
    json_path = cwd / f"{tag}.json"
    spans_path = cwd / f"{tag}.spans.json"
    args = list(args) + (["--json", str(json_path)] if report else [])
    argv = (*TRACED_CLI, str(spans_path), *args) if traced else (*CLI, *args)
    op = Op(name, run_program(argv, cwd, env),
            spans_path=spans_path if traced else None)
    if report and json_path.exists():
        op.report = json_path.read_bytes()
        json_path.unlink()
    return op


def load_spans(ops) -> None:
    for op in ops:
        op.spans = tracing.load(op.spans_path)


def paired_rounds(keys, run_op) -> list[dict]:
    """A plain and a traced round, interleaved operation by operation in
    ABBA order, so that drift in machine speed falls on both alike."""
    plain, traced = {}, {}
    for j, key in enumerate(keys):
        for on in ((False, True) if j % 2 == 0 else (True, False)):
            tag = f"{'t' if on else 'p'}{j}"  # one spans file per operation
            (traced if on else plain)[key] = run_op(key, tag, on)
    return [plain, traced]


def traced_wall(op: Op) -> float:
    """From process start to the end of the traced command, before the
    spans are written out."""
    return op.spans.get("end", op.proc.start + op.proc.wall_s) - op.proc.start


# The reference's time at the speed that every time metric is scaled to.
REFERENCE_S = 0.040


def reference() -> float:
    """Time one pass of fixed work shaped like the program's: tuple-keyed
    dict updates, small sorts, frozensets in tuples, a JSON dump."""
    start = time.perf_counter()
    counts: dict = {}
    for k in range(40_000):
        key = (k % 97, k % 13)
        counts[key] = counts.get(key, 0) + 1
        sorted((k % 7, k % 5, k % 3))
    for _ in range(10):  # in small pieces, so as not to raise peak RSS
        items = [(i % 17, frozenset((i % 5, i % 7))) for i in range(2_000)]
        index: dict = {}
        for item in items:
            index.setdefault(item, []).append(item[0])
        json.dumps([[a, sorted(b)] for a, b in items[:500]])
    return time.perf_counter() - start


class Speed:
    """How fast the machine ran during one run, from the reference timed
    between rounds or commands, outside the timed regions.

    A shared virtual machine drifts between speed states up to about 1.5x
    apart that hold for a minute or more, on both vCPUs at once; a run of
    this benchmark then falls wholly in one state.  Over the same 25-s
    windows of a 300-s record of sweep rounds, the median round time varied
    16 % between windows and its ratio to the median reference time 6 to
    8 %.  So every time metric is scaled to the reference speed: a wall
    time times REFERENCE_S over the run's median reference time."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(reference())

    def factor(self) -> float:
        """The run's wall times over the same times at the reference
        speed."""
        return statistics.median(self.samples) / REFERENCE_S


def median_of(rounds, key) -> float:
    """The median over a run's rounds.  A shared virtual machine's speed
    drifts: on a 2-vCPU VM the same sweep round held at 0.47 s for minutes,
    with stretches of bursts between 0.28 and 0.55 s.  Over 25-s windows of
    such a record the median varied 6 % between windows, the 10th
    percentile 26 % and the fastest round 32 %."""
    return statistics.median(key(r) for r in rounds)


def trace_layers(result: Result, dumps, traced_s: float, plain_s: float,
                 workload: str, report_bytes: int) -> None:
    result.layers = tracing.summarize([d for _, d in dumps], traced_s, plain_s)
    result.layers["cli.report_bytes"] = report_bytes
    WORK.mkdir(exist_ok=True)
    tracing.write_spans(WORK / f"spans-{workload}.jsonl", dumps)


def workdir() -> tempfile.TemporaryDirectory:
    """A scratch directory for one run, inside the checkout."""
    WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK)


# -- catalog ------------------------------------------------------------------------

CATALOG_IDS = ("PS(2,0)", "PS(1,1)", "SIER", "TRIV", "SL3")
CATALOG_COMMANDS = {"validate": ("validate",), "classify": ("classify",),
                    "theorem_all": ("theorem", "--all"),
                    "derive": ("derive", "--what", "sigma")}
# Commands on this id take seconds each; one of them, picked by the seed, is
# repeated for the byte-determinism check, every other command is.
HEAVY_ID = "PS(2,0)"


def catalog(seed: int, seconds: float, trace: bool,
            ids=CATALOG_IDS) -> Result:
    rng = random.Random(seed)
    ops = [(kind, cid) for cid in ids for kind in CATALOG_COMMANDS]
    result = Result()
    speed = Speed()
    with workdir() as tmp:
        cwd = Path(tmp)
        setup_s = measure_setup(cwd, ("catalog", *ids))

        def run_op(key, tag: str, traced: bool = False) -> Op:
            kind, cid = key
            speed.sample()
            return run_cli(f"{kind} {cid}", (*CATALOG_COMMANDS[kind], cid), cwd,
                           tag, traced)

        def one_round(i: int) -> dict:
            return {key: run_op(key, f"r{i}") for key in rng.sample(ops, len(ops))}

        if trace:
            rounds = paired_rounds(rng.sample(ops, len(ops)), run_op)
            load_spans(rounds[1].values())
            repeats = []
        else:
            rounds = timed_rounds(seconds, one_round)
            # not counted as operations: they only check byte-determinism
            heavy = [op for op in ops if op[1] == HEAVY_ID]
            again = [op for op in ops if op[1] != HEAVY_ID]
            again += rng.sample(heavy, min(1, len(heavy)))
            repeats = [{key: run_op(key, "again") for key in again}]

    import checks
    from doctrinelab import catalog as lab_catalog

    instances = {cid: lab_catalog.instance(cid) for cid in ids}
    verified: dict = {}
    for done in rounds:
        for (kind, cid), op in done.items():
            check_catalog_op(op, kind, instances[cid], verified)
    first = rounds[0]
    for done in rounds[1:] + repeats:
        for key, op in done.items():
            f = first[key]
            f.wrong += checks.check_identical(f.name, f.report, op.report)
    for done in rounds:
        result.count(done.values())
    for cid in ids:
        if checks.PS_ID.match(cid):
            d = instances[cid]
            result.problems += checks.check_projection_adjoints(
                d, *adjoint_tables(d, checks.projections(d)))

    def total(r, kinds=CATALOG_COMMANDS) -> float:
        return sum(op.proc.wall_s for (kind, _), op in r.items() if kind in kinds)

    plain = rounds[:1] if trace else rounds
    slow = speed.factor()
    result.metrics = {
        "setup_s": (setup_s / slow, "s"),
        "round_s": (median_of(plain, total) / slow, "s"),
        "peak_rss_mb": (median_of(plain, lambda r: max(
            op.proc.rss_mb for op in r.values())), "MB"),
        **{f"{kind}_s": (median_of(plain, lambda r, k=kind: total(r, (k,))) / slow,
                         "s")
           for kind in CATALOG_COMMANDS},
        "round_wall_s": (median_of(plain, total), "s"),
        "speed_factor": (slow, "x"),
    }
    if trace:
        traced = rounds[1]
        trace_layers(result, [(op.name, op.spans) for op in traced.values()],
                     sum(map(traced_wall, traced.values())), total(rounds[0]),
                     "catalog",
                     sum(len(op.report or b"") for op in traced.values()))
    return result


def check_catalog_op(op: Op, kind: str, d, verified: dict) -> None:
    """Exit code, traceback and output checks; identical outputs are
    checked once."""
    import checks

    report = None
    if op.report is None:
        op.failures.append(f"{op.name}: no --json report")
    else:
        report = checks.load_report(kind, op.report)
    expected = 0 if report is None else checks.expected_exit(kind, report)
    op.failures += checks.check_exit(op.name, op.proc.rc, op.proc.stderr, expected)
    if report is None:
        return
    key = (kind, d.name, op.report)
    if key not in verified:
        wrong = checks.check_rechecks(kind, report, d)
        if kind == "theorem_all":
            wrong += checks.check_no_violation(report)
        elif kind == "classify":
            wrong += checks.check_classification(d.name, report)
        elif kind == "derive" and checks.PS_ID.match(d.name):
            wrong += checks.check_derived_sigma(report, d)
        verified[key] = wrong
    op.wrong += verified[key]


def adjoint_tables(d, arrows) -> tuple[dict, dict]:
    """The program's Sigma and Pi tables along ``arrows``, None where it
    found no adjoint."""
    sigma, pi = {}, {}
    for f in arrows:
        for tables, adjoint in ((sigma, d.sigma(f)), (pi, d.pi(f))):
            tables[f] = None if adjoint is None else dict(adjoint.table)
    return sigma, pi


# -- sweep ----------------------------------------------------------------------------

# Acceptance criterion 8's space: chains of up to 4 objects, fibers of up to
# 3 elements, the first 10,000 non-isomorphic doctrines.  Enumerating it is
# the workload's set-up; the search workload times enumeration.
SWEEP_SPACE = {"max_base": 4, "max_fiber": 3, "budget": 500_000,
               "max_emit": 10_000}
SWEEP_ROUND = 250      # doctrines per round
SWEEP_INSPECTED = 2    # of each round, re-verified from primitives
SWEEP_TRACE_ORDER = (False, True, True, False) * 2


def doctrine_size(d) -> tuple[int, int, int]:
    """Base arrows, fiber elements and order pairs: what a check's cost
    grows with."""
    fibers = d.fibers.values()
    return (len(d.base.arrows), sum(len(p.elements) for p in fibers),
            sum(m.bit_count() for p in fibers for m in p.uppers))


def deal(doctrines: list, per_round: int, rng: random.Random) -> list[list]:
    """Deal the doctrines out to rounds of ``per_round`` so that every round
    holds the same mix of sizes: sorted by size, each run of as many
    doctrines as there are rounds gives one to every round, in the seed's
    order.  A round's time then varies with the machine, not with which
    doctrines it drew.  Each round is in the seed's order too, so that its
    first doctrines, the ones re-verified, are a sample of every size."""
    doctrines = sorted(rng.sample(doctrines, len(doctrines)), key=doctrine_size)
    n = max(1, len(doctrines) // per_round)
    batches: list[list] = [[] for _ in range(n)]
    for i in range(0, n * per_round, n):
        for batch, d in zip(batches, rng.sample(doctrines[i:i + n], n)):
            batch.append(d)
    return [rng.sample(batch, len(batch)) for batch in batches]


def sweep(seed: int, seconds: float, trace: bool, space=SWEEP_SPACE,
          per_round: int = SWEEP_ROUND,
          inspected: int = SWEEP_INSPECTED) -> Result:
    import resource

    import checks
    from doctrinelab import theorems
    from doctrinelab.doctrine import Doctrine, validate_doctrine

    rng = random.Random(seed)
    with workdir() as tmp:
        cwd = Path(tmp)
        setup_s = measure_setup(cwd, ("sweep", *map(str, space.values())))
    batches: list = []

    def refill() -> None:
        fresh = list(theorems.enumerate_doctrines(**space))
        if len(fresh) < space["max_emit"]:
            raise RuntimeError(f"sweep: {len(fresh)} doctrines enumerated")
        batches.extend(deal(fresh, per_round, rng))
        # The batches are the benchmark's store of inputs, not program
        # state; left to the cyclic collector, traversing them costs ~17 %
        # of a round.
        gc.freeze()

    def one_round(i: int) -> dict:
        # every doctrine is checked once, so no memo is warm
        if not batches:
            refill()
        doctrines = batches.pop()
        kept, failed = [], {}
        speed.sample()
        start = time.perf_counter()
        for n, d in enumerate(doctrines):
            try:
                reports = theorems.check_all(d)
            except Exception as exc:  # counted as a failed operation
                failed[d.name] = f"{d.name}: {exc!r}"
                continue
            # summing 18 flags costs about 0.1 % of check_all
            if sum(r.is_violation for r in reports):
                failed[d.name] = f"{d.name}: theorem violation"
            if n < inspected:
                kept.append((d, reports))
        wall = time.perf_counter() - start
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"wall_s": wall, "rss_mb": rss, "kept": kept, "failed": failed}

    def settle(r: dict) -> dict:
        """Check a round's inspected doctrines, then let them go, so that
        memory does not grow with the number of rounds."""
        failed = r["failed"]
        result.problems += [m for m in failed.values() if "violation" in m]
        for d, reports in r.pop("kept"):
            fresh = Doctrine(d.base, d.fibers, d.reindex, name=d.name,
                             source=d.source, declared=d.declared)
            wrong = checks.check_adjoints(d, *adjoint_tables(d, d.base.arrows))
            wrong += checks.check_functoriality(d, validate_doctrine(d).status)
            wrong += checks.check_rechecks(
                "theorem_all", [rep.to_json() for rep in reports], fresh)
            if wrong:
                result.problems += wrong
                failed[d.name] = wrong[0]
        result.attempted += per_round
        result.failed += len(failed)
        return r

    result = Result()
    speed = Speed()
    rounds, traced = [], []
    tracer = tracing.Tracer()
    refill()
    try:
        if trace:
            # plain and traced rounds in ABBA order, so that warm-up and
            # drift in machine speed fall on both sides alike
            for i, tracing_on in enumerate(SWEEP_TRACE_ORDER):
                if not tracing_on:
                    rounds.append(settle(one_round(i)))
                    continue
                tracer.install()
                try:
                    r = one_round(i)
                finally:
                    tracer.uninstall()
                traced.append(settle(r))
        else:
            rounds = timed_rounds(seconds, lambda i: settle(one_round(i)))
    finally:
        gc.unfreeze()
    wall = median_of(rounds, lambda r: r["wall_s"])
    slow = speed.factor()
    result.metrics = {
        "setup_s": (setup_s / slow, "s"),
        "round_s": (wall / slow, "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in rounds), "MB"),
        "doctrines_per_s": (per_round * slow / wall, "doctrines/s"),
        "round_wall_s": (wall, "s"),
        "speed_factor": (slow, "x"),
    }
    if trace:
        trace_layers(result, [("sweep", tracer.dump())],
                     sum(r["wall_s"] for r in traced),
                     sum(r["wall_s"] for r in rounds), "sweep", 0)
    return result


# -- search ---------------------------------------------------------------------------

SEARCH_FILTER = "full_comp&!classical"
SEARCH_WINDOW = 3
SEARCH_CAP = "1000000"   # --limit and --budget: walk the whole window
SEARCH_OPS = ("search", "bad_budget")


def search(seed: int, seconds: float, trace: bool,
           window: int = SEARCH_WINDOW) -> Result:
    rng = random.Random(seed)
    args = ("search", "--filter", SEARCH_FILTER, "--window", str(window),
            "--limit", SEARCH_CAP, "--budget", SEARCH_CAP)
    # The README documents exit 2 for a malformed DOCTRINELAB_BUDGET.
    bad_budget = ("search", "--filter", "tripos")
    result = Result()
    speed = Speed()
    with workdir() as tmp:
        cwd = Path(tmp)
        setup_s = measure_setup(cwd, ("search", str(window), SEARCH_FILTER))

        def run_op(name: str, tag: str, traced: bool = False) -> Op:
            speed.sample()
            if name == "search":
                return run_cli(name, args, cwd, tag, traced)
            return run_cli(name, bad_budget, cwd, tag, traced,
                           env=program_env(DOCTRINELAB_BUDGET="abc"), report=False)

        def one_round(i: int) -> dict:
            return {name: run_op(name, f"r{i}") for name in rng.sample(SEARCH_OPS, 2)}

        rounds = (paired_rounds(rng.sample(SEARCH_OPS, 2), run_op) if trace
                  else timed_rounds(seconds, one_round))
        if trace:
            load_spans(rounds[1].values())

    import checks
    from doctrinelab import theorems

    expr = theorems.parse_filter(SEARCH_FILTER)

    verified: dict = {}
    summaries = []
    for r in rounds:
        op = r["search"]
        op.failures += checks.check_exit(op.name, op.proc.rc, op.proc.stderr, 0)
        summary = checks.search_summary(op.proc.stdout)
        if summary is None or op.report is None:
            op.failures.append("search: no summary line or no --json report")
        else:
            summaries.append(summary)
            if op.report not in verified:
                verified[op.report] = checks.check_search_documents(
                    op.report, summary[0], expr)
            op.wrong += verified[op.report]
            op.wrong += checks.check_identical(op.name, rounds[0]["search"].report,
                                               op.report)
        bad = r["bad_budget"]
        bad.failures += checks.check_exit(bad.name, bad.proc.rc, bad.proc.stderr,
                                          checks.USAGE_ERROR)
        result.count(r.values())

    # Outside the timed rounds: the filter and its negation split the window.
    space = {"max_base": window, "max_fiber": window,
             "budget": int(SEARCH_CAP)}
    negated = sum(1 for _ in theorems.enumerate_doctrines(
        filter_expr=f"!({SEARCH_FILTER})", **space))
    stats: dict = {}
    total = sum(1 for _ in theorems.enumerate_doctrines(stats=stats, **space))
    for matches, candidates in set(summaries):
        result.problems += checks.check_partition(matches, negated, total)
        if candidates != stats["candidates"]:
            result.problems.append(f"search: {candidates} candidates reported, "
                                   f"{stats['candidates']} in the window")

    plain = rounds[:1] if trace else rounds
    wall = median_of(plain, lambda r: sum(op.proc.wall_s for op in r.values()))
    slow = speed.factor()
    result.metrics = {
        "setup_s": (setup_s / slow, "s"),
        "round_s": (wall / slow, "s"),
        "peak_rss_mb": (median_of(plain, lambda r: max(
            op.proc.rss_mb for op in r.values())), "MB"),
        "candidates_per_s": ((summaries[0][1] if summaries else 0) * slow / median_of(
            plain, lambda r: r["search"].proc.wall_s), "candidates/s"),
        "round_wall_s": (wall, "s"),
        "speed_factor": (slow, "x"),
    }
    if trace:
        traced = rounds[1]
        trace_layers(result, [(op.name, op.spans) for op in traced.values()],
                     sum(map(traced_wall, traced.values())),
                     sum(op.proc.wall_s for op in rounds[0].values()), "search",
                     len(traced["search"].report or b""))
    return result


WORKLOADS = {"catalog": catalog, "sweep": sweep, "search": search}
