"""Fresh-process layer times of the catalog instances and commands.

    python3 tools/catalog_layers.py [--repeat N] [ID ...]

Run from the root of a source checkout; the package is imported from
``src/``.  For each catalog id (all five by default) it starts ``N`` fresh
processes (5 by default), each of which builds the instance and times, in
this order:

* ``close``: every ``ConcreteBuilder.close`` the build makes;
* ``build``: the whole ``catalog.instance`` call, ``close`` included;
* ``base.validate``: the category laws, which a built window proves by
  construction, reading only its generator columns;
* ``validate_doctrine``: functoriality and monotonicity of reindexing;
* ``meet`` and ``implication``: the first read of the meet table, then of
  the Heyting-implication table, of the largest fiber (``S8`` on
  ``PS(2,0)``).

It then runs, also ``N`` times each, the four catalog commands of the
benchmark (``validate``, ``classify``, ``theorem --all``, ``derive --what
sigma``), each in its own process with a ``--json`` report, and prints
each command's time, import included, next to its peak resident set size.
Last it prints the import floor, the peak resident set size of ``python
-c "import doctrinelab.cli"``, which every command pays before any work,
next to the interpreter's own, that of ``python -c pass``: their
difference is the package's share of the floor.  Each measured process is
started by perfbench's own ``run_program`` through a small ``python -S``
parent, which reads its ``ru_maxrss`` from ``os.wait4`` as the benchmark
does.  A process started by vfork inherits its parent's peak resident set
size, so the peak of this script, which compiles perfbench's modules, would
otherwise hide that of any smaller process.  Every figure printed is a
median, times in milliseconds, unscaled, and memory in MB.  The processes
inherit the environment, so ``PYTHONDONTWRITEBYTECODE=1`` makes each
compile the package from source, as the benchmark's commands do.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import run_program  # noqa: E402
IDS = ("PS(2,0)", "PS(1,1)", "SIER", "TRIV", "SL3")
COMMANDS = {"validate": ("validate",), "classify": ("classify",),
            "theorem --all": ("theorem", "--all"),
            "derive sigma": ("derive", "--what", "sigma")}
IMPORT = "import doctrinelab.cli"
# the measured process's parent: runs ``python ARGS``, then prints its wall
# time (ms) and peak RSS (MB) as the last line, and exits with its code
SPAWN = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
print((time.perf_counter() - start) * 1000, usage.ru_maxrss / 1024)
sys.exit(os.waitstatus_to_exitcode(status))
"""
LAYERS = ("close", "build", "base.validate", "validate_doctrine", "meet",
          "implication")


def layers(cid: str) -> dict:
    """The layer times of one fresh build of ``cid``, in milliseconds, and
    the name of its largest fiber."""
    from doctrinelab import catalog, fincat
    from doctrinelab.doctrine import validate_doctrine

    clock = time.perf_counter
    spent = {"close": 0.0}
    close = fincat.ConcreteBuilder.close

    def timed_close(builder):
        start = clock()
        try:
            return close(builder)
        finally:
            spent["close"] += clock() - start

    fincat.ConcreteBuilder.close = timed_close

    def timed(name, fn):
        start = clock()
        got = fn()
        spent[name] = clock() - start
        return got

    d = timed("build", lambda: catalog.instance(cid))
    timed("base.validate", d.base.validate)
    timed("validate_doctrine", lambda: validate_doctrine(d))
    largest = max(d.base.objects, key=lambda o: len(d.fibers[o]))
    fiber = d.fibers[largest]
    timed("meet", lambda: fiber.ops.meet)
    timed("implication", lambda: fiber.ops.heyting_implication)
    return {"fiber": f"{largest} ({len(d.fibers[largest])})",
            **{k: v * 1000 for k, v in spent.items()}}


def fresh_layers(cid: str, work: Path) -> dict:
    done = run_program((sys.executable, __file__, "--child", cid), work)
    if done.rc:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        raise SystemExit(f"building {cid} failed: {last}")
    return json.loads(done.stdout)


def spawned(args, work: Path, ok=(0,)) -> tuple[float, float]:
    """The wall time (ms) and peak RSS (MB) of one ``python ARGS`` process
    started by ``SPAWN``."""
    done = run_program((sys.executable, "-S", "-c", SPAWN, *args), work)
    if done.rc not in ok:
        raise SystemExit(f"python {' '.join(args)} exited {done.rc}: "
                         f"{done.stderr.strip()}")
    ms, mb = done.stdout.split()[-2:]
    return float(ms), float(mb)


def medians(args, work: Path, repeat: int, ok=(0,)) -> tuple[float, float]:
    runs = [spawned(args, work, ok) for _ in range(repeat)]
    return tuple(statistics.median(column) for column in zip(*runs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ids", nargs="*", default=list(IDS), metavar="ID")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        sys.path.insert(0, str(SRC))
        print(json.dumps(layers(args.child)))
        return 0
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print(f"medians of {args.repeat} fresh processes; times in ms, "
          "peak RSS in MB")
    print(f"{'id':8} {'largest fiber':14}"
          + "".join(f" {name:>17}" for name in LAYERS))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for cid in args.ids:
            runs = [fresh_layers(cid, work) for _ in range(args.repeat)]
            print(f"{cid:8} {runs[0]['fiber']:14}" + "".join(
                f" {statistics.median(r[name] for r in runs):17.1f}"
                for name in LAYERS))
        print(f"{'id':8}" + "".join(f" {name + ' ms':>17} {name + ' MB':>17}"
                                    for name in COMMANDS))
        for cid in args.ids:
            cells = []
            for cmd in COMMANDS.values():
                # exit code 1: some verdict is refuted
                ms, mb = medians(("-m", "doctrinelab.cli", *cmd, cid,
                                  "--json", "report.json"), work,
                                 args.repeat, ok=(0, 1))
                cells.append(f" {ms:17.1f} {mb:17.2f}")
            print(f"{cid:8}" + "".join(cells))
        floor, bare = (medians(("-c", code), work, args.repeat)[1]
                       for code in (IMPORT, "pass"))
        print(f"import floor {floor:.2f} MB: python -c '{IMPORT}'; "
              f"interpreter {bare:.2f} MB: python -c 'pass'")
    return 0


if __name__ == "__main__":
    sys.exit(main())
