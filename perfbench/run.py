"""doctrinelab benchmark.

    python3 perfbench/run.py --workload {catalog,sweep,search} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported and run
from ``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it holds every metric the workload measured.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"


def metric_units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("catalog", "sweep", "search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # unwind on SIGTERM too, so that a running program process is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "doctrinelab" / "__init__.py").is_file():
        print(f"error: no doctrinelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                bool(args.trace))
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        units = metric_units(spec["per_layer"])
        measured = {name: (result.layers[name], unit)
                    for name, unit in units.items()}
    else:
        units = metric_units(spec["end_to_end"])
        measured = result.metrics
    print("workload metrics: " + json.dumps(
        {name: {"value": v, "unit": u} for name, (v, u) in
         {**result.metrics, **measured}.items()}))
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": measured[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
