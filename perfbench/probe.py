"""Set-up probe: import doctrinelab, build one workload's inputs, then print
the monotonic clock.

    python3 perfbench/probe.py catalog ID...
    python3 perfbench/probe.py sweep MAX_BASE MAX_FIBER BUDGET MAX_EMIT
    python3 perfbench/probe.py search WINDOW FILTER

The parent reads the clock before it starts this process, so the difference
is the set-up time from process start.  ``time.perf_counter`` reads
CLOCK_MONOTONIC on Linux, which all processes share.
"""

import sys
import time


def main(workload: str, args: list[str]) -> None:
    from doctrinelab import catalog, cli, theorems  # noqa: F401  (import cost)

    if workload == "catalog":
        for cid in args:
            catalog.instance(cid)
    elif workload == "sweep":
        max_base, max_fiber, budget, max_emit = map(int, args)
        list(theorems.enumerate_doctrines(max_base=max_base, max_fiber=max_fiber,
                                          budget=budget, max_emit=max_emit))
    elif workload == "search":
        theorems.fiber_shapes()
        for n in range(1, int(args[0]) + 1):
            theorems.chain_base(n)
        theorems.parse_filter(args[1])
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
