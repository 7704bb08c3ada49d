"""Warm-interpreter runner for one workload, driven over a pipe by ``run.py``.

Imports ``couplersim.cli`` once and runs one untimed pass over the
workload's configs.  Then, for each line ``plain`` or ``traced`` on standard
input, it runs one pass of ``cli.run_config`` over the configs into
``<out-root>/<plain|traced>/<scenario>`` and answers with one JSON line: the
seconds of each ``run_config`` call, a ``[tree, scenario, digest]`` entry per
execution (digest ``null`` when the scenario raised) and, for a traced
pass, the per-layer values.  ``quit`` or end of input stops it.  The
program's own output goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import checker
import metrics
from tracer import Tracer


def run_pass(cli, runs: list, out_root: str, tree: str) -> tuple:
    """One pass over the configs; returns the seconds each ``run_config``
    call took and the executions."""
    seconds = []
    executions = []
    for scenario, config, _ in runs:
        out = os.path.join(out_root, tree, scenario)
        start = time.perf_counter()
        try:
            cli.run_config(config, out=out)
        except Exception:  # a failing scenario is counted, the pass goes on
            seconds.append(time.perf_counter() - start)
            traceback.print_exc()
            executions.append((tree, scenario, None))
            continue
        seconds.append(time.perf_counter() - start)
        executions.append((tree, scenario, checker.digest(out)))
    return seconds, executions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", required=True, help="JSON list of [scenario, config, out]")
    parser.add_argument("--out-root", required=True)
    args = parser.parse_args(argv)

    with open(args.runs) as fh:
        runs = json.load(fh)
    reply = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def send(payload: dict) -> None:
        reply.write(json.dumps(payload) + "\n")
        reply.flush()

    import couplersim.cli as cli

    seconds, executions = run_pass(cli, runs, args.out_root, "plain")
    send({"seconds": seconds, "executions": executions})
    tracer = Tracer()
    for line in sys.stdin:
        command = line.strip()
        if command == "plain":
            seconds, executions = run_pass(cli, runs, args.out_root, "plain")
            send({"seconds": seconds, "executions": executions})
        elif command == "traced":
            tracer.reset()
            with tracer:
                seconds, executions = run_pass(cli, runs, args.out_root, "traced")
            values = metrics.trace_values(tracer.spans, tracer.counters, tracer.wrapped)
            values["cli.bytes_out"] = sum(
                checker.data_bytes(os.path.join(args.out_root, t, s))
                for t, s, d in executions if d)
            send({"seconds": seconds, "executions": executions, "layers": values})
        else:
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
