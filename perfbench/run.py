#!/usr/bin/env python3
"""couplersim benchmark: runs one workload, checks its outputs, prints metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload cz-paper --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median wall time of a fresh ``python -c "import couplersim.cli"``;
* ``wall_s``, ``cpu_s``: wall and user+system CPU time of the workload's
  configs through ``python -m couplersim.cli run``, one process per config;
* ``peak_rss_mb``: median over those passes of the largest resident set;
* ``compute_s``: time of ``cli.run_config`` over the same configs in a warm
  interpreter (``worker.py``), after one untimed pass.

The samples are interleaved (see :func:`schedule`) until ``--seconds`` are
spent, so each metric samples the whole run; each metric is the median of
its samples.  The timing metrics are then divided by the run's host
slowdown: the mean time of ``PROBE``, a fixed program run in fresh
processes between the other samples, over ``PROBE_REF_S``.

``--trace 1`` reports the per-layer metrics instead: import times from
``-X importtime`` and the spans of traced passes in the warm interpreter
(see ``tracer.py``), interleaved with untraced passes; ``trace.overhead_s``
is the traced minus the untraced ``compute_s``, both taken as above.

Every scenario run, in a process or in the warm interpreter, is checked
against the reference outputs in ``reference/`` within ``tolerances.json``;
a run that exits non-zero or writes an output outside tolerance fails.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, environment
included, goes to ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checker
import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference")
TOLERANCES = os.path.join(HERE, "tolerances.json")

HARD_LIMIT_S = 170.0
SETUP_REPS = 5
IMPORTTIME_REPS = 3
MIN_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_STMT = "import couplersim.cli"
#: A fixed program that uses nothing of the repository: interpreter start,
#: numpy import, a Python loop and batched 6x6 ``eigh``.  Its run time
#: tracks the speed of the host at the moment.
PROBE = """
import numpy as np
s = 0
for i in range(200_000):
    s += i * i
h = np.random.default_rng(0).standard_normal((256, 6, 6))
h = h + h.transpose(0, 2, 1)
for _ in range(30):
    np.linalg.eigh(h)
"""
#: Probe time, in seconds, of the host the benchmark was defined on when
#: undisturbed; timing metrics are scaled to a host where the probe takes
#: this long.
PROBE_REF_S = 0.25
PROBE_REPS = 5
TIMED = ("wall_s", "compute_s", "setup_s", "cpu_s")


class BenchmarkError(Exception):
    """A measurement could not be taken; the run prints no result."""


class Clock:
    def __init__(self):
        self.start = time.perf_counter()

    def remaining(self) -> float:
        left = HARD_LIMIT_S - (time.perf_counter() - self.start)
        if left <= 1.0:
            raise BenchmarkError("time limit reached")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list, env: dict, timeout: float, stderr_path: str) -> dict:
    """Run one process; wall time, exit code and its own resource usage."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


def _tail(path: str, n: int = 5) -> str:
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-n:])


# ---------------------------------------------------------------------------
# output checking
# ---------------------------------------------------------------------------

class Verifier:
    """Checks scenario outputs against the reference, once per distinct content."""

    def __init__(self, cfg_seed: int):
        self.cfg_seed = cfg_seed
        self.tol = checker.Tolerances.load(TOLERANCES)
        self.verdicts = {}

    def _reference(self, scenario: str):
        seed = self.cfg_seed if scenario in workloads.SEEDED else None
        path = checker.reference_path(REFERENCE, scenario, seed)
        if not os.path.exists(path):
            return None
        return checker.load_reference(path)

    def check(self, scenario: str, out_dir: str) -> tuple:
        """(digest, errors) for the outputs now in ``out_dir``."""
        if not os.path.isdir(out_dir):
            return None, [f"{scenario}: no output directory"]
        d = checker.digest(out_dir)
        key = (scenario, d)
        if key not in self.verdicts:
            ref = self._reference(scenario)
            self.verdicts[key] = (["no reference for " + scenario] if ref is None
                                  else checker.compare(ref, out_dir, scenario, self.tol))
        return d, self.verdicts[key]

    def verdict(self, scenario: str, d):
        """Errors recorded for a digest, or None when it was never checked."""
        return self.verdicts.get((scenario, d))


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def setup_rep(env: dict, clock: Clock, log: str, code: str = IMPORT_STMT) -> float:
    """Wall time of one fresh interpreter that runs ``code``: by default it
    imports the CLI module."""
    r = run_child([sys.executable, "-c", code], env, clock.remaining(), log)
    if r["exit"] != 0:
        raise BenchmarkError(f"{code.strip().splitlines()[0]} failed: {_tail(log)}")
    return r["wall_s"]


def parse_importtime(text: str) -> tuple:
    """Cumulative seconds per module from ``-X importtime`` output, and the
    import time of the package: the sum of its top-level entries (the
    package and any submodule imported outside it)."""
    cumulative, package = {}, 0.0
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        name = name.strip()
        seconds = int(cum) * 1e-6
        cumulative[name] = cumulative.get(name, 0.0) + seconds
        if level == 0 and name.split(".", 1)[0] == "couplersim":
            package += seconds
    return cumulative, package


def importtime_rep(env: dict, clock: Clock, log: str) -> dict:
    r = run_child([sys.executable, "-X", "importtime", "-c", IMPORT_STMT],
                  env, clock.remaining(), log)
    if r["exit"] != 0:
        raise BenchmarkError(f"import failed: {_tail(log)}")
    with open(log) as fh:
        cumulative, package = parse_importtime(fh.read())
    return {"setup.scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
            "setup.couplersim_s": package}


def cli_pass(runs: list, env: dict, verifier: Verifier, clock: Clock, log: str,
             failures: list) -> list:
    """One pass of the workload through the CLI, one process per config;
    the :func:`run_child` record of each process."""
    one = []
    for scenario, config, out_dir in runs:
        r = run_child([sys.executable, "-m", "couplersim.cli", "run", config],
                      env, clock.remaining(), log)
        one.append(r)
        if r["exit"] != 0:
            failures.append(f"{scenario} (cli): exit {r['exit']}: {_tail(log)}")
            continue
        _, errors = verifier.check(scenario, os.path.join(ROOT, out_dir))
        if errors:
            failures.append(f"{scenario} (cli): " + "; ".join(errors[:3]))
    return one


class Worker:
    """The warm interpreter of ``worker.py``: one pass per request."""

    def __init__(self, runs: list, work: str, env: dict, clock: Clock):
        runs_path = os.path.join(work, "runs.json")
        with open(runs_path, "w") as fh:
            json.dump(runs, fh)
        self.log_path = os.path.join(work, "worker.log")
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--runs", runs_path,
             "--out-root", os.path.join(work, "warm")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, text=True)
        self.watchdog = threading.Timer(clock.remaining(), self.proc.kill)
        self.watchdog.start()
        self.executions = []

    def __enter__(self):
        try:
            self._read()  # the untimed first pass
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.watchdog.cancel()
        self.log.close()
        return False

    def request(self, tree: str) -> dict:
        try:
            self.proc.stdin.write(tree + "\n")
            self.proc.stdin.flush()
        except OSError:
            raise BenchmarkError(f"warm interpreter stopped: {_tail(self.log_path)}") from None
        return self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError(f"warm interpreter stopped: {_tail(self.log_path)}")
        reply = json.loads(line)
        self.executions += reply["executions"]
        return reply


def judge_worker(executions: list, work: str, verifier: Verifier, failures: list) -> int:
    """Check the worker's final outputs, then judge every execution it made:
    its outputs must be the checked ones, and a traced run must write the
    same bytes as an untraced one."""
    final = {}
    for tree, scenario, _ in executions:
        if (tree, scenario) not in final:
            out_dir = os.path.join(work, "warm", tree, scenario)
            final[tree, scenario] = verifier.check(scenario, out_dir)[0]
    for tree, scenario, d in executions:
        where = f"{scenario} ({tree})"
        errors = verifier.verdict(scenario, d)
        if d is None:
            failures.append(f"{where}: raised, see worker log")
        elif errors is None:
            failures.append(f"{where}: outputs differ between passes")
        elif errors:
            failures.append(f"{where}: " + "; ".join(errors[:3]))
        elif tree == "traced" and d != final.get(("plain", scenario)):
            failures.append(f"{where}: traced and untraced data files differ")
    return len(executions)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "config_seed": workloads.config_seed(seed),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def schedule(tasks: list, seconds: float) -> None:
    """Run ``(share, minimum, step)`` tasks interleaved for ``seconds``.

    Each ``step()`` takes one sample and returns how long it took.  The next
    task is the one furthest below its share of the time spent so far, so
    every metric samples the whole run and not one stretch of it; tasks
    below their minimum count go first.  The loop ends when the next
    sample, at its mean length, would overrun.
    """
    spent = [0.0] * len(tasks)
    count = [0] * len(tasks)
    end = time.perf_counter() + seconds
    while True:
        short = [i for i, (_, minimum, _) in enumerate(tasks) if count[i] < minimum]
        pool = short or range(len(tasks))
        i = min(pool, key=lambda k: (spent[k] / tasks[k][0], k))
        if not short and time.perf_counter() + spent[i] / count[i] > end:
            return
        spent[i] += tasks[i][2]()
        count[i] += 1


def pass_median(passes: list) -> float:
    """Median over the passes of a pass's total time (a pass is a list of
    per-config times)."""
    return statistics.median(sum(p) for p in passes)


def measure(args, runs: list, work: str, clock: Clock, failures: list) -> tuple:
    env = child_env()
    verifier = Verifier(workloads.config_seed(args.seed))
    log = os.path.join(work, "child.log")
    samples = {}

    def add(name: str, value) -> None:
        samples.setdefault(name, []).append(value)

    def timed(fn):
        def step() -> float:
            began = time.perf_counter()
            fn()
            return time.perf_counter() - began
        return step

    with Worker(runs, work, env, clock) as worker:
        def cli_step():
            one = cli_pass(runs, env, verifier, clock, log, failures)
            add("wall_s", [r["wall_s"] for r in one])
            add("cpu_s", [r["cpu_s"] for r in one])
            add("peak_rss_mb", max(r["rss_mb"] for r in one))

        def warm_step(tree: str):
            reply = worker.request(tree)
            add("compute_s" if tree == "plain" else "traced_s", reply["seconds"])
            if "layers" in reply:
                add("layers", reply["layers"])

        if args.trace == 0:
            schedule([
                (0.08, PROBE_REPS, timed(lambda: add("probe_s", setup_rep(env, clock, log, PROBE)))),
                (0.12, SETUP_REPS, timed(lambda: add("setup_s", setup_rep(env, clock, log)))),
                (0.45, MIN_PASSES, timed(cli_step)),
                (0.35, MIN_PASSES, timed(lambda: warm_step("plain"))),
            ], args.seconds)
        else:
            schedule([
                (0.10, IMPORTTIME_REPS,
                 timed(lambda: add("importtime", importtime_rep(env, clock, log)))),
                (0.45, MIN_PASSES, timed(lambda: warm_step("plain"))),
                (0.45, MIN_PASSES, timed(lambda: warm_step("traced"))),
            ], args.seconds)
    attempted = len(runs) * len(samples.get("wall_s", ()))
    attempted += judge_worker(worker.executions, work, verifier, failures)

    if args.trace == 0:
        measured = {"setup_s": statistics.median(samples["setup_s"]),
                    "peak_rss_mb": statistics.median(samples["peak_rss_mb"])}
        for name in ("wall_s", "cpu_s", "compute_s"):
            measured[name] = pass_median(samples[name])
        speed = statistics.fmean(samples["probe_s"]) / PROBE_REF_S
        samples["measured"] = measured
        samples["host_slowdown"] = speed
        values = {k: v / speed if k in TIMED else v for k, v in measured.items()}
        units = metrics.END_TO_END
        absent = []
    else:
        values = {k: statistics.median(r[k] for r in samples["importtime"])
                  for k in samples["importtime"][0]}
        layers = samples.pop("layers")
        absent = sorted(k for k, v in layers[0].items() if v is None)
        for key in layers[0]:
            values[key] = 0 if key in absent else statistics.median(p[key] for p in layers)
        values["trace.overhead_s"] = (pass_median(samples["traced_s"])
                                      - pass_median(samples["compute_s"]))
        units = metrics.per_layer_units()
    missing = set(units) - set(values)
    if missing:
        raise BenchmarkError(f"metrics not measured: {sorted(missing)}")
    return values, units, samples, attempted, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="couplersim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(SRC, "couplersim", "cli.py")):
        print(f"error: no couplersim source under {SRC}", file=sys.stderr)
        return 2

    clock = Clock()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out_root = os.path.relpath(os.path.join(work, "cli"), ROOT)
    runs = workloads.generate(args.workload, args.seed, os.path.join(work, "configs"), out_root)
    runs = [(s, os.path.relpath(c, ROOT), o) for s, c, o in runs]

    failures = []
    try:
        values, units, samples, attempted, absent = measure(args, runs, work, clock, failures)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed} (config seed {env['config_seed']})  "
          f"trace {args.trace}")
    print("environment " + json.dumps({k: env[k] for k in env if k != "source_sha256"},
                                      sort_keys=True))
    if "host_slowdown" in samples:
        print(f"  host slowdown {samples['host_slowdown']:.4g}: probe mean over "
              f"{PROBE_REF_S} s; timing metrics are measured / slowdown")
    measured = samples.get("measured", {})
    for name in sorted(values):
        n = len(samples.get(name, ()))
        note = f"  ({n} samples)" if n else ""
        note += f"  measured {measured[name]:.6g}" if name in measured else ""
        note += "  absent" if name in absent else ""
        print(f"  {name:<40} {values[name]:.6g} {units[name]}{note}")
    print(f"  {'fail_frac':<40} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} runs)")
    for message in sorted(set(failures))[:20]:
        print(f"  FAILED {message}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "samples": samples,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
        "absent": absent, "attempted": attempted, "failures": failures,
    }
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
