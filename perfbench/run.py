"""Benchmark of the superharrison command line, one workload per run.

    python3 perfbench/run.py --workload hochschild --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the program comes from ``src/`` there.
Each operation is a fresh ``python3 -m superharrison.cli`` process, and the
next starts only when the previous has ended: a closed loop with one client.
A round is the workload's whole list of operations; rounds repeat until the
next would end after ``--seconds``, so every run attempts whole rounds.
Every report is checked against ``reference``'s own computations.

Before the rounds, set-up is measured: one fresh ``check`` process per
algebra of the workload, and the sum of their wall times, taken over
several passes.

With ``--trace 0`` the last line gives the end-to-end metrics.  Each
operation's wall time, CPU time and peak RSS (the last two from its own
``os.wait4``) are taken as medians over the rounds; ``wall_s`` and
``cpu_s`` sum them over the round, ``peak_rss_mb`` is the largest, and
``setup_s`` is the median set-up pass.  With ``--trace 1`` rounds
alternate between plain and traced (``traced_cli.py``) processes, and the
last line gives the per-layer metrics of ``layers.PER_LAYER``, medians over
traced rounds, with the traced round's wall time and its overhead over a
plain one.

Inputs, outputs and span files live under ``.perfbench/`` in the checkout;
a summary of each run stays in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_PASSES = 3
END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


class Runner:
    """Starts CLI processes in the checkout and accounts for each one separately."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        self.env.pop("SUPERHARRISON_MAX_DEGREE", None)
        self.env.pop("SUPERHARRISON_MAX_COLUMNS", None)

    def run(self, argv: list, trace_path: str = None):
        """Run one operation; return its outcome, wall and CPU seconds, and peak RSS in MB.

        ``os.wait4`` gives this child's own rusage.  ``RUSAGE_CHILDREN``
        would keep the largest RSS of every child so far.
        """
        if trace_path:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "superharrison.cli", *argv]
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        outcome = workloads.Outcome(proc.returncode, stdout, stderr)
        return outcome, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def run_round(runner: Runner, ops: list, traced: bool, index: int) -> dict:
    ledger: dict = {}
    result = {"traced": traced, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
              "attempted": 0, "failed": 0, "errors": [], "traces": [], "ops": []}
    for k, op in enumerate(ops):
        trace_path = os.path.join(runner.work, f"spans-{index}-{k}.json") if traced else None
        outcome, wall, cpu, rss = runner.run(op.argv, trace_path)
        result["wall_s"] += wall
        result["cpu_s"] += cpu
        result["peak_rss_mb"] = max(result["peak_rss_mb"], rss)
        result["attempted"] += 1
        result["ops"].append({"argv": " ".join(op.argv), "exit": outcome.code, "wall_s": wall, "cpu_s": cpu,
                              "peak_rss_mb": rss})
        if outcome.code not in op.exits:
            result["failed"] += 1
            print(f"failed: {' '.join(op.argv)} exited {outcome.code}: {outcome.stderr.strip()[-300:]}",
                  file=sys.stderr)
            continue
        if traced:
            result["traces"].append(trace_path)
        try:
            op.check(outcome, ledger)
        except checks.CheckError as exc:
            result["errors"].append(f"{' '.join(op.argv)}: {exc}")
    try:
        checks.check_consecutive(ledger)
    except checks.CheckError as exc:
        result["errors"].append(str(exc))
    return result


def measure_setup(runner: Runner, algebras: list, count: int) -> dict:
    """Wall time of one fresh ``check`` per algebra, summed, for each of ``count`` passes."""
    passes, errors, attempted, failed = [], [], 0, 0
    for _ in range(count):
        total = 0.0
        for name in algebras:
            outcome, wall, _, _ = runner.run(["check", "--algebra", name, "--json"])
            total += wall
            attempted += 1
            if outcome.code != 0:
                failed += 1
                continue
            try:
                checks.check_valid_algebra(checks.load_report(outcome.stdout), outcome.code)
            except checks.CheckError as exc:
                errors.append(f"check {name}: {exc}")
        passes.append(total)
    return {"passes": passes, "errors": errors, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "superharrison", "cli.py")):
        print("error: run from the root of a superharrison checkout (src/superharrison/cli.py not found)",
              file=sys.stderr)
        return 2
    work = os.path.join(".perfbench", f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        summary = measure(Runner(root, work), args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    for error in summary["errors"]:
        print(f"incorrect: {error}", file=sys.stderr)
    for name, metric in summary["line"]["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} rounds = {len(summary['rounds'])}, attempted = {summary['line']['attempted']}, "
          f"failed = {summary['line']['failed']}")
    print(json.dumps(summary["line"]))
    return 0


def per_op_total(rounds: list, key: str) -> float:
    """Median of each operation over the rounds, then summed (or, for RSS, the largest).

    A burst of load from outside slows a few operations of one round; the
    per-operation median drops it where a median of round sums would not.
    """
    medians = [statistics.median(r["ops"][k][key] for r in rounds) for k in range(len(rounds[0]["ops"]))]
    return max(medians) if key == "peak_rss_mb" else sum(medians)


def measure(runner: Runner, args) -> dict:
    workload = workloads.build(args.workload, args.seed, os.path.join(runner.work, "inputs"))
    setup = measure_setup(runner, workload.algebras, 1 if args.trace else SETUP_PASSES)

    deadline = time.perf_counter() + args.seconds
    rounds: list = []
    while True:
        start = time.perf_counter()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(runner, workload.ops, traced, len(rounds)))
        if traced:
            rounds[-1]["layers"] = layers.totals(rounds[-1].pop("traces"))
        else:
            rounds[-1].pop("traces")
        needed = 2 if args.trace else 1
        if len(rounds) >= needed and time.perf_counter() + (time.perf_counter() - start) > deadline:
            break

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    if args.trace:
        metrics = {}
        for name, unit, _ in layers.PER_LAYER:
            if name == "trace.wall_s":
                value = per_op_total(traced_rounds, "wall_s")
            elif name == "trace.overhead_s":
                value = per_op_total(traced_rounds, "wall_s") - per_op_total(plain, "wall_s")
            else:
                value = statistics.median(r["layers"].get(name, 0) for r in traced_rounds)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {key: per_op_total(plain, key) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup["passes"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    errors = setup["errors"] + [e for r in rounds for e in r["errors"]]
    line = {
        "correct": not errors,
        "attempted": setup["attempted"] + sum(r["attempted"] for r in rounds),
        "failed": setup["failed"] + sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "setup": setup, "rounds": rounds, "errors": errors, "line": line}


if __name__ == "__main__":
    sys.exit(main())
