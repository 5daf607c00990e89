"""Run one benchmark workload of ramseykit and print its metrics.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Builds nothing: ramseykit is imported from ``src/`` of the checkout this
file sits in.  The run makes the workload's inputs from the seed, times the
set-up in fresh processes, answers the workload's question list in passes
until ``--seconds`` is spent (whole passes only), checks every answer with
the independent checkers in ``checks.py``, and prints one JSON object as the
last line of stdout.

--trace 0 reports the end-to-end metrics: wall_s (median pass), setup_s
(median of the set-up probes) and peak_rss_mb.  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of
``tracing.py``: the one-time set-up plus the mean traced pass, and the
tracing overhead (median traced pass minus median untraced pass).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_PROBES = 5

# name: (unit, better); the per-layer metrics of a traced run
LAYER_METRICS = {
    "search.exists_avoiding.calls": ("count", "lower"),
    "search.build_instance_index.calls": ("count", "lower"),
    "search.build_instance_index.self_s": ("s", "lower"),
    "search.instances_indexed": ("count", "lower"),
    "search.nodes": ("count", "lower"),
    "search.dfs_s": ("s", "lower"),
    "search.nodes_per_s": ("1/s", "higher"),
    "search.verify_s": ("s", "lower"),
    "witnesses.count_witnesses.calls": ("count", "lower"),
    "witnesses.count_witnesses.self_s": ("s", "lower"),
    "witnesses.box_cells": ("count", "lower"),
    "witnesses.admissible_per_cell": ("ratio", "higher"),
    "witnesses.enumerate_instances.self_s": ("s", "lower"),
    "witnesses.instances": ("count", "lower"),
    "witnesses.iter_witnesses.self_s": ("s", "lower"),
    "witnesses.witnesses": ("count", "lower"),
    "polynomials.evaluate.calls": ("count", "lower"),
    "reduction.solve_quadratic.self_s": ("s", "lower"),
    "reduction.lift_coloring.self_s": ("s", "lower"),
    "reduction.lifted_values": ("count", "lower"),
    "reduction.witnesses_examined": ("count", "lower"),
    "construction.run_construction.self_s": ("s", "lower"),
    "construction.rounds": ("count", "lower"),
    "coloring.load.self_s": ("s", "lower"),
    "coloring.save.self_s": ("s", "lower"),
    "coloring.to_rle.self_s": ("s", "lower"),
    "coloring.from_rle.self_s": ("s", "lower"),
    "coloring.bytes_read": ("B", "lower"),
    "coloring.bytes_written": ("B", "lower"),
    "storage.append.calls": ("count", "lower"),
    "storage.append.self_s": ("s", "lower"),
    "storage.append.bytes_reread": ("B", "lower"),
    "storage.lookup.calls": ("count", "lower"),
    "storage.lookup.self_s": ("s", "lower"),
    "storage.records_parsed": ("count", "lower"),
    "storage.verify_all.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def import_program():
    """ramseykit from this checkout's src/, never from anywhere else."""
    if not (SRC / "ramseykit" / "__init__.py").is_file():
        raise SystemExit(f"error: no ramseykit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ramseykit
    import ramseykit.cli

    if Path(ramseykit.__file__).resolve().parent != SRC / "ramseykit":
        raise SystemExit(f"error: imported ramseykit from {ramseykit.__file__}, not {SRC}")
    return ramseykit, ramseykit.cli


def time_setup(work: Path, probes: int) -> list[float]:
    """Seconds from process start until ready, for fresh set-up processes."""
    out = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(work)],
                                stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            rc = proc.wait()
        if rc != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed (exit {rc})")
        out.append(dt)
    return out


def one_pass(ops) -> tuple[float, list]:
    """Answer the question list once; wall time counts only the calls."""
    wall = 0.0
    answers = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            wall += time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            answers.append(("exception", type(exc).__name__))
            continue
        wall += time.perf_counter() - t0
        answers.append(op.summarize(raw))
    return wall, answers


def layer_figures(tracer, marks, traced_passes: int, overhead: float) -> dict[str, float]:
    setup = tracer.figures(marks[0], marks[1])
    runs = tracer.figures(marks[1], marks[2])
    fig = {k: setup.get(k, 0.0) + runs.get(k, 0.0) / traced_passes for k in set(setup) | set(runs)}
    out = {name: fig.get(name, 0.0) for name in LAYER_METRICS}
    out["search.dfs_s"] = fig.get("search.exists_avoiding.self_s", 0.0)
    out["search.nodes_per_s"] = fig.get("search.nodes", 0.0) / out["search.dfs_s"] if out["search.dfs_s"] else 0.0
    cells = fig.get("witnesses.box_cells", 0.0)
    out["witnesses.admissible_per_cell"] = fig.get("witnesses.admissible", 0.0) / cells if cells else 0.0
    out["cli.self_s"] = fig.get("cli.main.self_s", 0.0)
    out["trace.overhead_s"] = overhead
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_process = time.perf_counter()
    rk, cli = import_program()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r} "
                         f"(have {', '.join(workloads.WORKLOADS)})")
    work = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        manifest = workloads.write_inputs(args.workload, args.seed, work)
        setup_times = [] if args.trace else time_setup(work, SETUP_PROBES)
        wl = workloads.WORKLOADS[args.workload](rk, cli, manifest, work)
        tracer = tracing.Tracer(rk) if args.trace else None
        marks = []
        if tracer:
            tracer.install()
            marks.append(tracer.mark())
        wl.load()
        if tracer:
            marks.append(tracer.mark())
            tracer.uninstall()
        wl.prepare()
        ops = wl.ops()

        walls = {False: [], True: []}
        first = None
        mismatched = []
        passes = 0
        start = time.perf_counter()
        while True:
            traced = bool(tracer) and passes % 2 == 1
            wl.before_pass()
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            wall, answers = one_pass(ops)
            pass_time = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            wl.after_pass(passes)
            walls[traced].append(wall)
            if first is None:
                first = answers
            elif answers != first:
                mismatched.append(passes)
            passes += 1
            spent = time.perf_counter() - start
            # whole passes only: stop where the run ends nearest to --seconds
            if spent + pass_time / 2 > args.seconds and (not tracer or passes >= 2):
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            errors, failed_ops = wl.check(ops, first)
        except Exception:  # a checker that cannot judge an answer rejects it
            traceback.print_exc(file=sys.stderr)
            errors, failed_ops = ["the checker crashed on this pass's answers"], []
        exceptions = [op.name for op, a in zip(ops, first)
                      if isinstance(a, tuple) and a[:1] == ("exception",)]
        failed_ops = failed_ops + exceptions
        errors += [f"pass {p}: answers differ from pass 0" for p in mismatched]
        correct = not errors
        for e in errors:
            print(f"WRONG: {e}", file=sys.stderr)
        for f in failed_ops:
            print(f"FAILED: {f}")

        print(f"workload {args.workload} seed {args.seed}: {passes} pass(es) of {len(ops)} op(s), "
              f"{len(failed_ops)} failed per pass, correct={correct}, "
              f"run {time.perf_counter() - t_process:.1f} s")
        if tracer:
            overhead = statistics.median(walls[True]) - statistics.median(walls[False])
            marks.append(tracer.mark())
            metrics = layer_figures(tracer, marks, len(walls[True]), overhead)
            print(f"untraced wall_s {statistics.median(walls[False]):.4f}  "
                  f"traced wall_s {statistics.median(walls[True]):.4f}  "
                  f"tracing overhead {overhead:.4f} s "
                  f"({100 * overhead / statistics.median(walls[False]):.1f} %)")
            for name, val in metrics.items():
                print(f"  {name:42s} {val:16.6f} {LAYER_METRICS[name][0]}")
            tracer.dump(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")
            result = {name: {"value": val, "unit": LAYER_METRICS[name][0]}
                      for name, val in metrics.items()}
        else:
            result = {
                "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            print("pass wall_s: " + " ".join(f"{w:.3f}" for w in walls[False]))
            print("setup_s probes: " + " ".join(f"{s:.3f}" for s in setup_times))
        print(json.dumps({"correct": correct, "attempted": passes * len(ops),
                          "failed": passes * len(failed_ops), "metrics": result}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
