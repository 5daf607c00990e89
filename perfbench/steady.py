"""Steadiness mode: run workloads repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10 [--seed0 100]
                                [--against perfbench/work/steady-A.json]

Each workload of BENCHMARK.json is run ``--runs`` times, each run a fresh
``run.py`` process with its own seed (seed0, seed0+1, ...), one after
another, with ``run_seconds`` from BENCHMARK.json.  For
every (workload, end-to-end metric) it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
next to the metric's bound and a third of it.  It also prints the failed
share per workload, which must be the same in every run.  The results are
saved under perfbench/work/; ``--against`` compares the medians with an
earlier file of the same kind (change = this median / that median - 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--against", default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {}
    for wl in (w["name"] for w in spec["workloads"]):
        results[wl] = []
        for i in range(args.runs):
            cmd = spec["command"] + ["--workload", wl, "--seed", str(args.seed0 + i),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                raise SystemExit(f"{wl} seed {args.seed0 + i}: exit {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["took_s"] = took
            res["passes"] = [float(w) for line in lines if line.startswith("pass wall_s:")
                             for w in line.split()[2:]]
            results[wl].append(res)
            vals = " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
            print(f"{wl} seed {args.seed0 + i}: correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']} {vals} ({took:.1f} s)", flush=True)

    out = HERE / "work" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    before = json.loads(Path(args.against).read_text()) if args.against else {}

    print(f"\n{'workload':8s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound/3':>7s} {'change':>7s}")
    ok = True
    for wl, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            change = ""
            if wl in before:
                old = statistics.median(r["metrics"][name]["value"] for r in before[wl])
                change = f"{med / old - 1:+.3f}"
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            ok &= spread <= bounds[name]
            print(f"{wl:8s} {name:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.3f} "
                  f"{bounds[name] / 3:7.3f} {change:>7s}{flag}")
        correct = all(r["correct"] for r in runs)
        print(f"{wl:8s} failed share {sorted(shares)} correct={correct} "
              f"mean run {statistics.mean(r['took_s'] for r in runs):.1f} s")
        ok &= len(shares) == 1 and correct
    print(f"\nsaved {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
