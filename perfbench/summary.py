"""Run every workload of BENCHMARK.json over ten seeds and print every metric
by name and unit, one row per workload, with the run-to-run spread of each
end-to-end metric.

    python3 perfbench/summary.py
    python3 perfbench/summary.py --sets 2 --trace --out perfbench/results/baseline.json

Each run is a separate ``run.py`` process of ``run_seconds``, as the
benchmark is run from outside. For each metric the table gives the median of
the runs and the spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``. A second table gives the same for the
unscaled wall-clock figures, so the effect of the speed probe can be judged.
With ``--sets 2`` the second set uses fresh seeds and the table adds each
metric's drift, the change of its median from set 1 to set 2 in the
direction that counts as worse. With ``--trace`` one traced run per workload
adds the per-layer metrics, one column per workload. Exits non-zero when any
run fails or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10  # runs per workload and set
WALL_CLOCK = [("throughput_ops_s", "1/s", "higher"), ("latency_p50_ms", "ms", "lower"),
              ("latency_tail_ms", "ms", "lower"), ("setup_s", "s", "lower"),
              ("speed_factor", "x", "lower")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line of one run and, for an untraced run, its wall-clock line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(cmd[1:])} (exit {proc.returncode})")
    wall = json.loads(lines[-2])["wall_clock"] if not trace else {}
    return result, wall


def table(title: str, metrics: list[tuple[str, str, str]], bounds: list[str] | None,
          rows: dict, sets: int) -> dict:
    """Print one row per workload of ``median ±spread`` per set (and the
    drift with two sets); return the figures. ``rows[workload][set]`` is a
    list of {metric: value} per run."""
    figures = {}
    header = ["workload"] + [f"{name} [{unit}]" for name, unit, _ in metrics]
    body = []
    for w, per_set in rows.items():
        figures[w] = {}
        row = [w]
        for name, _, better in metrics:
            cells = []
            for runs in per_set:
                median, q1, q3, sp = spread([r[name] for r in runs])
                figures[w].setdefault(name, []).append({"median": median, "q1": q1, "q3": q3, "spread": sp})
                cells.append(f"{median:.4g} ±{sp:.1%}")
            if sets > 1:
                first, last = figures[w][name][0]["median"], figures[w][name][-1]["median"]
                drift = (last - first) / first * (1 if better == "lower" else -1)
                figures[w][name].append({"drift": drift})
                cells.append(f"drift {drift:+.1%}")
            row.append(" / ".join(cells))
        body.append(row)
    lines = [header] + ([["bound"] + bounds] if bounds else []) + body
    widths = [max(len(r[i]) for r in lines) for i in range(len(header))]
    print(title)
    for r in lines:
        print("  ".join(cell.ljust(width) for cell, width in zip(r, widths)))
    return figures


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def machine() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M UTC"),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=1, help="sets of ten runs, each with fresh seeds")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write runs, summary and machine information as JSON")
    args = parser.parse_args(argv)

    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for seed in range(s * SEEDS + 1, (s + 1) * SEEDS + 1):
            for w in workloads:
                result, wall = run_once(w, seed, seconds, 0)
                values = {k: v["value"] for k, v in result["metrics"].items()}
                runs[w][s].append({"seed": seed, "attempted": result["attempted"],
                                   "failed": result["failed"], "metrics": values, "wall_clock": wall})
                print(f"set {s + 1} seed {seed:3d} {w:16s} "
                      + " ".join(f"{k}={v:.4g}" for k, v in values.items()), file=sys.stderr)

    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    summary = table(f"end-to-end: median ±(q3-q1)/median over {SEEDS} seeds per set, "
                    f"{args.sets} set(s), {seconds} s runs", e2e,
                    [f"{m['bound']:.0%}" for m in spec["end_to_end"]],
                    {w: [[r["metrics"] for r in runs[w][s]] for s in range(args.sets)] for w in workloads},
                    args.sets)
    wall_clock = table("\nwall clock, unscaled (speed_factor: reference / median probe time):", WALL_CLOCK,
                       None, {w: [[r["wall_clock"] for r in runs[w][s]] for s in range(args.sets)]
                              for w in workloads}, args.sets)

    traced = {}
    if args.trace:
        for w in workloads:
            result, _ = run_once(w, 1, seconds, 1)
            traced[w] = {k: v["value"] for k, v in result["metrics"].items()}
        print("\nper-layer (traced run, seed 1):")
        head = ["metric [unit]"] + workloads
        body = [[f"{m['name']} [{m['unit']}]"] + [f"{traced[w][m['name']]:.4g}" for w in workloads]
                for m in spec["per_layer"]]
        widths = [max(len(r[i]) for r in [head] + body) for i in range(len(head))]
        for r in [head] + body:
            print("  ".join(cell.ljust(width) for cell, width in zip(r, widths)))

    if args.out:
        out = {"machine": machine(), "seconds": seconds, "seeds_per_set": SEEDS, "sets": args.sets,
               "summary": summary, "wall_clock": wall_clock, "runs": runs, "traced": traced}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
