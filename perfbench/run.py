"""Run one benchmark workload once and report its metrics.

    python3 perfbench/run.py --workload validate-stream --seed 1 --seconds 10 --trace 0

Run from the root of a schemalens checkout; the program is imported from
``src/`` there. Workloads: validate-stream, cli-bundled, scale-refs (see
``workloads.py`` and BENCHMARK.json).

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it measures an untraced phase and then a traced phase of
``--seconds / 2`` each, and reports the per-layer metrics of the traced phase
plus the tracing overhead (traced minus untraced end-to-end values); the raw
spans are written to ``.bench_work/spans-<workload>.jsonl``.

With ``--trace 0`` the line before the last holds ``{"wall_clock": {...}}``:
the same throughput, latencies and set-up time unscaled, plus the speed
factor they were scaled by (see probe.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output matched its reference, 1 when any did not, 2 on a usage
error or when the checkout holds no schemalens sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import spans
from probe import REFERENCE_PROBE_S, probe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

# At least 21 rounds, so that every operation's median latency rests on 21
# or more samples.
MIN_ROUNDS = 21
# At most MAX_ROUNDS rounds. The sample buffers are allocated for all of them
# before the warm-up round, so the harness's memory depends on the workload's
# number of operations only, never on how fast the program runs, and
# peak_rss_mb cannot move with the sample count.
MAX_ROUNDS = 400
# Upper bound on measured time per run (split between the phases of a traced
# run), so that a much slower program still ends within three minutes.
MEASURE_CAP_S = 120.0
SETUP_REPEATS = 9
# Latency percentiles are taken over the distinct operations of a round, each
# counted once at its median latency over the rounds; the tail is the highest
# percentile with TAIL_BEYOND operations beyond it, or the slowest operation
# when a round has fewer. Over 10,000 individual one-millisecond calls the
# 11th-largest latency is a scheduler hiccup of the shared machine, not a
# property of the program; over per-operation medians it is the program's
# slowest inputs.
TAIL_BEYOND = 10

# Machine-speed calibration (see probe.py): the probe runs between
# operations, at the ends of every window of at least CAL_WINDOW_S, and each
# window's timings are scaled by REFERENCE_PROBE_S / (mean of the two probes
# around it). The wall-clock figures are reported beside the scaled ones.
CAL_WINDOW_S = 0.05
MAX_WINDOWS = int(MEASURE_CAP_S / CAL_WINDOW_S) + MAX_ROUNDS


def _zeros(n: int) -> array:
    return array("d", [0.0]) * n


class Phase:
    """The samples of one measured phase: sample ``r * n_ops + j`` is
    operation ``j`` of round ``r``."""

    def __init__(self, keys: list):
        self.keys = keys
        self.latencies = _zeros(len(keys) * MAX_ROUNDS)  # reference-speed seconds
        self.raw = _zeros(len(keys) * MAX_ROUNDS)  # wall-clock seconds
        self.probes = _zeros(MAX_WINDOWS)  # probe time per window
        self.windows = 0
        self.rounds_done = 0
        self.errors: dict = {}
        self.attempted = 0
        self.failed = 0

    @property
    def time_scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.probes[: self.windows])

    def e2e(self, raw: bool = False) -> dict[str, float]:
        """Throughput is the median over rounds of operations per busy
        second; latencies are taken over the distinct operations of a round,
        each at its median over the rounds."""
        samples = (self.raw if raw else self.latencies)[: len(self.keys) * self.rounds_done]
        n = len(self.keys)
        medians = sorted(statistics.median(samples[j::n]) for j in range(n))
        tail_index = n - 1 - (TAIL_BEYOND if n > TAIL_BEYOND else 0)
        return {
            "throughput_ops_s": statistics.median(
                n / sum(samples[r * n:(r + 1) * n]) for r in range(self.rounds_done)),
            "latency_p50_ms": statistics.median(medians) * 1e3,
            "latency_tail_ms": medians[tail_index] * 1e3,
            "tail_percentile": 100.0 * (tail_index + 1) / n,
            "operations": n,
            "samples": len(samples),
        }


def _run_round(workload, ops, phase: Phase, tracer, measured: bool) -> None:
    """Run every operation once, counting failures into ``phase``; record
    the timings as round ``phase.rounds_done`` when ``measured``."""
    base = phase.rounds_done * len(ops)
    window_start_index = 0
    before = probe()
    window_start = perf_counter()
    for i, (key, thunk) in enumerate(ops):
        if workload.reimport_before(i):
            if tracer is not None:
                tracer.uninstall()
            workload.import_program()
            if tracer is not None:
                tracer.install()
            if i == window_start_index:  # keep the import out of the window
                before = probe()
                window_start = perf_counter()
        if tracer is not None:
            tracer.op = phase.attempted + i
        start = perf_counter()
        try:
            output = thunk() if tracer is None else tracer.call("op", "bench", thunk)
        except Exception as exc:  # an unexpected exception is a failed operation
            elapsed = perf_counter() - start
            error = f"{key}: {type(exc).__name__}: {exc}"
        else:
            elapsed = perf_counter() - start
            error = workload.check(key, output)
        if error is not None:
            phase.failed += 1
            phase.errors.setdefault(key, error)
        if not measured:
            continue
        phase.raw[base + i] = elapsed
        if perf_counter() - window_start >= CAL_WINDOW_S or i == len(ops) - 1:
            after = probe()
            speed = (before + after) / 2
            if phase.windows < MAX_WINDOWS:
                phase.probes[phase.windows] = speed
                phase.windows += 1
            for s in range(base + window_start_index, base + i + 1):
                phase.latencies[s] = phase.raw[s] * REFERENCE_PROBE_S / speed
            window_start_index = i + 1
            before = after
            window_start = perf_counter()
    phase.attempted += len(ops)
    phase.rounds_done += measured


def measure(workload, seconds: float, cap: float, tracer=None) -> Phase:
    """A warm-up round (untraced, unmeasured) sizes the run; then whole rounds,
    at least MIN_ROUNDS and at most MAX_ROUNDS, to fill about ``seconds``, and
    at most ``cap``."""
    ops = workload.round()
    phase = Phase([key for key, _ in ops])
    start = perf_counter()
    _run_round(workload, ops, phase, None, measured=False)
    round_s = perf_counter() - start
    rounds = min(max(MIN_ROUNDS, round(seconds / round_s)), max(1, int(cap / round_s)), MAX_ROUNDS)
    if tracer is not None:
        tracer.install()
    try:
        ops = workload.round()
        for _ in range(rounds):
            _run_round(workload, ops, phase, tracer, measured=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return phase


def timed_setups(workload, src: Path) -> tuple[float, float]:
    """Median program set-up time over SETUP_REPEATS fresh interpreters,
    after one warm-up, in reference-speed and in wall-clock seconds. Each
    set-up is scaled by the mean of the probes taken right before and after
    it in the same interpreter."""
    cmd = [sys.executable, str(HERE / "cold_setup.py"), workload.PROGRAM_MODULE,
           str(int(workload.COLD_ENVELOPE)), str(src)]
    times, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"cold set-up failed: {proc.stderr.strip()[-500:]}")
        elapsed, before, after = (float(x) for x in proc.stdout.split())
        if i:
            raw.append(elapsed)
            times.append(elapsed * REFERENCE_PROBE_S / ((before + after) / 2))
    return statistics.median(times), statistics.median(raw)


def run(workload, seconds: float, trace: bool, work_dir: Path, name: str, src: Path):
    """(metrics, notes, phases, wall-clock figures or None)."""
    if not trace:
        setup_s, setup_raw_s = timed_setups(workload, src)
        workload.setup()
        phase = measure(workload, seconds, MEASURE_CAP_S)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        stats = phase.e2e()
        raw = phase.e2e(raw=True)
        metrics = {
            "throughput_ops_s": stats["throughput_ops_s"],
            "latency_p50_ms": stats["latency_p50_ms"],
            "latency_tail_ms": stats["latency_tail_ms"],
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        wall = {
            "throughput_ops_s": raw["throughput_ops_s"],
            "latency_p50_ms": raw["latency_p50_ms"],
            "latency_tail_ms": raw["latency_tail_ms"],
            "setup_s": setup_raw_s,
            "speed_factor": phase.time_scale,
        }
        notes = [
            f"latency_tail_ms is p{stats['tail_percentile']:.2f} of {stats['operations']} distinct "
            f"operations, each at its median over {phase.rounds_done} rounds ({stats['samples']} samples)",
            f"speed factor {phase.time_scale:.3f} (reference / median probe time); wall clock: "
            f"throughput {raw['throughput_ops_s']:.4f} 1/s, p50 {raw['latency_p50_ms']:.4f} ms, "
            f"tail {raw['latency_tail_ms']:.4f} ms, setup {setup_raw_s:.4f} s",
        ]
        return metrics, notes, [phase], wall

    tracer = spans.Tracer()
    gc.collect()
    before = probe()
    start = perf_counter()
    workload.import_program()
    import_ms = (perf_counter() - start) * 1e3 * REFERENCE_PROBE_S / ((before + probe()) / 2)
    tracer.install()
    try:
        tracer.call("setup", "bench", workload.prepare)
    finally:
        tracer.uninstall()
    plain = measure(workload, seconds / 2, MEASURE_CAP_S / 2)
    traced = measure(workload, seconds / 2, MEASURE_CAP_S / 2, tracer)
    tracer.dump(work_dir / f"spans-{name}.jsonl")
    traced_ops = traced.rounds_done * len(traced.keys)
    metrics = spans.layer_metrics(tracer, traced_ops, traced.time_scale)
    metrics["setup.import_ms"] = import_ms
    before, after = plain.e2e(), traced.e2e()
    for key in ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms"):
        metrics[f"trace.overhead.{key}"] = after[key] - before[key]
    notes = [f"{label}: tail p{s['tail_percentile']:.2f} of {s['operations']} distinct operations, "
             f"{s['samples']} samples" for label, s in (("untraced", before), ("traced", after))]
    notes.append(f"ratios: validator.valid_ratio and violations_per_doc over "
                 f"{metrics['validator.validate.calls'] * traced_ops:.0f} validate calls; "
                 f"loader.resolve.distinct_ratio over "
                 f"{metrics['loader.resolve.calls'] * traced_ops:.0f} resolve calls")
    return metrics, notes, [plain, traced], None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "schemalens" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no schemalens sources or BENCHMARK.json under {root}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))

    work_dir = root / ".bench_work"
    work_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](root, args.seed, work_dir)
    try:
        metrics, notes, phases, wall = run(workload, args.seconds, bool(args.trace), work_dir,
                                           args.workload, src)
        wrong = workload.finish()
    finally:
        workload.close()
    loaded = Path(sys.modules["schemalens"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        print(f"perfbench: imported schemalens from {loaded}, not from {src}", file=sys.stderr)
        return 2

    errors = {}
    failed = attempted = 0
    for phase in phases:
        errors.update(phase.errors)
        attempted += phase.attempted
        # every operation ran once per measured round and once in the warm-up
        failed += phase.failed + (phase.rounds_done + 1) * sum(key not in phase.errors for key in wrong)
    errors.update(wrong)
    for key, message in list(errors.items())[:5]:
        print(f"perfbench: wrong output: {message}", file=sys.stderr)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"perfbench: metrics {sorted(set(metrics) ^ {m['name'] for m in wanted})} "
              f"do not match BENCHMARK.json", file=sys.stderr)
        return 2
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}  seed {args.seed}  attempted {attempted}  failed {failed}  "
          f"error_ratio {failed / attempted:.6f}")
    for name, entry in report.items():
        print(f"  {name:40s} {entry['value']:>14.4f} {entry['unit']}")
    for note in notes:
        print(f"  {note}")
    if wall is not None:
        print(json.dumps({"wall_clock": wall}))
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
