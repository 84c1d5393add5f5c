"""Benchmark of densemodel's dense-model constructions, one workload per process.

Usage:
    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

A report is one operation: `pipeline.run_pipeline(cfg)` then
`PipelineReport.to_json()`.  A round runs the workload's fixed report list
once, and a run measures whole rounds until the next one would end past
`--seconds` (at least one).  Round 1 is checked by checks.py outside the
timed region; later rounds must reproduce its bytes.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs round 1 without
tracing, then traced rounds, and prints the per-layer metrics from them
(their reports must match round 1's bytes too) and writes the spans under
benchmarks/out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cert_slack_ratio": "ratio",
    "fourier_err_rel": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".points") or name.endswith("max_M"):
        return "points"
    return "count"


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of spawn-to-ready for setup_probe.py."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=PROBE_TIMEOUT_S) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe for {workload} failed")
    return statistics.median(samples)


class Runner:
    """Runs rounds of one workload's reports and keeps the operation tally."""

    def __init__(self, pipeline, configs, rng):
        self.pipeline = pipeline
        self.configs = configs
        self.rng = rng
        self.reference = []      # round 1's report texts, None where one failed
        self.parsed = []         # round 1's reports that passed, as parsed JSON
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def _fail(self, i: int, why: str, incorrect: bool) -> None:
        self.failed += 1
        self.correct = self.correct and not incorrect
        print(f"report {i} ({self.configs[i].variant}, N={self.configs[i].N}): {why}",
              file=sys.stderr)

    def _report(self, i: int):
        """One timed operation; returns (text or None, seconds)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            report = self.pipeline.run_pipeline(self.configs[i])
            text = report.to_json()
        except Exception as e:  # a report that raises is a failed operation
            busy = perf_counter() - t0
            self._fail(i, f"raised {type(e).__name__}: {e}", incorrect=False)
            return None, busy
        return text, perf_counter() - t0

    def first_round(self) -> float:
        """Round 1: timed, then every report checked; returns its busy seconds."""
        capture = tracing.ModelCapture()
        undo = capture.install()
        busy = 0.0
        try:
            for i, cfg in enumerate(self.configs):
                text, dt = self._report(i)
                busy += dt
                model_io = capture.take()
                self.reference.append(None)
                if text is None:
                    continue
                data = json.loads(text)
                if data["ok"] is not True:
                    self._fail(i, "report has ok: false", incorrect=False)
                    continue
                try:
                    fails = (["model call not captured"] if model_io is None else
                             checks.check_report(cfg, data, *model_io, self.rng))
                except (KeyError, TypeError, ValueError) as e:
                    fails = [f"checker cannot read the report: {e!r}"]
                if fails:
                    self._fail(i, "; ".join(fails), incorrect=True)
                    continue
                self.reference[i] = text
                self.parsed.append(data)
        finally:
            tracing.restore(undo)
        return busy

    def repeat_round(self, after_report=None) -> float:
        """A later round: timed, each report compared with round 1's bytes."""
        busy = 0.0
        for i in range(len(self.configs)):
            text, dt = self._report(i)
            busy += dt
            if after_report is not None:
                after_report()
            if text is not None and self.reference[i] is not None and text != self.reference[i]:
                self._fail(i, "report bytes differ from round 1", incorrect=True)
            elif text is not None and self.reference[i] is None:
                self._fail(i, "report failed in round 1", incorrect=False)
        return busy

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def rounds_until(deadline_s: float, start: float, run_round, done: list) -> list:
    """Append round times to `done` while the next round would end by the deadline."""
    while perf_counter() - start + done[-1] <= deadline_s:
        done.append(run_round())
    return done


def untraced(runner: Runner, workload: str, seconds: float) -> dict:
    setup_s = setup_seconds(workload)
    start = perf_counter()
    times = rounds_until(seconds, start, runner.repeat_round, [runner.first_round()])
    reports = runner.parsed
    errs = [r["model"]["fourier_err"] for r in reports]
    values = {
        "wall_s": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cert_slack_ratio": statistics.fmean(e["certified_upper"] / e["grid_max"]
                                             for e in errs) if errs else 0.0,
        "fourier_err_rel": statistics.fmean(e["grid_max"] / r["model"]["mass_f"]
                                            for e, r in zip(errs, reports)) if errs else 0.0,
    }
    print(f"{workload}: {len(times)} rounds of {len(runner.configs)} reports, "
          f"round seconds {[round(t, 3) for t in times]}", file=sys.stderr)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    start = perf_counter()
    first = runner.first_round()
    report_bytes = sum(len(t.encode()) for t in runner.reference if t is not None)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    rounds, all_spans = [], []
    try:
        def traced_round():
            busy = runner.repeat_round(after_report=tracer.end_report)
            spans, counts, maxima = tracer.take_round()
            all_spans.append(spans)
            metrics = tracing.layer_metrics(spans, counts, maxima, report_bytes)
            metrics["trace.wall_s"] = busy
            rounds.append(metrics)
            return busy

        rounds_until(seconds, start, traced_round, [first, traced_round()])
    finally:
        tracing.restore(undo)
    OUT_DIR.mkdir(exist_ok=True)
    tracing.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl", all_spans)
    print(f"{workload}: untraced round {first:.3f} s, {len(rounds)} traced rounds "
          f"{[round(r['trace.wall_s'], 3) for r in rounds]}", file=sys.stderr)
    return {k: {"value": v, "unit": per_layer_unit(k)}
            for k, v in tracing.median_metrics(rounds).items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        pipeline = workloads.load_pipeline()
    except (workloads.MissingLibrary, ImportError) as e:
        print(f"run.py: cannot load densemodel: {e}", file=sys.stderr)
        return 2
    runner = Runner(pipeline, workloads.make_configs(pipeline, args.workload),
                    np.random.default_rng(args.seed))
    if args.trace:
        metrics = traced(runner, args.workload, args.seed, args.seconds)
    else:
        metrics = untraced(runner, args.workload, args.seconds)
    print(json.dumps(runner.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
