"""Spans and counters around the calls into densemodel's layers, from outside.

The library's modules import one another's functions by name
(`from .signals import grid_fourier`), so a wrapper replaces a function
under every name any `densemodel` module binds it to (`rebind`), and
`restore` puts the originals back.  `Tracer` records one span per wrapped
call (name, start, end, parent, self time) in memory, plus the work counters
the per-layer metrics need; `layer_metrics` folds one round's spans and
counters into those metrics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("pipeline", "majorants", "bohr", "models", "signals", "counting")
MODEL_FUNCTIONS = ("green_model", "hdr_model", "naslund_model", "hahn_banach_model")


def library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "densemodel" or name.startswith("densemodel."))]


def rebind(replacements: dict) -> list:
    """Point every densemodel name bound to a key of `replacements` at its value.

    Keys and values are functions; returns the undo list for `restore`.
    """
    by_id = {id(old): (old, new) for old, new in replacements.items()}
    undo = []
    for mod in library_modules():
        for attr, val in list(vars(mod).items()):
            hit = by_id.get(id(val))
            if hit is not None and hit[0] is val:
                undo.append((mod, attr, val))
                setattr(mod, attr, hit[1])
    return undo


def restore(undo: list) -> None:
    for mod, attr, val in reversed(undo):
        setattr(mod, attr, val)


def public_functions(module) -> dict:
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class ModelCapture:
    """Keeps the (f, g) of each model call, which the checker needs and reports omit."""

    def __init__(self):
        self.calls = []

    def install(self) -> list:
        from densemodel import models

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(f, nu, *args, **kwargs):
                out = fn(f, nu, *args, **kwargs)
                self.calls.append((f, out.g))
                return out
            return wrapper

        return rebind({getattr(models, n): wrap(getattr(models, n))
                       for n in MODEL_FUNCTIONS})

    def take(self):
        """The (f, g) of the single model call since the last take, or None."""
        calls, self.calls = self.calls, []
        return calls[0] if len(calls) == 1 else None


def _signal_key(sig) -> tuple:
    return (int(sig.support_lo), hashlib.blake2b(sig.values.tobytes(), digest_size=16).digest())


class Tracer:
    """In-memory spans of wrapped calls, and the counters of the per-layer metrics."""

    def __init__(self):
        self.spans = []    # (name, start, end, parent index or -1, self seconds)
        self._stack = []   # [span index, seconds covered by children]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._keys = defaultdict(set)

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            idx = len(self.spans)
            self.spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans[idx] = (name, t0, t1, parent, t1 - t0 - frame[1])
            if counter is not None:
                counter(self, signature.bind(*args, **kwargs).arguments, out)
            if stack:
                # the counter's own cost is tracing overhead, not the parent's work
                stack[-1][1] += perf_counter() - t0
            return out
        return wrapper

    def distinct(self, name: str, key) -> None:
        self._keys[name].add(key)

    def end_report(self) -> None:
        """Distinctness is counted within one report: fold this report's keys."""
        for name, keys in self._keys.items():
            self.counts[name + ".distinct"] += len(keys)
        self._keys.clear()

    def take_round(self) -> tuple[list, dict, dict]:
        out = (self.spans, dict(self.counts), dict(self.maxima))
        self.spans = []
        self.counts.clear()
        self.maxima.clear()
        return out


def _count_grid_fourier(tr, arg, out):
    M = arg["grid"].M
    tr.counts["signals.grid_fourier.points"] += M
    tr.maxima["signals.grid_fourier.max_M"] = max(tr.maxima["signals.grid_fourier.max_M"], M)
    tr.distinct("signals.grid_fourier", (_signal_key(arg["f"]), M))


def _count_count_weighted(tr, arg, out):
    tr.counts["counting.count_weighted.points"] += out.wrap_modulus
    tr.distinct("counting.count_weighted",
                (tuple(arg["form"].coeffs), tuple(_signal_key(w) for w in arg["weights"])))


def _count_spectrum(tr, arg, out):
    tr.counts["bohr.spectrum.r"] += out.r
    tr.maxima["bohr.spectrum.max_M"] = max(tr.maxima["bohr.spectrum.max_M"], out.M)


def _count_bohr(tr, arg, out):
    tr.counts["bohr.bohr_size"] += out.size


def _count_linprog(tr, arg, out):
    rows, cols = arg["A_ub"].shape
    tr.counts["models.hb.lp_rows"] += rows
    tr.maxima["models.hb.lp_matrix_mb"] = max(tr.maxima["models.hb.lp_matrix_mb"],
                                              rows * cols * 8 / 2 ** 20)


COUNTERS = {
    "signals.grid_fourier": _count_grid_fourier,
    "counting.count_weighted": _count_count_weighted,
    "bohr.spectrum": _count_spectrum,
    "bohr.bohr_enumerate": _count_bohr,
    "models.hb.lp": _count_linprog,
}


def install(tracer: Tracer) -> list:
    """Wrap every public function of the traced layers, `linprog` as `models`
    calls it, and `PipelineReport.to_json`; returns the undo list."""
    replacements = {}
    for layer in LAYERS:
        module = importlib.import_module(f"densemodel.{layer}")
        for fname, fn in public_functions(module).items():
            name = f"{layer}.{fname}"
            replacements[fn] = tracer.wrap(name, fn, COUNTERS.get(name))
    models = importlib.import_module("densemodel.models")
    replacements[models.linprog] = tracer.wrap("models.hb.lp", models.linprog,
                                               COUNTERS["models.hb.lp"])
    undo = rebind(replacements)
    report_cls = importlib.import_module("densemodel.pipeline").PipelineReport
    undo.append((report_cls, "to_json", report_cls.to_json))
    report_cls.to_json = tracer.wrap("pipeline.to_json", report_cls.to_json)
    return undo


def _spans_by_name(spans: list) -> tuple[dict, dict, dict, float]:
    """Per name: call count, total and self seconds; plus pipeline self time."""
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    root = []
    pipeline_self = 0.0
    for i, (name, t0, t1, parent, own) in enumerate(spans):
        root.append(name if parent < 0 else root[parent])
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += own
        if name.startswith("pipeline.") and root[i] == "pipeline.run_pipeline":
            pipeline_self += own
    return calls, total, self_s, pipeline_self


def layer_metrics(spans: list, counts: dict, maxima: dict, report_bytes: int) -> dict:
    """One round's per-layer metrics, by the names BENCHMARK.json lists."""
    calls, total, self_s, pipeline_self = _spans_by_name(spans)

    def ratio(name):
        return counts.get(name + ".distinct", 0) / calls[name] if calls[name] else 0.0

    m = {
        "pipeline.self_s": pipeline_self,
        "pipeline.to_json_s": total["pipeline.to_json"],
        "pipeline.report_bytes": report_bytes,
        "majorants.build_s": sum(v for k, v in total.items()
                                 if k.startswith("majorants.make_")),
        "majorants.diagnose.self_s": self_s["majorants.diagnose"],
        "majorants.max_correlation.calls": calls["majorants.max_correlation"],
        "majorants.max_correlation.s": total["majorants.max_correlation"],
        "bohr.spectrum.s": total["bohr.spectrum"],
        "bohr.spectrum.max_M": maxima.get("bohr.spectrum.max_M", 0),
        "bohr.spectrum.r": counts.get("bohr.spectrum.r", 0),
        "bohr.bohr_enumerate.s": total["bohr.bohr_enumerate"],
        "bohr.bohr_size": counts.get("bohr.bohr_size", 0),
    }
    for fname in MODEL_FUNCTIONS:
        m[f"models.{fname}.self_s"] = self_s[f"models.{fname}"]
    m.update({
        "models.hb.lp_solves": calls["models.hb.lp"],
        "models.hb.lp_rows": counts.get("models.hb.lp_rows", 0),
        "models.hb.lp_s": total["models.hb.lp"],
        "models.hb.lp_matrix_mb": maxima.get("models.hb.lp_matrix_mb", 0.0),
        "signals.grid_fourier.calls": calls["signals.grid_fourier"],
        "signals.grid_fourier.points": counts.get("signals.grid_fourier.points", 0),
        "signals.grid_fourier.max_M": maxima.get("signals.grid_fourier.max_M", 0),
        "signals.grid_fourier.self_s": self_s["signals.grid_fourier"],
        "signals.grid_fourier.distinct_ratio": ratio("signals.grid_fourier"),
        "signals.convolve.calls": calls["signals.convolve"],
        "signals.convolve.s": total["signals.convolve"],
        "signals.fourier_sup_diff.self_s": self_s["signals.fourier_sup_diff"],
        "counting.count_weighted.calls": calls["counting.count_weighted"],
        "counting.count_weighted.points": counts.get("counting.count_weighted.points", 0),
        "counting.count_weighted.s": total["counting.count_weighted"],
        "counting.count_weighted.distinct_ratio": ratio("counting.count_weighted"),
        "counting.transfer_error_bound.self_s": self_s["counting.transfer_error_bound"],
        "counting.threshold_extract.s": total["counting.threshold_extract"],
        "counting.count_comparison.self_s": self_s["counting.count_comparison"],
    })
    return m


def median_metrics(rounds: list) -> dict:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


def write_spans(path, rounds_spans: list) -> None:
    """One JSON line per span, times in seconds from the round's first span."""
    with open(path, "w") as fh:
        for rnd, spans in enumerate(rounds_spans):
            t_base = spans[0][1] if spans else 0.0
            for i, (name, t0, t1, parent, own) in enumerate(spans):
                fh.write(json.dumps({"round": rnd, "id": i, "name": name,
                                     "start": t0 - t_base, "end": t1 - t_base,
                                     "parent": parent, "self": own}) + "\n")
