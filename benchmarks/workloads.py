"""Library loading and the fixed report lists of the benchmark's workloads.

Every workload is a list of `PipelineConfig`s over sparse majorants
(exponent 2/3 unless stated, structured selection, delta = 0.5).  The
majorant seeds are fixed, so the timed work is the same for every `--seed`
and the figures compare across seeds and commits; `--seed` drives the
checker's probe frequencies instead (see checks.py).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

SPARSE = {"majorant": "sparse", "selection": "structured", "delta": 0.5}

NAMES = ("smoothing-large", "smoothing-batch", "hahn-banach")


class MissingLibrary(RuntimeError):
    """The checkout holds no densemodel sources to benchmark."""


def load_pipeline():
    """Import `densemodel.pipeline` from this checkout's `src/`, never elsewhere."""
    if not (SRC / "densemodel" / "__init__.py").is_file():
        raise MissingLibrary(f"no densemodel package under {SRC}")
    sys.path.insert(0, str(SRC))
    from densemodel import pipeline

    if not Path(pipeline.__file__).resolve().is_relative_to(SRC):
        raise MissingLibrary(f"densemodel imported from {pipeline.__file__}, not {SRC}")
    return pipeline


def _specs(name: str) -> list[dict]:
    if name == "smoothing-large":
        return ([{"N": 20000, "variant": v, "eps": 0.1, "eta": 0.1, "seed": 0}
                 for v in ("green", "hdr", "naslund")]
                # eta = 0.1 would push the N = 50000 spectrum grid past its cap
                + [{"N": 50000, "variant": "hdr", "eps": 0.2, "eta": 0.2, "seed": 0}])
    if name == "smoothing-batch":
        return [{"N": 2000, "variant": v, "exponent": e, "eps": w, "eta": w,
                 "seed": s}
                for v in ("green", "hdr", "naslund")
                for e in (2.0 / 3.0, 0.75)
                for w in (0.2, 0.3)
                for s in (0, 1)]
    if name == "hahn-banach":
        # N = 2000, seed 7 is the ROADMAP's prototype instance
        return [{"N": 1000, "variant": "hahn_banach", "seed": 0},
                {"N": 2000, "variant": "hahn_banach", "seed": 7}]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def make_configs(pipeline, name: str) -> list:
    """The workload's report list, in the order every round runs it."""
    return [pipeline.PipelineConfig(**{**SPARSE, **spec}) for spec in _specs(name)]
