"""End-to-end sparse counting pipeline with machine-readable reports.

One run builds a majorant, selects a dense subset A of its support, forms the
weighted indicator f = 1_A nu, constructs a bounded approximant g by the
chosen variant, counts solutions of the linear form under f, g, and the
threshold level set of g, and certifies every inequality along the way.  The
report is canonical JSON: identical configs produce byte-identical bytes.

Config files are flat `key = value` text; every numeric claim in a report
carries its certification kind, exact or certified-bound.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .counting import (
    LinearForm,
    count_comparison,
    count_weighted,
    threshold_extract,
    transfer_error_bound,
)
from .errors import DenseModelError, ValidationError
from .majorants import (
    Majorant,
    diagnose,
    make_random_sparse,
    make_squares,
    make_uniform,
    make_weighted_primes,
)
from .models import (
    green_model,
    hahn_banach_model,
    hdr_model,
    naslund_model,
)
from .signals import Claim, DiscreteSignal

SCHEMA_VERSION = "tlab-report/2"

# The one registry of majorant kinds and model variants.  Entries call their
# function by this module's global name, so a wrapper rebound over it sees calls.
_MAJORANT_MAKERS = {
    "uniform": lambda N, **_: make_uniform(N),
    "sparse": lambda N, exponent, seed: make_random_sparse(N, exponent, seed),
    "squares": lambda N, **_: make_squares(N),
    "primes": lambda N, **_: make_weighted_primes(N),
}
_MODEL_CALLS = {
    "green": lambda f, nu, eps, eta, strict, **_:
        green_model(f, nu, eps, eta, strict=strict),
    "hdr": lambda f, nu, eps, strict, **_:
        hdr_model(f, nu, eps, strict=strict),
    "naslund": lambda f, nu, k, p, strict, **_:
        naslund_model(f, nu, k, p, strict=strict),
    "hahn_banach": lambda f, nu, tol, **_:
        hahn_banach_model(f, nu, tol=tol),
}
MAJORANT_KINDS = tuple(_MAJORANT_MAKERS)
VARIANTS = tuple(_MODEL_CALLS)
SELECTIONS = ("structured", "random")


def report_schema_version() -> str:
    return SCHEMA_VERSION


@dataclass
class PipelineConfig:
    """Every knob of one pipeline run; round-trips through flat key=value text."""

    N: int = 2000
    majorant: str = "sparse"
    exponent: float = 2.0 / 3.0
    delta: float = 0.5
    selection: str = "structured"
    seed: int = 0
    form: tuple = (1, 1, -2)
    variant: str = "hdr"
    eps: float = 0.1
    eta: float = 0.1
    k: int = 3
    p: float = 4.0
    tol: float = 1e-6
    strict: bool = False

    def validate(self) -> None:
        if self.N < 1:
            raise ValidationError("config: N must be >= 1")
        if self.majorant not in MAJORANT_KINDS:
            raise ValidationError(f"config: unknown majorant {self.majorant!r}")
        if self.variant not in VARIANTS:
            raise ValidationError(f"config: unknown variant {self.variant!r}")
        if self.selection not in SELECTIONS:
            raise ValidationError(f"config: unknown selection {self.selection!r}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValidationError("config: delta must lie in [0, 1]")
        if self.seed < 0:
            raise ValidationError("config: seed must be >= 0")
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValidationError(f"config: {f.name} must be finite")
        LinearForm(self.form)

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["form"] = list(self.form)
        return d

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name == "form":
                text = ",".join(str(int(c)) for c in v)
            elif isinstance(v, bool):
                text = "true" if v else "false"
            elif isinstance(v, float):
                text = repr(v)
            else:
                text = str(v)
            lines.append(f"{f.name} = {text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PipelineConfig":
        kinds = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"config line {ln}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in kinds:
                raise ValidationError(f"config line {ln}: unknown key {key!r}")
            if key in kwargs:
                raise ValidationError(f"config line {ln}: duplicate key {key!r}")
            default = getattr(cls(), key)
            try:
                if key == "form":
                    kwargs[key] = tuple(int(c) for c in val.split(","))
                elif isinstance(default, bool):
                    if val not in ("true", "false"):
                        raise ValueError(val)
                    kwargs[key] = val == "true"
                elif isinstance(default, int):
                    kwargs[key] = int(val)
                elif isinstance(default, float):
                    kwargs[key] = float(val)
                else:
                    kwargs[key] = val
            except ValueError as e:
                raise ValidationError(
                    f"config line {ln}: bad value for {key}: {val!r}") from e
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def write(self, path) -> None:
        try:
            with open(path, "w") as fh:
                fh.write(self.to_text())
        except OSError as e:
            raise ValidationError(f"{path}: cannot write: {e.strerror}") from e

    @classmethod
    def read(cls, path) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ValidationError(f"{path}: cannot read: {e.strerror}") from e
        except UnicodeDecodeError as e:
            raise ValidationError(f"{path}: cannot read: not UTF-8 text") from e
        return cls.from_text(text)


@dataclass(frozen=True)
class PipelineReport:
    data: dict = field(repr=False)

    @property
    def ok(self) -> bool:
        return bool(self.data["ok"])

    def to_json(self) -> str:
        return canonical_json(self.data)


def canonical_json(data: dict) -> str:
    """Deterministic serialization: sorted keys, fixed separators, repr floats.

    Every value is made JSON-native where it is computed; this only writes,
    and refuses NaN and infinities, which RFC 8259 JSON lacks.
    """
    try:
        return json.dumps(data, sort_keys=True, indent=2, separators=(",", ": "),
                          allow_nan=False) + "\n"
    except ValueError as e:
        raise ValidationError(f"output is not JSON: {e}") from e


def _entry(table: dict, name: str, what: str):
    if name not in table:
        raise ValidationError(f"unknown {what} {name!r}; choose from {', '.join(table)}")
    return table[name]


def build_majorant(kind: str, N: int, exponent: float, seed: int) -> Majorant:
    """The majorant of one of MAJORANT_KINDS; exponent and seed apply to sparse."""
    return _entry(_MAJORANT_MAKERS, kind, "majorant")(N, exponent=exponent, seed=seed)


def run_model(variant: str, f: DiscreteSignal, nu: Majorant, *, eps: float,
              eta: float, k: int, p: float, tol: float, strict: bool):
    """g by one of VARIANTS; each variant reads the options its model takes."""
    return _entry(_MODEL_CALLS, variant, "variant")(f, nu, eps=eps, eta=eta,
                                                    k=k, p=p, tol=tol, strict=strict)


def select_subset(nu: Majorant, delta: float, selection: str,
                  seed: int) -> tuple[DiscreteSignal, int]:
    """f = 1_A nu on [min A, max A], for A of relative density delta in supp nu.

    Structured mode keeps every ceil(1/delta)-th support element in increasing
    order; random mode draws a seeded uniform subset of size round(delta * |S|).
    """
    sig = nu.signal
    supp = np.nonzero(sig.values)[0]
    if delta == 0.0 or len(supp) == 0:
        return DiscreteSignal.zero(), 0
    if selection == "structured":
        step = math.ceil(min(1.0 / delta, len(supp)))  # 1 / delta may be inf
        chosen = supp[::step]
    else:
        rng = np.random.default_rng(seed)
        size = max(0, min(len(supp), round(delta * len(supp))))
        if size == 0:
            return DiscreteSignal.zero(), 0
        chosen = rng.choice(supp, size=size, replace=False)
    return DiscreteSignal.on_points(sig.support_lo + chosen, sig.values[chosen]), len(chosen)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DenseModelError as e:
        raise type(e)(f"stage {name}: {e}") from e


def run_pipeline(cfg: PipelineConfig) -> PipelineReport:
    cfg.validate()
    flags: list = []
    nu = _stage("majorant", build_majorant,
                cfg.majorant, cfg.N, cfg.exponent, cfg.seed)
    f, subset_size = _stage("subset", select_subset,
                            nu, cfg.delta, cfg.selection, cfg.seed)
    if f.is_zero:
        flags.append("empty_subset")
    diag = _stage("diagnose", diagnose, nu)
    model = _stage("model", run_model, cfg.variant, f, nu, eps=cfg.eps,
                   eta=cfg.eta, k=cfg.k, p=cfg.p, tol=cfg.tol, strict=cfg.strict)
    flags.extend(model.flags)

    form = LinearForm(cfg.form)
    count_f = _stage("count", count_weighted, form, [f] * form.s)
    count_g = _stage("count", count_weighted, form, [model.g] * form.s)
    threshold = _stage("threshold", threshold_extract, model.g, cfg.delta, cfg.N)
    flags.extend(threshold.flags)
    comparison = _stage("threshold", count_comparison, form, model.g, threshold,
                        count_g=count_g.total)
    transfer = _stage("transfer", transfer_error_bound, form, f, model.g,
                      count_f=count_f.total, count_g=count_g.total,
                      sup=model.fourier_err)

    claims = [Claim("fourier_err_upper", "certified-bound",
                    model.fourier_err.certified_upper),
              *model.claims, transfer.claim, threshold.claim, comparison.claim]
    ok = all(c.ok for c in claims if c.ok is not None)
    data = {
        "schema": report_schema_version(),
        "config": cfg.as_dict(),
        "majorant": {
            "mass": nu.l1_mass,
            "support_size": int(np.count_nonzero(nu.signal.values)),
            "metadata": dict(nu.metadata),
        },
        "diagnostics": diag,
        "subset": {"size": subset_size, "selection": cfg.selection,
                   "delta": cfg.delta, "mass_f": model.mass_f},
        "model": model.as_dict(),
        "counts": {"f": count_f.as_dict(), "g": count_g.as_dict()},
        "threshold": threshold.as_dict(),
        "comparison": comparison.as_dict(),
        "transfer": transfer.as_dict(),
        "claims": [c.as_dict() for c in claims],
        "flags": flags,
        "ok": ok,
    }
    return PipelineReport(data=data)
