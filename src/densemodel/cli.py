"""Command-line front end: one subcommand per library area, JSON out.

Exit codes: 0 success, 2 validation error, 3 resource cap, 4 failed certified
inequality (or any flag under --strict or a config file's `strict = true`).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import convex, counting, majorants, pipeline, polyapprox
from .bohr import bohr_enumerate
from .errors import (
    EXIT_OK,
    CertificationError,
    DenseModelError,
    ValidationError,
)
from .pipeline import PipelineConfig, canonical_json
from .signals import read_csv, write_csv


def _emit(data: dict, strict: bool) -> None:
    """Print a result; exit 4 on a failed inequality, or on any flag under strict.

    Only a pipeline report has a top-level `ok`; every output that can carry a
    flag carries it in a top-level `flags` list.
    """
    sys.stdout.write(canonical_json(data))
    if not data.get("ok", True):
        raise CertificationError("pipeline report contains failed inequalities")
    if strict and data.get("flags"):
        raise CertificationError(f"strict mode: flags raised: {data['flags']}")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError as e:
        raise ValidationError(f"bad vector {text!r}") from e


def _parse_matrix(text: str) -> np.ndarray:
    rows = [_parse_vector(r) for r in text.split(";")]
    if len({len(r) for r in rows}) != 1:
        raise ValidationError("matrix rows must share a length")
    return np.vstack(rows)


def _load_majorant(args) -> majorants.Majorant:
    if args.majorant_csv:
        sig = read_csv(args.majorant_csv)
        N = sig.support_hi if args.N is None else args.N
        return majorants.Majorant(sig, N, {"kind": "file"})
    N = PipelineConfig().N if args.N is None else args.N
    return pipeline.build_majorant(args.kind, N, args.exponent, args.seed)


def cmd_majorant(args) -> None:
    nu = _load_majorant(args)
    if args.out:
        write_csv(nu.signal, args.out)
    data = {
        "N": nu.N,
        "mass": nu.l1_mass,
        "support_size": int(np.count_nonzero(nu.signal.values)),
        "metadata": dict(nu.metadata),
    }
    if args.diagnose:
        data["diagnostics"] = majorants.diagnose(nu)
    _emit(data, args.strict)


def cmd_bohr(args) -> None:
    freqs = _parse_vector(args.freqs) if args.freqs else np.zeros(0)
    B = bohr_enumerate(freqs, args.eps, args.N)
    data = B.as_dict()
    if not args.elements:
        data.pop("elements", None)
    _emit(data, args.strict)


def cmd_densify(args) -> None:
    nu = _load_majorant(args)
    f = read_csv(args.signal) if args.signal else nu.signal
    report = pipeline.run_model(args.variant, f, nu, eps=args.eps, eta=args.eta,
                                k=args.k, p=args.p, tol=args.tol,
                                strict=args.strict)
    if args.g_out:
        write_csv(report.g, args.g_out)
    _emit(report.as_dict(), args.strict)


def cmd_count(args) -> None:
    try:
        coeffs = tuple(int(c) for c in args.form.split(","))
    except ValueError as e:
        raise ValidationError(f"bad form {args.form!r}") from e
    form = counting.LinearForm(coeffs)
    weights = [read_csv(p) for p in args.weights]
    if len(weights) == 1:
        weights = weights * form.s
    _emit(counting.count_weighted(form, weights).as_dict(), args.strict)


def cmd_minimax(args) -> None:
    A = convex.PointHull(_parse_matrix(args.a_gens))
    B = convex.PointHull(_parse_matrix(args.b_gens))
    res = convex.minimax_solve(A, B, tol=args.tol)
    _emit({
        "value": res.value,
        "a_star": res.a_star.tolist(),
        "b_star": res.b_star.tolist(),
        "gap": res.gap,
    }, args.strict)


def cmd_project(args) -> None:
    hull = convex.PointHull(_parse_matrix(args.gens))
    proj = convex.project_onto_hull(_parse_vector(args.point), hull,
                                    tol=args.tol)
    data = {
        "projection": proj.point.tolist(),
        "distance": proj.distance,
        "gap": proj.gap,
        "inside": proj.inside,
        "iterations": proj.iterations,
    }
    if proj.witness is not None:
        data["witness"] = {
            "normal": proj.witness.normal.tolist(),
            "anchor_value": proj.witness.anchor_value,
        }
    _emit(data, args.strict)


def cmd_weierstrass(args) -> None:
    if args.n_terms is not None:
        approx = polyapprox.build_abs_approx(args.n_terms)
    else:
        approx = polyapprox.build_positive_part(args.eps)
    data = approx.as_dict()
    if not args.coefficients:
        data.pop("coefficients", None)
    _emit(data, args.strict)


def cmd_pipeline(args) -> None:
    cfg = PipelineConfig.read(args.config) if args.config else PipelineConfig()
    for key in ("N", "seed", "tol", "variant"):
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    cfg.strict = cfg.strict or args.strict
    report = pipeline.run_pipeline(cfg)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(report.to_json())
        except OSError as e:
            raise ValidationError(f"{args.out}: cannot write: {e.strerror}") from e
    _emit(report.data, cfg.strict)


def _add_common(p: argparse.ArgumentParser, *, tol: bool = False,
                seed: bool = False) -> None:
    """--strict, and each shared flag that the subcommand reads."""
    if tol:
        p.add_argument("--tol", type=float, default=1e-6)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on any capping or flag")


def _add_majorant_opts(p: argparse.ArgumentParser, defaults: PipelineConfig) -> None:
    p.add_argument("--kind", default=defaults.majorant,
                   choices=pipeline.MAJORANT_KINDS)
    p.add_argument("--N", type=int,
                   help=f"default {defaults.N}, or the --majorant-csv window's end")
    p.add_argument("--exponent", type=float, default=defaults.exponent)
    p.add_argument("--majorant-csv", default="",
                   help="load the majorant from a CSV signal instead")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densemodel",
        description="Bounded approximants, Bohr sets, and certified solution "
                    "counting for sparse weighted sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = PipelineConfig()

    p = sub.add_parser("majorant", help="build and diagnose a majorant")
    _add_majorant_opts(p, defaults)
    p.add_argument("--diagnose", action="store_true")
    p.add_argument("--out", default="", help="write the signal as CSV")
    _add_common(p, seed=True)
    p.set_defaults(fn=cmd_majorant)

    p = sub.add_parser("bohr", help="enumerate a Bohr set with its certificate")
    p.add_argument("--freqs", default="", help="comma-separated frequencies")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--elements", action="store_true",
                   help="include the full element list")
    _add_common(p)
    p.set_defaults(fn=cmd_bohr)

    p = sub.add_parser("densify", help="build a bounded approximant g of f")
    _add_majorant_opts(p, defaults)
    p.add_argument("--variant", default=defaults.variant,
                   choices=pipeline.VARIANTS)
    p.add_argument("--signal", default="", help="CSV for f (default: f = nu)")
    p.add_argument("--eps", type=float, default=defaults.eps)
    p.add_argument("--eta", type=float, default=defaults.eta)
    p.add_argument("--k", type=int, default=defaults.k)
    p.add_argument("--p", type=float, default=defaults.p)
    p.add_argument("--g-out", default="", help="write g as CSV")
    _add_common(p, tol=True, seed=True)
    p.set_defaults(fn=cmd_densify)

    p = sub.add_parser("count", help="weighted solution count of a linear form")
    p.add_argument("--form", required=True, help="coefficients, e.g. 1,1,-2")
    p.add_argument("--weights", nargs="+", required=True,
                   help="CSV signal per position (one CSV reused if single)")
    _add_common(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("minimax", help="saddle value over two point hulls")
    p.add_argument("--a-gens", required=True, help="rows 'x,y;x,y;...'")
    p.add_argument("--b-gens", required=True)
    _add_common(p, tol=True)
    p.set_defaults(fn=cmd_minimax)

    p = sub.add_parser("project", help="nearest point in a hull plus witness")
    p.add_argument("--point", required=True)
    p.add_argument("--gens", required=True, help="rows 'x,y;x,y;...'")
    _add_common(p, tol=True)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("weierstrass",
                       help="certified polynomial approximation of x_+ or |x|")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--eps", type=float, default=0.1)
    target.add_argument("--n-terms", type=int,
                        help="build the even |x| approximant at this order instead")
    p.add_argument("--coefficients", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_weierstrass)

    p = sub.add_parser("pipeline", help="run the full counting pipeline")
    p.add_argument("--config", default="", help="flat key=value config file")
    p.add_argument("--N", type=int)
    p.add_argument("--variant", choices=pipeline.VARIANTS)
    p.add_argument("--out", default="", help="write the JSON report here")
    _add_common(p, tol=True, seed=True)
    # an absent --N, --variant, --seed or --tol keeps the config file's value
    p.set_defaults(fn=cmd_pipeline, seed=None, tol=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except DenseModelError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.exit_code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
