"""The one registry of majorant kinds and model variants, and the CLI on top of it."""

from __future__ import annotations

import json

import pytest

import densemodel.pipeline as pipeline
from densemodel.cli import build_parser, main
from densemodel.errors import EXIT_OK, EXIT_RESOURCE, EXIT_VALIDATION, ValidationError
from densemodel.majorants import make_random_sparse
from densemodel.models import green_model, hahn_banach_model, hdr_model, naslund_model
from densemodel.pipeline import (
    MAJORANT_KINDS,
    VARIANTS,
    PipelineConfig,
    build_majorant,
    run_model,
    run_pipeline,
    select_subset,
)

OPTIONS = dict(eps=0.2, eta=0.3, k=3, p=4.0, tol=1e-6, strict=False)
DIRECT = {
    "green": lambda f, nu: green_model(f, nu, 0.2, 0.3),
    "hdr": lambda f, nu: hdr_model(f, nu, 0.2),
    "naslund": lambda f, nu: naslund_model(f, nu, 3, 4.0),
    "hahn_banach": lambda f, nu: hahn_banach_model(f, nu, tol=1e-6),
}


def _choices(command: str, dest: str) -> tuple:
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    action = next(a for a in sub.choices[command]._actions if a.dest == dest)
    return tuple(action.choices)


@pytest.fixture(scope="module")
def instance():
    nu = make_random_sparse(200, 2 / 3, seed=5)
    f, _ = select_subset(nu, 0.5, "structured", 0)
    return f, nu


class TestRegistry:
    def test_cli_choices_come_from_registry(self) -> None:
        assert _choices("densify", "variant") == VARIANTS
        assert _choices("densify", "kind") == MAJORANT_KINDS
        assert _choices("majorant", "kind") == MAJORANT_KINDS

    @pytest.mark.parametrize("kind", MAJORANT_KINDS)
    def test_build_majorant_each_kind(self, kind) -> None:
        nu = build_majorant(kind, 100, 0.5, 4)
        assert nu.N == 100 and nu.metadata["kind"] == kind

    def test_exponent_and_seed_reach_sparse(self) -> None:
        nu = build_majorant("sparse", 500, 0.5, 9)
        ref = make_random_sparse(500, 0.5, 9)
        assert nu.metadata == ref.metadata
        assert (nu.signal.values == ref.signal.values).all()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_run_model_matches_direct_call(self, instance, variant) -> None:
        f, nu = instance
        report = run_model(variant, f, nu, **OPTIONS)
        assert report.variant == variant
        assert report.as_dict() == DIRECT[variant](f, nu).as_dict()

    def test_options_reach_their_model(self, instance) -> None:
        f, nu = instance
        assert run_model("green", f, nu, **{**OPTIONS, "eta": 0.3}).params["eta"] == 0.3
        assert run_model("naslund", f, nu, **{**OPTIONS, "k": 2}).params["k"] == 2
        report = run_model("hahn_banach", f, nu, **{**OPTIONS, "tol": 1e-3})
        assert report.params["tol"] == 1e-3

    def test_registry_looks_names_up_at_call_time(self, monkeypatch, instance) -> None:
        # a wrapper rebound over the module-global name must see the call
        f, nu = instance
        seen = []

        def wrap(name):
            original = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                seen.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, wrapper)

        for name in ("make_squares", "green_model", "hdr_model"):
            wrap(name)
        build_majorant("squares", 100, 0.5, 0)
        run_model("hdr", f, nu, **OPTIONS)
        run_pipeline(PipelineConfig(N=200, variant="green", eps=0.2, eta=0.2))
        assert seen == ["make_squares", "hdr_model", "green_model"]


class TestCliPipelineTol:
    def test_config_tol_kept_without_tol_flag(self, tmp_path, capsys) -> None:
        path = tmp_path / "run.cfg"
        PipelineConfig(N=200, variant="green", eps=0.2, eta=0.2, tol=0.001).write(path)
        assert main(["pipeline", "--config", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["tol"] == 0.001

    def test_tol_flag_overrides_config(self, tmp_path, capsys) -> None:
        path = tmp_path / "run.cfg"
        PipelineConfig(N=200, variant="green", eps=0.2, eta=0.2, tol=0.001).write(path)
        assert main(["pipeline", "--config", str(path), "--tol", "0.5"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["tol"] == 0.5


class TestCliStrictForwarding:
    def test_densify_strict_stops_at_capped_spectrum_grid(self, capsys) -> None:
        # M = ceil(4 pi N / eta) exceeds the spectrum grid cap; without strict
        # reaching the model the run would finish and exit 4 on the flag
        code = main(["densify", "--kind", "uniform", "--N", "40000",
                     "--eps", "0.1", "--strict"])
        captured = capsys.readouterr()
        assert code == EXIT_RESOURCE
        assert captured.out == ""

    def test_tiny_eta_caps_the_spectrum_grid(self, capsys) -> None:
        # ceil(4 pi N / eta) is past ssize_t; the grid is held at the cap
        argv = ["densify", "--N", "300", "--variant", "green", "--eta", "1e-17"]
        assert main(argv) == EXIT_OK
        assert "spectrum_grid_capped" in json.loads(capsys.readouterr().out)["flags"]
        assert main(argv + ["--strict"]) == EXIT_RESOURCE
        assert capsys.readouterr().out == ""


class TestUnknownNames:
    def test_build_majorant_rejects_unknown_kind(self) -> None:
        with pytest.raises(ValidationError, match="bogus"):
            build_majorant("bogus", 100, 0.5, 0)

    def test_run_model_rejects_unknown_variant(self, instance) -> None:
        f, nu = instance
        with pytest.raises(ValidationError, match="bogus"):
            run_model("bogus", f, nu, **OPTIONS)

    def test_pipeline_variant_choices_come_from_registry(self) -> None:
        assert _choices("pipeline", "variant") == VARIANTS


# Each argv parses; adding the flag, which the subcommand never reads, is a usage error.
UNREAD_FLAGS = [
    (["majorant"], ["--tol", "0.1"]),
    (["majorant"], ["--grid-M", "8"]),
    (["densify"], ["--grid-M", "8"]),
    (["pipeline"], ["--grid-M", "8"]),
    (["bohr", "--eps", "0.1", "--N", "100"], ["--seed", "1"]),
    (["bohr", "--eps", "0.1", "--N", "100"], ["--grid-M", "8"]),
    (["bohr", "--eps", "0.1", "--N", "100"], ["--tol", "0.1"]),
    (["count", "--form", "1,1,-2", "--weights", "w.csv"], ["--grid-M", "8"]),
    (["count", "--form", "1,1,-2", "--weights", "w.csv"], ["--tol", "0.1"]),
    (["count", "--form", "1,1,-2", "--weights", "w.csv"], ["--seed", "1"]),
    (["weierstrass"], ["--grid-M", "8"]),
    (["weierstrass"], ["--tol", "0.1"]),
    (["weierstrass"], ["--seed", "1"]),
    (["minimax", "--a-gens", "1,0", "--b-gens", "0,1"], ["--grid-M", "8"]),
    (["minimax", "--a-gens", "1,0", "--b-gens", "0,1"], ["--seed", "1"]),
    (["project", "--point", "1,1", "--gens", "0,0"], ["--grid-M", "8"]),
    (["project", "--point", "1,1", "--gens", "0,0"], ["--seed", "1"]),
    (["pipeline"], ["--variant", "bogus"]),
    (["count", "--form", "1,1,-2", "--weights", "w.csv"], ["--method", "convolution"]),
    (["majorant", "--diagnose"], ["--k-max", "3"]),
]


class TestCliFlags:
    @pytest.mark.parametrize("argv, extra", UNREAD_FLAGS,
                             ids=[" ".join(a[:1] + e) for a, e in UNREAD_FLAGS])
    def test_unread_flag_is_a_usage_error(self, argv, extra, capsys) -> None:
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == EXIT_VALIDATION
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["majorant", "--seed", "1", "--strict"],
        ["densify", "--tol", "0.1", "--seed", "1", "--strict"],
        ["minimax", "--a-gens", "1,0", "--b-gens", "0,1", "--tol", "0.1", "--strict"],
        ["project", "--point", "1,1", "--gens", "0,0", "--tol", "0.1", "--strict"],
        ["pipeline", "--tol", "0.1", "--seed", "1", "--strict"],
        ["bohr", "--eps", "0.1", "--N", "100", "--strict"],
        ["count", "--form", "1,1,-2", "--weights", "w.csv", "--strict"],
        ["weierstrass", "--strict"],
    ])
    def test_read_flags_still_parse(self, argv) -> None:
        build_parser().parse_args(argv)
