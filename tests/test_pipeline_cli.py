"""End-to-end pipeline runs, config round-trips, and the CLI surface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densemodel
from densemodel.cli import main
from densemodel.errors import (
    EXIT_CERTIFICATION,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    ResourceError,
    ValidationError,
)
from densemodel.counting import LinearForm, count_weighted
from densemodel.pipeline import (
    SCHEMA_VERSION,
    VARIANTS,
    PipelineConfig,
    build_majorant,
    canonical_json,
    run_model,
    run_pipeline,
    select_subset,
)
from densemodel.majorants import make_random_sparse
from densemodel.signals import MAX_CONV_LENGTH, DiscreteSignal, read_csv
from oracles import count_brute


configs = st.builds(
    PipelineConfig,
    N=st.sampled_from([100, 250, 500]),
    majorant=st.sampled_from(["uniform", "sparse", "squares", "primes"]),
    exponent=st.sampled_from([0.5, 2 / 3, 0.75]),
    delta=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    selection=st.sampled_from(["structured", "random"]),
    seed=st.integers(min_value=0, max_value=100),
    variant=st.sampled_from(["green", "hdr"]),
    eps=st.sampled_from([0.1, 0.2, 0.3]),
    eta=st.sampled_from([0.1, 0.2]),
)


class TestConfig:
    @given(configs)
    @settings(max_examples=50, deadline=None)
    def test_text_roundtrip_lossless(self, cfg) -> None:
        assert PipelineConfig.from_text(cfg.to_text()) == cfg

    def test_file_roundtrip(self, tmp_path) -> None:
        cfg = PipelineConfig(N=123, eps=0.125, form=(2, -1, -1), strict=True)
        path = tmp_path / "run.cfg"
        cfg.write(path)
        assert PipelineConfig.read(path) == cfg

    def test_comments_and_blank_lines_ignored(self) -> None:
        text = "# a run\nN = 50\n\nvariant = green  # inline\n"
        cfg = PipelineConfig.from_text(text)
        assert cfg.N == 50 and cfg.variant == "green"

    def test_unknown_key_rejected(self) -> None:
        with pytest.raises(Exception, match="unknown key"):
            PipelineConfig.from_text("mystery = 1\n")

    def test_bad_value_rejected(self) -> None:
        with pytest.raises(Exception, match="bad value"):
            PipelineConfig.from_text("N = many\n")

    def test_domain_validated(self) -> None:
        with pytest.raises(Exception, match="delta"):
            PipelineConfig.from_text("delta = 1.5\n")

    def test_duplicate_key_rejected(self) -> None:
        with pytest.raises(ValidationError, match="config line 2: duplicate key 'N'"):
            PipelineConfig.from_text("N = 300\nN = 400\n")

    def test_write_into_missing_directory_refused(self, tmp_path) -> None:
        path = tmp_path / "absent" / "run.cfg"
        with pytest.raises(ValidationError, match=f"{path}: cannot write: "):
            PipelineConfig().write(path)

    @pytest.mark.parametrize("line", ["grid_m = 0", "output = x"])
    def test_grid_and_output_are_unknown_keys(self, line) -> None:
        # every grid follows from the input, and only `pipeline --out` writes a report
        with pytest.raises(ValidationError, match="unknown key"):
            PipelineConfig.from_text(line + "\n")


class TestSubsetSelection:
    def test_structured_takes_every_kth(self) -> None:
        nu = make_random_sparse(300, 2 / 3, seed=0)
        supp = np.nonzero(nu.signal.values)[0]
        f, size = select_subset(nu, 0.5, "structured", 0)
        assert size == len(supp[::2])
        f3, size3 = select_subset(nu, 1 / 3, "structured", 0)
        assert size3 == len(supp[::3])

    def test_delta_one_keeps_everything(self) -> None:
        nu = make_random_sparse(300, 2 / 3, seed=1)
        f, size = select_subset(nu, 1.0, "structured", 0)
        assert float(np.sum(f.values)) == pytest.approx(nu.l1_mass)

    def test_delta_zero_empty(self) -> None:
        nu = make_random_sparse(300, 2 / 3, seed=1)
        f, size = select_subset(nu, 0.0, "structured", 0)
        assert size == 0 and f.is_zero

    def test_random_mode_seeded(self) -> None:
        nu = make_random_sparse(300, 2 / 3, seed=1)
        f1, _ = select_subset(nu, 0.5, "random", 42)
        f2, _ = select_subset(nu, 0.5, "random", 42)
        f3, _ = select_subset(nu, 0.5, "random", 43)
        assert np.array_equal(f1.values, f2.values)
        assert f1.support_lo != f3.support_lo or not np.array_equal(
            f1.values, f3.values)


class TestPipeline:
    def test_schema_version(self) -> None:
        assert SCHEMA_VERSION == "tlab-report/2"
        rep = run_pipeline(PipelineConfig(N=100, variant="green",
                                          eps=0.2, eta=0.2))
        assert rep.data["schema"] == "tlab-report/2"

    def test_uniform_delta_one_is_exactly_bounded(self) -> None:
        # at small width the spectrum is so wide the Bohr set collapses to {0},
        # sigma is a point mass, and g = f exactly
        cfg = PipelineConfig(N=100, majorant="uniform", delta=1.0,
                             variant="green", eps=0.05, eta=0.05)
        rep = run_pipeline(cfg)
        assert rep.ok
        assert rep.data["model"]["fourier_err"]["certified_upper"] == 0.0
        t = rep.data["transfer"]
        assert abs(t["count_f"] - t["count_g"]) <= 1e-6 * max(1, t["count_f"])

    def test_empty_subset_completes_with_flag(self) -> None:
        cfg = PipelineConfig(N=100, delta=0.0, variant="hdr", eps=0.2)
        rep = run_pipeline(cfg)
        assert "empty_subset" in rep.data["flags"]
        assert rep.data["counts"]["f"]["total"] == 0.0
        assert rep.data["counts"]["g"]["total"] == 0.0

    def test_determinism_byte_identical(self) -> None:
        cfg = PipelineConfig(N=500, seed=7, variant="hdr", eps=0.2)
        assert run_pipeline(cfg).to_json() == run_pipeline(cfg).to_json()

    @pytest.mark.parametrize("variant", ["green", "hdr", "naslund", "hahn_banach"])
    def test_claims_carry_certification_kinds(self, variant) -> None:
        rep = run_pipeline(PipelineConfig(N=200, variant=variant, eps=0.2))
        kinds = {c["kind"] for c in rep.data["claims"]}
        assert kinds == {"exact", "certified-bound"}
        assert "sampled-estimate" not in kinds

    def test_canonical_json_sorts_keys(self) -> None:
        assert canonical_json({"b": 1, "a": np.float64(2.5)}) == \
            '{\n  "a": 2.5,\n  "b": 1\n}\n'


class TestCli:
    def test_bohr_subcommand(self, capsys) -> None:
        assert main(["bohr", "--eps", "0.2", "--N", "100"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["size"] == 41

    def test_minimax_identity(self, capsys) -> None:
        assert main(["minimax", "--a-gens", "1,0;0,1",
                     "--b-gens", "1,0;0,1"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == pytest.approx(0.5, abs=1e-6)

    def test_project_simplex(self, capsys) -> None:
        assert main(["project", "--point", "1,1",
                     "--gens", "1,0;0,1"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["projection"] == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_weierstrass(self, capsys) -> None:
        assert main(["weierstrass", "--eps", "0.1"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["measured_sup_error"] <= 0.1

    def test_weierstrass_takes_eps_or_n_terms_not_both(self, capsys) -> None:
        # one of the two would be dropped without a word
        with pytest.raises(SystemExit) as exc:
            main(["weierstrass", "--eps", "0.5", "--n-terms", "3"])
        assert exc.value.code == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with" in err

    def test_majorant_to_count_workflow(self, tmp_path, capsys) -> None:
        nu_csv = str(tmp_path / "nu.csv")
        g_csv = str(tmp_path / "g.csv")
        assert main(["majorant", "--kind", "sparse", "--N", "300",
                     "--seed", "7", "--out", nu_csv]) == EXIT_OK
        capsys.readouterr()
        assert main(["densify", "--majorant-csv", nu_csv, "--N", "300",
                     "--variant", "hdr", "--eps", "0.2",
                     "--g-out", g_csv]) == EXIT_OK
        capsys.readouterr()
        assert main(["count", "--form", "1,1,-2",
                     "--weights", g_csv]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["total"] >= 0.0

    def test_majorant_diagnostics_do_not_read_the_seed(self, capsys) -> None:
        # squares ignores --seed, and diagnose takes nothing but nu
        outputs = []
        for seed in ("0", "3"):
            assert main(["majorant", "--kind", "squares", "--N", "500",
                         "--diagnose", "--seed", seed]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "diagnostics" in json.loads(outputs[0])

    def test_pipeline_report_file(self, tmp_path, capsys) -> None:
        out = str(tmp_path / "rep.json")
        code = main(["pipeline", "--N", "200", "--variant", "green",
                     "--out", out])
        capsys.readouterr()
        assert code == EXIT_OK
        data = json.loads(open(out).read())
        assert data["schema"] == "tlab-report/2"

    @pytest.mark.parametrize("argv", [
        ["count", "--form", "1,1,-1", "--weights", "missing.csv"],
        ["count", "--form", "1,a,-2", "--weights", "missing.csv"],
        ["count", "--form", "1,1,-2", "--weights", "missing.csv"],
        ["densify", "--majorant-csv", "missing.csv"],
        ["densify", "--N", "300", "--signal", "missing.csv"],
        ["pipeline", "--config", "missing.cfg"],
        ["pipeline", "--N", "300", "--variant", "hahn_banach", "--tol", "nan"],
        ["densify", "--N", "300", "--variant", "hahn_banach", "--tol", "inf"],
        ["densify", "--N", "300", "--variant", "hahn_banach", "--tol", "-1"],
        ["densify", "--N", "300", "--variant", "naslund", "--p", "-2"],
        ["densify", "--N", "300", "--variant", "naslund", "--p", "nan"],
        ["densify", "--N", "300", "--variant", "naslund", "--p", "inf"],
        ["majorant", "--N", "100", "--seed", "-2"],
        ["densify", "--N", "300", "--seed", "-1"],
        ["pipeline", "--N", "100", "--variant", "green", "--seed", "-1"],
        ["pipeline", "--config", "seed.cfg"],
        ["minimax", "--a-gens", "1,0", "--b-gens", "1,0", "--tol", "nan"],
        ["project", "--point", "1,1", "--gens", "1,0;0,1", "--tol", "nan"],
        ["project", "--point", "1,nan", "--gens", "0,0"],
        ["bohr", "--freqs", "nan", "--eps", "0.1", "--N", "100"],
        ["count", "--form", "1,1,-2", "--weights", "bad.csv"],
        ["pipeline", "--config", "bad.cfg"],
        ["majorant", "--N", "0"],
        ["densify", "--N", "0"],
        ["pipeline", "--N", "0"],
        ["weierstrass", "--n-terms", "0"],
        ["pipeline", "--N", "100", "--variant", "green", "--out", "no-dir/r.json"],
        ["majorant", "--N", "100", "--out", "no-dir/nu.csv"],
        ["densify", "--N", "300", "--g-out", "no-dir/g.csv"],
        ["project", "--point", "1e200,0", "--gens", "0,0"],
        ["minimax", "--a-gens", "1e200,0", "--b-gens", "1e200,0"],
    ], ids=["form-sum", "form-text", "count-file", "majorant-file", "signal-file",
            "config-file", "hb-tol-nan", "hb-tol-inf", "hb-tol-negative",
            "naslund-p-minus-2", "naslund-p-nan", "naslund-p-inf",
            "majorant-seed-negative", "densify-seed-negative",
            "pipeline-seed-negative", "config-seed-negative", "minimax-tol-nan",
            "project-tol-nan", "project-point-nan", "bohr-freq-nan",
            "count-file-not-utf8", "config-file-not-utf8", "majorant-N-zero",
            "densify-N-zero", "pipeline-N-zero", "weierstrass-n-terms-zero",
            "pipeline-out-unwritable", "majorant-out-unwritable",
            "densify-g-out-unwritable", "project-point-overflows",
            "minimax-payoff-overflows"])
    def test_validation_exit_code(self, capsys, tmp_path, monkeypatch, argv) -> None:
        monkeypatch.chdir(tmp_path)
        (tmp_path / "seed.cfg").write_text("seed = -3\n")
        for name in ("bad.csv", "bad.cfg"):
            (tmp_path / name).write_bytes(b"\xff\xfe")
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_project_far_generators_refused(self, capsys) -> None:
        # |x|^2 = 0 is finite, but |a - x|^2 = 1e400 is not
        code = main(["project", "--point", "0,0", "--gens", "1e200,0"])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nan_frequency_named(self, capsys) -> None:
        code = main(["bohr", "--freqs", "nan", "--eps", "0.1", "--N", "100"])
        assert code == EXIT_VALIDATION
        assert "finite frequencies" in capsys.readouterr().err

    def test_naslund_k_past_float_range_exit_code(self, capsys) -> None:
        code = main(["densify", "--variant", "naslund", "--k", "46", "--N", "300"])
        assert code == EXIT_VALIDATION
        assert "k = 46 is too large" in capsys.readouterr().err

    def test_strict_flags_resource_cap(self, capsys) -> None:
        # a capping flag under --strict must not exit 0
        code = main(["bohr", "--eps", "0.2", "--N", "100", "--strict"])
        capsys.readouterr()
        assert code == EXIT_OK  # no flags raised here


class TestExtremeInputs:
    """Inputs at the edge of the float range end in a report or an error
    message, never in a traceback or in output that is not JSON."""

    def _run(self, capsys, tmp_path, monkeypatch, argv, files=()) -> tuple:
        monkeypatch.chdir(tmp_path)
        for name, text in files:
            (tmp_path / name).write_text(text)
        code = main(argv)
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        return code, out, err

    @pytest.mark.parametrize("freqs, floor", [("", 5e-308), ("0.1", 0.0)])
    def test_subnormal_bohr_eps(self, capsys, tmp_path, monkeypatch, freqs, floor) -> None:
        # 2 / eps overflows: ceil(2 / eps)^(-r) is 1 at r = 0 and 0 at r >= 1
        argv = ["bohr", "--eps", "1e-308", "--N", "10"] + (["--freqs", freqs] if freqs else [])
        code, out, _ = self._run(capsys, tmp_path, monkeypatch, argv)
        assert code == EXIT_OK
        assert json.loads(out)["pigeonhole_floor"] == floor

    @pytest.mark.parametrize("strict", [False, True])
    def test_subnormal_spectrum_eta(self, capsys, tmp_path, monkeypatch, strict) -> None:
        # 4 pi N / eta overflows: the grid is capped, and --strict refuses it
        argv = ["densify", "--variant", "green", "--N", "200", "--eps", "0.1",
                "--eta", "1e-320"] + (["--strict"] if strict else [])
        code, out, err = self._run(capsys, tmp_path, monkeypatch, argv)
        if strict:
            assert code == EXIT_RESOURCE
            assert err == "error: spectrum grid M=inf exceeds cap 4194304\n"
        else:
            assert code == EXIT_OK
            assert "spectrum_grid_capped" in json.loads(out)["flags"]

    def test_subnormal_delta(self, capsys, tmp_path, monkeypatch) -> None:
        # 1 / delta overflows: the structured step is |S|, which keeps one point
        code, out, _ = self._run(capsys, tmp_path, monkeypatch,
                                 ["pipeline", "--config", "d.cfg"],
                                 [("d.cfg", "N = 500\ndelta = 1e-320\n")])
        assert code == EXIT_OK
        assert json.loads(out)["subset"]["size"] == 1

    def test_nan_tol_refused_when_the_variant_ignores_it(self, capsys, tmp_path,
                                                         monkeypatch) -> None:
        code, out, err = self._run(capsys, tmp_path, monkeypatch,
                                   ["pipeline", "--variant", "hdr", "--N", "300",
                                    "--tol", "nan"])
        assert (code, out, err) == (EXIT_VALIDATION, "", "error: config: tol must be finite\n")

    def test_infinite_config_p_refused(self, capsys, tmp_path, monkeypatch) -> None:
        code, out, err = self._run(capsys, tmp_path, monkeypatch,
                                   ["pipeline", "--config", "p.cfg"],
                                   [("p.cfg", "variant = green\nN = 300\np = inf\n")])
        assert (code, out, err) == (EXIT_VALIDATION, "", "error: config: p must be finite\n")

    def test_overflowing_count_refused(self, capsys, tmp_path, monkeypatch) -> None:
        # one line on stderr: numpy's overflow warnings must not print before it
        rows = "".join(f"{n},1e300\n" for n in range(1, 6))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = self._run(capsys, tmp_path, monkeypatch,
                                       ["count", "--form", "1,1,-2", "--weights", "w.csv"],
                                       [("w.csv", "n,value\n" + rows)])
        assert (code, out, caught) == (EXIT_VALIDATION, "", [])
        assert err.startswith("error: weighted count is not finite")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_canonical_json_refuses_non_finite_floats(self) -> None:
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError, match="output is not JSON"):
                canonical_json({"x": [value]})


class TestCountReuse:
    def test_each_weight_counted_once(self, monkeypatch) -> None:
        import densemodel.counting as counting
        import densemodel.pipeline as pipeline_mod

        cfg = PipelineConfig(N=300, variant="hdr", eps=0.2, eta=0.2, seed=3)
        expected = run_pipeline(cfg).to_json()
        calls = []
        original = counting.count_weighted

        def counted(form, weights):
            calls.append(len(weights))
            return original(form, weights)

        monkeypatch.setattr(counting, "count_weighted", counted)
        monkeypatch.setattr(pipeline_mod, "count_weighted", counted)
        rep = run_pipeline(cfg)
        # f, g and the threshold indicator 1_B
        assert len(calls) == 3
        assert rep.to_json() == expected
        d = rep.data
        assert d["transfer"]["count_f"] == d["counts"]["f"]["total"]
        assert d["transfer"]["count_g"] == d["counts"]["g"]["total"]
        assert d["comparison"]["count_g"] == d["counts"]["g"]["total"]


def _rebind_everywhere(monkeypatch, fn, replacement) -> None:
    """Point every densemodel module's name for `fn` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "densemodel" or name.startswith("densemodel."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


class TestEachTransformOnce:
    @pytest.mark.parametrize("variant", ["green", "hdr", "naslund"])
    def test_no_signal_transformed_twice_on_one_grid(self, monkeypatch, variant) -> None:
        from densemodel import signals

        seen = []
        original = signals.grid_fourier

        def recorded(f, grid):
            seen.append((f.support_lo, f.values.tobytes(), grid.M))
            return original(f, grid)

        _rebind_everywhere(monkeypatch, original, recorded)
        run_pipeline(PipelineConfig(N=500, variant=variant, eps=0.2, eta=0.2, seed=7))
        assert len(seen) == len(set(seen))

    def test_check_grids_at_4_span_and_coarse_pass_at_8_len_f(self, monkeypatch) -> None:
        # outside the spectrum's coarse pass, the largest transform of a run
        # whose spectrum is summed directly is on the check grid, the first
        # 5-smooth length at or above 4 span(g); the coarse pass stays at
        # 8 len f, where its candidate sums beat one fine FFT
        import densemodel.bohr as bohr_mod
        from densemodel import signals

        seen = []
        running = []  # holds len f while a coarse pass runs
        passes = []
        original = signals.grid_fourier
        candidates = bohr_mod._candidates

        def recorded(f, grid):
            seen.append((bool(running), grid.M))
            return original(f, grid)

        def coarse_pass(f, M, level):
            running.append(len(f.values))
            passes.append(len(f.values))
            try:
                return candidates(f, M, level)
            finally:
                running.pop()

        _rebind_everywhere(monkeypatch, original, recorded)
        monkeypatch.setattr(bohr_mod, "_candidates", coarse_pass)
        rep = run_pipeline(PipelineConfig(N=2000, variant="hdr", eps=0.2, eta=0.2, seed=0))
        lo, hi = rep.data["model"]["g_support"]
        check_M = signals.next_fast_len(max(4096, 4 * (hi - lo + 1)))
        assert len(passes) == 1
        assert {M for during, M in seen if during} == {
            signals.next_fast_len(max(4096, 8 * passes[0]))}
        assert max(M for during, M in seen if not during) == check_M
        assert rep.data["model"]["params"]["grid_M"] == check_M

    @pytest.mark.parametrize("variant", ["green", "hdr", "naslund"])
    def test_every_transform_has_a_5_smooth_length(self, monkeypatch, variant) -> None:
        # a length with a prime factor above 5 takes numpy's Bluestein path
        lengths = []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def recorded_rfft(a, n=None, *args, **kwargs):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return rfft(a, n, *args, **kwargs)

        def recorded_irfft(a, n=None, *args, **kwargs):
            lengths.append(2 * (np.shape(a)[-1] - 1) if n is None else n)
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recorded_rfft)
        monkeypatch.setattr(np.fft, "irfft", recorded_irfft)
        run_pipeline(PipelineConfig(N=500, variant=variant, eps=0.2, eta=0.2, seed=7))
        assert lengths

        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        assert all(smooth(n) for n in lengths), sorted(set(lengths))

    @pytest.mark.parametrize("variant", ["green", "hdr", "naslund"])
    def test_counting_takes_one_forward_transform_per_signal(self, monkeypatch,
                                                             variant) -> None:
        # counting f, g and 1_B takes one forward transform each and no
        # inverse, and no array goes through the FFT twice at one length in
        # the whole run
        import densemodel.counting as counting
        import densemodel.pipeline as pipeline_mod

        counting_now = []
        transforms = []
        count_weighted = counting.count_weighted

        def counted(form, weights):
            counting_now.append(True)
            try:
                return count_weighted(form, weights)
            finally:
                counting_now.pop()

        def recorder(kind, transform):
            def recorded(a, n=None, *args, **kwargs):
                a = np.asarray(a)
                key = (a.tobytes(), a.shape[-1] if n is None else n)
                transforms.append((bool(counting_now), kind, key))
                return transform(a, n, *args, **kwargs)
            return recorded

        for name in ("rfft", "fft"):
            monkeypatch.setattr(np.fft, name, recorder("forward", getattr(np.fft, name)))
        for name in ("irfft", "ifft"):
            monkeypatch.setattr(np.fft, name, recorder("inverse", getattr(np.fft, name)))
        monkeypatch.setattr(counting, "count_weighted", counted)
        monkeypatch.setattr(pipeline_mod, "count_weighted", counted)
        run_pipeline(PipelineConfig(N=500, variant=variant, eps=0.2, eta=0.2, seed=7))
        assert [kind for during, kind, _ in transforms if during] == ["forward"] * 3
        keys = [key for _, kind, key in transforms if kind == "forward"]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("variant", ["hdr", "naslund"])
    def test_majorant_autocorrelation_taken_once(self, monkeypatch, variant) -> None:
        from densemodel import majorants

        calls = []
        original = majorants.convolve

        def counted(f, g):
            calls.append(1)
            return original(f, g)

        monkeypatch.setattr(majorants, "convolve", counted)
        run_pipeline(PipelineConfig(N=500, variant=variant, eps=0.2, eta=0.2, seed=7))
        assert len(calls) == 1

    def test_count_weighted_transforms_a_repeated_weight_once(self, monkeypatch) -> None:
        w = DiscreteSignal(1, np.arange(1.0, 40.0))
        form = LinearForm((1, 1, -2))
        calls = []
        original = np.fft.rfft

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        total = count_weighted(form, [w] * 3).total
        assert len(calls) == 1
        assert total == pytest.approx(count_brute(form, [w] * 3).total, rel=1e-12)


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestTransferReadsModelCertificate:
    @pytest.mark.parametrize("path", [p for p in sorted(GOLDEN.glob("pipeline_*.json"))
                                      if "hahn_banach" not in p.name],
                             ids=lambda p: p.stem)
    def test_golden_smoothing_transfer_is_model_certificate(self, path) -> None:
        d = json.loads(path.read_text())
        assert d["transfer"]["sup_err"] == d["model"]["fourier_err"]["certified_upper"]

    @pytest.mark.parametrize("majorant", ["uniform", "sparse", "squares", "primes"])
    @pytest.mark.parametrize("variant", ["green", "hdr", "naslund"])
    def test_smoothing_transfer_is_model_certificate(self, variant, majorant) -> None:
        d = run_pipeline(PipelineConfig(N=300, majorant=majorant, variant=variant,
                                        eps=0.2, eta=0.2, seed=2)).data
        assert d["transfer"]["sup_err"] == d["model"]["fourier_err"]["certified_upper"]

    def test_hahn_banach_transfer_keeps_its_grid(self, monkeypatch) -> None:
        import densemodel.pipeline as pipeline_mod
        from densemodel.signals import default_grid, fourier_sup_diff

        seen = []
        original = pipeline_mod.hahn_banach_model

        def captured(f, nu, **kwargs):
            rep = original(f, nu, **kwargs)
            seen.append((f, rep))
            return rep

        monkeypatch.setattr(pipeline_mod, "hahn_banach_model", captured)
        d = run_pipeline(PipelineConfig(N=150, variant="hahn_banach", seed=7)).data
        (f, rep), = seen
        expected = fourier_sup_diff(f, rep.g, default_grid(150)).certified_upper
        assert d["transfer"]["sup_err"] == expected
        # the LP's 1024-point certificate is looser here
        assert expected < rep.fourier_err.certified_upper


class TestNoBlasCall:
    def test_smoothing_runs_at_large_n_call_no_dot(self, monkeypatch) -> None:
        # at N = 20000 an np.dot of length N wakes BLAS threads that then spin
        def refused(*args, **kwargs):
            raise AssertionError("np.dot called")

        monkeypatch.setattr(np, "dot", refused)
        for variant in ("green", "hdr", "naslund"):
            assert run_pipeline(PipelineConfig(N=20000, variant=variant, eps=0.1,
                                               eta=0.1)).ok


def _cli_in_one_gib(*argv: str) -> subprocess.CompletedProcess:
    """`densemodel argv` in a child process limited to 1 GiB of address space.

    1 GiB holds the interpreter, and keeps a run that allocates before it
    refuses from taking the machine's memory.
    """
    limit = "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))"
    code = (f"import resource, sys; {limit}; from densemodel.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    src = str(Path(densemodel.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)


class TestOversizedWindows:
    """A window past the convolution cap is refused before it is allocated."""

    def test_build_majorant_past_cap(self) -> None:
        with pytest.raises(ResourceError, match="exceeds cap"):
            build_majorant("uniform", MAX_CONV_LENGTH + 1, 2 / 3, 0)

    def test_build_majorant_whose_autocorrelation_passes_cap(self) -> None:
        # 2N - 1 = 2^24 + 1 points: diagnose and the models would refuse later
        with pytest.raises(ResourceError,
                           match="its autocorrelation has 16777217 points"):
            build_majorant("uniform", 2 ** 23 + 1, 2 / 3, 0)

    def test_cli_refuses_autocorrelation_past_cap(self) -> None:
        done = _cli_in_one_gib("majorant", "--kind", "uniform", "--N", "8388609")
        assert done.returncode == EXIT_RESOURCE, done.stderr
        assert "majorant window [1, 8388609] exceeds cap" in done.stderr

    @pytest.mark.parametrize("argv", [
        ["majorant", "--kind", "uniform", "--N", str(MAX_CONV_LENGTH + 1)],
        # the scan window [-eps N, eps N] has 2^24 + 1 points
        ["bohr", "--eps", "0.5", "--N", str(MAX_CONV_LENGTH)],
    ])
    def test_cli_exit_code_past_cap(self, argv, capsys) -> None:
        assert main(argv) == EXIT_RESOURCE
        assert "exceeds cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "densify"])
    def test_pipeline_and_densify_check_the_cap(self, monkeypatch, capsys,
                                                command) -> None:
        import densemodel.majorants as majorants_mod

        monkeypatch.setattr(majorants_mod, "MAX_CONV_LENGTH", 1000)
        assert main([command, "--N", "1001"]) == EXIT_RESOURCE
        assert "majorant window [1, 1001] exceeds cap 1000" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["majorant", "--diagnose"],
        ["densify"],
    ])
    def test_csv_majorant_past_cap_refused_before_allocating(self, argv,
                                                             tmp_path) -> None:
        # one point of mass N passes the mass check; the window [1, N] is 10^9 long
        spike = tmp_path / "spike.csv"
        spike.write_text("n,value\n1,1000000000\n")
        done = _cli_in_one_gib(*argv, "--majorant-csv", str(spike), "--N", "1000000000")
        assert done.returncode == EXIT_RESOURCE, done.stderr
        assert "majorant window [1, 1000000000] exceeds cap" in done.stderr


JSON_TYPES = (str, int, float, bool, type(None), list, dict)


def _non_json(value, path: str = "$") -> list:
    """Paths of values whose exact type is not a JSON type, and of non-str keys."""
    bad = [] if type(value) in JSON_TYPES else [f"{path}: {type(value).__name__}"]
    if type(value) is dict:
        for key, v in value.items():
            if type(key) is not str:
                bad.append(f"{path}: key {key!r}")
            bad += _non_json(v, f"{path}.{key}")
    elif type(value) is list:
        for i, v in enumerate(value):
            bad += _non_json(v, f"{path}[{i}]")
    return bad


class TestReportsAreJsonNative:
    """Report values are made JSON-native where they are computed, so that
    `canonical_json` only writes them."""

    @pytest.mark.parametrize("cfg", [
        *(PipelineConfig(N=300, variant=v, eps=0.2, eta=0.2, seed=2) for v in VARIANTS),
        PipelineConfig(N=300, variant="hdr", delta=0.0),
    ], ids=[*VARIANTS, "empty_subset"])
    def test_pipeline_report(self, cfg) -> None:
        report = run_pipeline(cfg)
        assert _non_json(report.data) == []
        assert json.loads(report.to_json()) == report.data

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_densify_output(self, variant) -> None:
        nu = build_majorant("sparse", 300, 2 / 3, 3)
        data = run_model(variant, nu.signal, nu, eps=0.25, eta=0.25, k=3, p=4.0,
                         tol=1e-6, strict=False).as_dict()
        assert _non_json(data) == []
        assert json.loads(canonical_json(data)) == data

    @pytest.mark.parametrize("argv, witness", [
        (["minimax", "--a-gens", "1,0;0,1", "--b-gens", "1,0;0,1"], None),
        (["project", "--point", "1,1", "--gens", "1,0;0,1"], True),
        (["project", "--point", "0.2,0.2", "--gens", "0,0;1,0;0,1"], False),
    ], ids=["minimax", "project_outside", "project_inside"])
    def test_cli_output(self, argv, witness, monkeypatch, capsys) -> None:
        import densemodel.cli as cli

        emitted = []
        original = cli._emit

        def recorded(data, strict):
            emitted.append(data)
            original(data, strict)

        monkeypatch.setattr(cli, "_emit", recorded)
        assert main(argv) == EXIT_OK
        (data,) = emitted
        assert _non_json(data) == []
        if witness is not None:
            assert ("witness" in data) is witness


class TestImportFootprint:
    def test_smoothing_runs_load_no_scipy(self) -> None:
        # a fresh interpreter: this process has imported scipy already
        code = (
            "import sys\n"
            "import densemodel, densemodel.cli\n"
            "from densemodel.pipeline import PipelineConfig, run_pipeline\n"
            "def scipy_modules():\n"
            "    return sorted(k for k in sys.modules if k.startswith('scipy'))\n"
            "for v in ('green', 'hdr', 'naslund'):\n"
            "    run_pipeline(PipelineConfig(N=300, variant=v, seed=1))\n"
            "print(scipy_modules())\n"
            "run_pipeline(PipelineConfig(N=100, variant='hahn_banach', seed=1))\n"
            "print(len(scipy_modules()))\n")
        src = str(Path(densemodel.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        smoothing, after_hb = done.stdout.splitlines()
        assert smoothing == "[]"
        # the Hahn-Banach LP does load scipy, so the probe can see it
        assert int(after_hb) > 0

    def test_pipeline_loads_no_cli_only_module(self) -> None:
        code = (
            "import sys\n"
            "from densemodel.pipeline import PipelineConfig, run_pipeline\n"
            "run_pipeline(PipelineConfig(N=300, variant='hdr', seed=1))\n"
            "print(' '.join(sorted(k for k in sys.modules if k.startswith('densemodel'))))\n")
        src = str(Path(densemodel.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "densemodel.pipeline" in loaded
        assert not loaded & {"densemodel.convex", "densemodel.polyapprox"}


class TestDegenerateFlags:
    def test_trivial_bohr_set_flagged(self) -> None:
        # the default config's Bohr set is {0}, so g = f and the certificate is 0
        d = run_pipeline(PipelineConfig()).data
        assert d["model"]["checks"]["bohr_size"] == 1
        assert "bohr_trivial" in d["model"]["flags"]
        assert "bohr_trivial" in d["flags"]

    def test_nontrivial_bohr_set_not_flagged(self) -> None:
        d = run_pipeline(PipelineConfig(N=500, variant="hdr", eps=0.2, eta=0.2,
                                        seed=7)).data
        assert d["model"]["checks"]["bohr_size"] == 9
        assert "bohr_trivial" not in d["flags"]


class TestCliPipelineOptions:
    def test_config_seed_kept_without_seed_flag(self, tmp_path, capsys) -> None:
        path = tmp_path / "run.cfg"
        PipelineConfig(N=200, variant="green", eps=0.2, eta=0.2, seed=7).write(path)
        assert main(["pipeline", "--config", str(path)]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["config"]["seed"] == 7
        assert data["majorant"]["metadata"]["seed"] == 7
        assert main(["pipeline", "--config", str(path), "--seed", "3"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 3

    def test_seed_defaults_to_zero(self, capsys) -> None:
        from densemodel.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["majorant"]).seed == 0
        assert parser.parse_args(["densify"]).seed == 0
        assert main(["pipeline", "--N", "200", "--variant", "green"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 0

    @pytest.mark.parametrize("command", ["majorant", "densify"])
    def test_option_defaults_are_the_config_defaults(self, command) -> None:
        # an absent --N reads the config's N, or the --majorant-csv window's end
        from densemodel.cli import _load_majorant, build_parser

        parsed = build_parser().parse_args([command])
        args = {**vars(parsed), "N": _load_majorant(parsed).N}
        cfg = PipelineConfig()
        shared = [name for name in vars(cfg) if name in args]
        assert args["kind"] == cfg.majorant
        assert {name: args[name] for name in shared} == {name: getattr(cfg, name)
                                                         for name in shared}
        if command == "densify":
            assert set(shared) == {"N", "exponent", "seed", "variant", "eps", "eta",
                                   "k", "p", "tol", "strict"}

    def test_config_strict_exits_on_a_flag(self, tmp_path, capsys) -> None:
        path = tmp_path / "strict.cfg"
        path.write_text("N = 500\nstrict = true\n")
        assert main(["pipeline", "--config", str(path)]) == EXIT_CERTIFICATION
        out, err = capsys.readouterr()
        assert "bohr_trivial" in json.loads(out)["flags"]
        assert err == "error: strict mode: flags raised: ['bohr_trivial']\n"

    def test_out_path_stays_out_of_report(self, tmp_path, capsys) -> None:
        outs = [tmp_path / "a.json", tmp_path / "sub-b.json"]
        printed = []
        for out in outs:
            assert main(["pipeline", "--N", "200", "--variant", "green",
                         "--out", str(out)]) == EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert "output" not in json.loads(printed[0])["config"]
        assert [o.read_text() for o in outs] == printed
