"""Golden reports: fixed pipeline configs and CLI calls whose bytes must not move.

Each case's output is compared byte for byte with its file under
`tests/golden/`.  A CLI case that reads a majorant CSV first writes it with
`majorant --out` into a temporary directory.  A change that is meant to move
report bytes regenerates the files and says why; any other change must leave
them as they are.  To write the files from the current sources:

    PYTHONPATH=src python tests/test_golden.py --write

To list, before writing, each JSON value the current sources would move
(`file: path: old -> new`, with the relative change of each moved float and
the largest of them; lists are compared index by index, a missing entry
reading "<absent>"), then one line per JSON path with list indices collapsed
(`path[]`), giving the number of files it moved in and its largest relative
change; exits 1 if any value moves:

    PYTHONPATH=src python tests/test_golden.py --diff
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import pytest

from densemodel.cli import main
from densemodel.pipeline import PipelineConfig, run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden"

PIPELINE_CASES = {
    "pipeline_green_sparse_N500": dict(N=500, variant="green", eps=0.2, eta=0.2, seed=7),
    "pipeline_hdr_sparse_N500": dict(N=500, variant="hdr", eps=0.2, eta=0.2, seed=7),
    "pipeline_naslund_sparse_N500": dict(N=500, variant="naslund", seed=7),
    "pipeline_green_sparse_N2000": dict(N=2000, variant="green", eps=0.3, eta=0.3, seed=1),
    "pipeline_hdr_sparse_N2000": dict(N=2000, variant="hdr", eps=0.3, eta=0.3, seed=1),
    "pipeline_naslund_sparse_N2000": dict(N=2000, variant="naslund", seed=1),
    "pipeline_hdr_primes_N1000": dict(N=1000, majorant="primes", variant="hdr", eps=0.3),
    "pipeline_green_squares_N1000": dict(N=1000, majorant="squares", variant="green",
                                         eps=0.3, eta=0.3),
    "pipeline_hahn_banach_sparse_N300": dict(N=300, variant="hahn_banach", seed=7),
    # N > 1024: the HB LP folds g into residue classes of its grid
    "pipeline_hahn_banach_sparse_N2000": dict(N=2000, variant="hahn_banach", seed=7),
    "pipeline_hdr_uniform_random_N500": dict(N=500, majorant="uniform", selection="random",
                                             variant="hdr", eps=0.2, eta=0.2, seed=7),
}

# In a CLI case's argv, CSV stands for a file that CSV_ARGV writes first.
CSV = "<majorant.csv>"
CSV_ARGV = ["majorant", "--kind", "primes", "--N", "300", "--out", CSV]
DENSIFY_ARGV = ["densify", "--kind", "sparse", "--N", "300", "--seed", "3",
                "--eps", "0.25", "--eta", "0.25", "--variant"]
DENSIFY_CASES = {f"densify_{v}_sparse_N300": DENSIFY_ARGV + [v]
                 for v in ("green", "hdr", "naslund", "hahn_banach")}
DENSIFY_CASES["densify_hdr_primes_csv_N300"] = ["densify", "--majorant-csv", CSV,
                                                "--N", "300", "--eps", "0.25",
                                                "--variant", "hdr"]
MAJORANT_CASES = {f"majorant_{kind}_N500": ["majorant", "--kind", kind, "--N", "500",
                                            "--seed", "3", "--diagnose"]
                  for kind in ("uniform", "sparse", "squares", "primes")}
CLI_CASES = {**DENSIFY_CASES, **MAJORANT_CASES}


def _pipeline_bytes(name: str) -> str:
    return run_pipeline(PipelineConfig(**PIPELINE_CASES[name])).to_json()


def _run_cli(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def _cli_bytes(name: str) -> str:
    argv = CLI_CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "majorant.csv")
        if CSV in argv:
            _run_cli([path if a == CSV else a for a in CSV_ARGV])
        return _run_cli([path if a == CSV else a for a in argv])


def _expected(name: str) -> str:
    return (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(PIPELINE_CASES))
def test_pipeline_report_matches_golden(name) -> None:
    assert _pipeline_bytes(name) == _expected(name)


@pytest.mark.parametrize("name", sorted(DENSIFY_CASES))
def test_densify_output_matches_golden(name) -> None:
    assert _cli_bytes(name) == _expected(name)


@pytest.mark.parametrize("name", sorted(MAJORANT_CASES))
def test_majorant_output_matches_golden(name) -> None:
    assert _cli_bytes(name) == _expected(name)


def test_golden_files_are_strict_json() -> None:
    # RFC 8259 JSON has no NaN or Infinity, which json.dumps would write
    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    files = sorted(GOLDEN.glob("*.json"))
    assert len(files) == len(PIPELINE_CASES) + len(CLI_CASES)
    for path in files:
        json.loads(path.read_text(), parse_constant=refuse)


_ABSENT = "<absent>"


def json_diff(old, new, path: str = "") -> list[tuple]:
    """(path, old, new) for every leaf where two parsed JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [move for key in {**old, **new}
                for move in json_diff(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                      f"{path}.{key}" if path else key)]
    if isinstance(old, list) and isinstance(new, list):
        # the shorter list reads <absent> past its end, so an entry added or
        # removed at the tail is one path, not both whole lists
        return [move for i, (a, b) in enumerate(zip_longest(old, new, fillvalue=_ABSENT))
                for move in json_diff(a, b, f"{path}[{i}]")]
    if old == new and type(old) is type(new):
        return []
    return [(path, old, new)]


def test_json_diff_pads_a_shorter_list() -> None:
    old = {"claims": [{"name": "a"}, {"name": "b", "value": 1.0}]}
    assert json_diff(old, {"claims": [{"name": "a"}]}) == [
        ("claims[1]", {"name": "b", "value": 1.0}, _ABSENT)]
    assert json_diff({"xs": [1]}, {"xs": [1, 2]}) == [("xs[1]", _ABSENT, 2)]


def relative_change(old, new) -> float | None:
    """|new - old| / |old| when both are floats, else None (inf when old is 0)."""
    if not (isinstance(old, float) and isinstance(new, float)):
        return None
    return abs(new - old) / abs(old) if old else float("inf")


def field_summary(moves_by_file: dict) -> list[str]:
    """Per JSON path, indices collapsed: the files it moved in, its largest change."""
    files, largest = {}, {}
    for case, moves in moves_by_file.items():
        for path, old, new in moves:
            key = re.sub(r"\[\d+\]", "[]", path)
            files.setdefault(key, set()).add(case)
            rel = relative_change(old, new)
            if rel is not None:
                largest[key] = max(rel, largest.get(key, rel))
    return [f"{key}: moved in {len(files[key])} file(s)"
            + (f", largest relative change {largest[key]:.3g}" if key in largest else "")
            for key in sorted(files)]


def _current_outputs() -> dict:
    outputs = {case: _pipeline_bytes(case) for case in sorted(PIPELINE_CASES)}
    outputs.update({case: _cli_bytes(case) for case in sorted(CLI_CASES)})
    return outputs


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.mkdir(exist_ok=True)
        for case, text in _current_outputs().items():
            (GOLDEN / f"{case}.json").write_text(text)
    elif sys.argv[1:] == ["--diff"]:
        moved = False
        largest = None  # (relative change, where)
        moves_by_file = {}
        for case, text in _current_outputs().items():
            moves = json_diff(json.loads(_expected(case)), json.loads(text))
            moves_by_file[case] = moves
            if not moves and text != _expected(case):
                print(f"{case}.json: values equal, bytes differ (key order or layout)")
                moved = True
            for path, old, new in moves:
                rel = relative_change(old, new)
                line = f"{case}.json: {path}: {json.dumps(old)} -> {json.dumps(new)}"
                if rel is not None:
                    line += f"  (relative {rel:.3g})"
                    if largest is None or rel > largest[0]:
                        largest = (rel, f"{case}.json: {path}")
                print(line)
                moved = True
        if largest is not None:
            print(f"largest relative change of a float: {largest[0]:.3g} at {largest[1]}")
        for line in field_summary(moves_by_file):
            print(line)
        sys.exit(1 if moved else 0)
    else:
        sys.exit("usage: python tests/test_golden.py --write | --diff")
