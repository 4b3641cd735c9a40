"""Package-wide checks: the report-digest matrix, its recorded digests, and
the package's exports."""

import importlib.util
from pathlib import Path

import pytest

import eventweave
from eventweave import cli

REPO = Path(__file__).resolve().parents[1]


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digest_matrix_parses_and_writes_no_files():
    matrix = _load_tool("report_digests").MATRIX
    assert len({tuple(argv) for argv in matrix}) == len(matrix) == 54
    parser = cli.build_parser()
    for argv in matrix:
        args = parser.parse_args(argv)
        assert args.out is None
        if args.command == "simulate":
            assert (REPO / args.scenario).is_file()


def test_reports_match_the_recorded_digests(monkeypatch):
    tool = _load_tool("report_digests")
    lines = (REPO / "tools" / "report_digests.txt").read_text().splitlines()
    recorded_build = [ln for ln in lines if ln.startswith("#")]
    running_build = tool.build_fingerprint()
    if recorded_build != running_build:
        pytest.skip("report bits compare only within one numpy build and CPU: "
                    f"digests recorded on {recorded_build}, running {running_build}")
    recorded = [ln.split("  ", 1) for ln in lines if not ln.startswith("#")]
    assert [argv for _, argv in recorded] == [" ".join(argv) for argv in tool.MATRIX]
    monkeypatch.chdir(REPO)
    moved = [
        " ".join(argv)
        for argv, (digest, _) in zip(tool.MATRIX, recorded)
        if tool.report_digest(cli, argv) != digest
    ]
    assert not moved, f"{len(moved)} report(s) moved: {moved}"


def test_every_exported_name_resolves():
    assert [name for name in eventweave.__all__ if not hasattr(eventweave, name)] == []
