"""The report-digest tool's run matrix stays valid for the CLI."""

import importlib.util
from pathlib import Path

from eventweave import cli

REPO = Path(__file__).resolve().parents[1]


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digest_matrix_parses_and_writes_no_files():
    matrix = _load_tool("report_digests").MATRIX
    assert len({tuple(argv) for argv in matrix}) == len(matrix) == 50
    parser = cli.build_parser()
    for argv in matrix:
        args = parser.parse_args(argv)
        assert args.out is None
        if args.command == "simulate":
            assert (REPO / args.scenario).is_file()
