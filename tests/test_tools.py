"""Package-wide checks: the report-digest matrix, its recorded digests, the
package's exports, and what its public functions serve."""

import ast
import importlib.util
import os
import platform
import subprocess
import sys
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
    assert len({tuple(argv) for argv in matrix}) == len(matrix) == 58
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


def test_digest_header_names_the_blas_kernel():
    """Forcing another OpenBLAS kernel changes the header, so the digest
    check above skips on it instead of reporting moved reports."""
    tool = _load_tool("report_digests")
    running = tool.build_fingerprint()[-1]
    if running == "# blas unknown" or platform.machine() != "x86_64":
        pytest.skip(f"no OpenBLAS kernel to force here ({running})")
    # Nehalem needs only SSE4.2, which numpy's x86-64 baseline already requires
    other = "Sandybridge" if running == "# blas Nehalem" else "Nehalem"
    script = ("import runpy, sys; "
              "print(*runpy.run_path(sys.argv[1])['build_fingerprint'](), sep='\\n')")
    forced = subprocess.run(
        [sys.executable, "-c", script, str(REPO / "tools" / "report_digests.py")],
        env={**os.environ, "OPENBLAS_CORETYPE": other},
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert forced[-1] == f"# blas {other}"
    assert forced[:-1] == tool.build_fingerprint()[:-1]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_reports_off_blas_match_the_recorded_digests_under_haswell(threads):
    """Only the ``cells`` reports reduce through BLAS (``np.correlate``), so
    under a forced Haswell kernel, at one thread or two, every other report
    keeps its recorded digest."""
    if platform.machine() != "x86_64":
        pytest.skip(f"no OpenBLAS Haswell kernel on {platform.machine()}")
    lines = (REPO / "tools" / "report_digests.txt").read_text().splitlines()
    run = subprocess.run(
        [sys.executable, str(REPO / "tools" / "report_digests.py")],
        env={**os.environ, "PYTHONPATH": str(REPO / "src"),
             "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": threads},
        capture_output=True, text=True, cwd=REPO,
    )
    forced = run.stdout.splitlines()
    header = [ln for ln in forced if ln.startswith("#")]
    assert header, run.stderr
    if header[-1:] != ["# blas Haswell"]:
        pytest.skip(f"OpenBLAS did not load its Haswell kernel ({header[-1:]})")
    if header[:-1] != [ln for ln in lines if ln.startswith("#")][:-1]:
        pytest.skip(f"digests recorded on another numpy build or CPU than {header[:-1]}")
    recorded, got = ([ln.split("  ", 1) for ln in out if not ln.startswith("#")]
                     for out in (lines, forced))
    assert [argv for _, argv in got] == [argv for _, argv in recorded]
    moved = [argv for (digest, argv), (want, _) in zip(got, recorded)
             if digest != want and not argv.startswith("cells ")]
    assert not moved, f"{len(moved)} report(s) off BLAS moved under Haswell: {moved}"


def test_every_exported_name_resolves():
    assert [name for name in eventweave.__all__ if not hasattr(eventweave, name)] == []


#: public functions that nothing in the package or the benchmark calls,
#: kept because the acceptance criterion named here tests them as claims
ACCEPTANCE_ONLY = {
    "dynamics.joint_probability": 7,
    "epr.chsh_optimal_directions": 2,
    "thermal.proton_model": 4,
    "cells.branch_weights": 5,
    "cells.cell_decompose": 5,
    "cells.integrate_over_box": 5,
}


def _read(tree: ast.AST, kinds) -> set[str]:
    """Names the code reads through nodes of ``kinds``: an ``ast.Name``
    gives its id, an ``ast.Attribute`` its attribute name.  Assignments,
    strings and docstrings do not count."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, kinds) and isinstance(node.ctx, ast.Load)}


def _referenced(tree: ast.AST) -> set[str]:
    return _read(tree, (ast.Name, ast.Attribute))


def _fields(cls: ast.ClassDef) -> list[str]:
    """Fields of ``cls``: its class-body annotations (a dataclass's fields),
    the ``self.x`` stores of its ``__init__``, one per target of a tuple
    store ``self.a, self.b = ...``, and the names it sets with
    ``object.__setattr__(self, "x", ...)``."""
    inits = [item for item in cls.body
             if isinstance(item, ast.FunctionDef) and item.name == "__init__"]
    names = [item.target.id for item in cls.body
             if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    names += [node.attr for init in inits for node in ast.walk(init)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"]
    names += [node.args[1].value for node in ast.walk(cls)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
              and len(node.args) == 3 and ast.unparse(node.args[0]) == "self"
              and isinstance(node.args[1], ast.Constant)]
    return list(dict.fromkeys(names))


def _public_members(module: str, tree: ast.Module) -> list[str]:
    """``module.name`` of each public module-level function and constant,
    and ``module.Class.name`` of each public method, property and field of a
    public class."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            members = [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
            names += [f"{node.name}.{name}" for name in members + _fields(node)]
    return [f"{module}.{name}" for name in names
            if not name.rsplit(".", 1)[-1].startswith("_")]


def _unread(package: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """The public members of the ``package`` modules that no code in
    ``readers`` reads.  Class members count only where they are read as
    attributes."""
    referenced = set().union(*map(_referenced, readers))
    attributes = set().union(*(_read(tree, ast.Attribute) for tree in readers))
    public = [name for module, tree in package.items()
              for name in _public_members(module, tree)]
    return [name for name in public if name.split(".")[-1] not in
            (attributes if name.count(".") == 2 else referenced)]


def test_every_public_function_serves_the_program_or_an_acceptance_claim():
    """Each public module-level function and constant of the package, and
    each public method, property and field of its public classes, is read
    in the package or the benchmark, or is on :data:`ACCEPTANCE_ONLY`; what
    only the tests read belongs in ``tests/``.

    Class members count only where they are read as attributes, since
    ``cells`` has a local variable named ``widths``; a field's own stores
    are no reads.  The match is by name, so a member passes when another
    member of that name is read: a field that only the tests read would
    pass while a method of the same name has a caller."""
    package = {path.stem: ast.parse(path.read_text())
               for path in sorted((REPO / "src" / "eventweave").glob("*.py"))
               if path.name != "__init__.py"}
    bench = [ast.parse(path.read_text()) for path in sorted((REPO / "bench").glob("*.py"))]
    unused = _unread(package, [*package.values(), *bench])
    stray = sorted(set(unused) - ACCEPTANCE_ONLY.keys())
    assert not stray, f"only the tests read {stray}; move them to tests/"
    acceptance = ast.parse((REPO / "tests" / "test_acceptance.py").read_text())
    for name, number in ACCEPTANCE_ONLY.items():
        assert name in unused, f"{name} has a caller; drop it from ACCEPTANCE_ONLY"
        (test,) = [node for node in acceptance.body if isinstance(node, ast.FunctionDef)
                   and node.name.startswith(f"test_criterion_{number}_")]
        assert name.split(".")[-1] in _referenced(test), (name, test.name)


#: one class per form of field the guard collects; ``_use`` reads the
#: fields named in ``{reads}``
FIELD_SOURCE = '''
from dataclasses import dataclass

@dataclass
class Point:
    x: float

class Pair:
    def __init__(self, a, b):
        self.left, self.right = a, b
        object.__setattr__(self, "tag", None)

def _use(point, pair):
    return {reads}
'''


@pytest.mark.parametrize("unread", ["x", "left", "right", "tag"])
def test_the_guard_reports_exactly_the_field_nothing_reads(unread):
    fields = {"x": "point.x", "left": "pair.left", "right": "pair.right", "tag": "pair.tag"}
    reads = " + ".join(read for field, read in fields.items() if field != unread)
    tree = ast.parse(FIELD_SOURCE.format(reads=reads))
    owner = "Point" if unread == "x" else "Pair"
    assert _unread({"mod": tree}, [tree]) == [f"mod.{owner}.{unread}"]
