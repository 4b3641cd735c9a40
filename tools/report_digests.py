"""Print one sha256 digest per report over a fixed matrix of CLI runs.

Each argv in :data:`MATRIX` runs through ``eventweave.cli.main`` in this
process with stdout captured.  No run passes ``--out`` and the scenario path
is relative to the repository root, so each report's ``config`` is the same
in any checkout.  The ``"duration_s"`` line is dropped before hashing, and
one ``sha256  argv`` line is printed per report (``exit N  argv`` for a run
that fails), after ``#`` header lines that fingerprint the numpy build.
Two source trees compare by diffing the printouts:

    PYTHONPATH=src python3 tools/report_digests.py > new.txt
    PYTHONPATH=/path/to/other/src python3 tools/report_digests.py > old.txt
    diff old.txt new.txt

The repository's own ``src/`` is used only when ``PYTHONPATH`` names none.
The printout for the committed tree is kept in ``report_digests.txt``, which
``tests/test_tools.py`` checks; a change that moves a report re-records it
with ``PYTHONPATH=src python3 tools/report_digests.py > tools/report_digests.txt``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import os
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

FORMATS = ("json", "csv")

MATRIX: list[list[str]] = [
    *(["simulate", "scenarios/figure.json", "--seed", str(seed),
       "--replicas", str(replicas), "--format", fmt]
      for seed in range(4) for replicas in (1, 3) for fmt in FORMATS),
    *(["simulate", "scenarios/three_stage.json", "--seed", str(seed),
       "--replicas", "2", "--format", fmt]
      for seed in range(2) for fmt in FORMATS),
    ["simulate", "scenarios/three_stage.json", "--runs", "1100000", "--seed", "2",
     "--format", "csv"],
    ["simulate", "scenarios/pairs24.json", "--seed", "0", "--format", "json"],
    *(["epr", "--theta", theta, "--replicas", str(replicas), "--format", fmt]
      for theta in ("0", "37.5", "90", "180") for replicas in (1, 4) for fmt in FORMATS),
    ["epr", "--runs", "2500000", "--format", "json"],
    ["epr", "--theta", "37.5", "--runs", "1100000", "--replicas", "2", "--format", "json"],
    *(["chsh", *extra, "--format", fmt]
      for extra in ([], ["--a", "10", "--ap", "80", "--b", "33", "--bp", "100"])
      for fmt in FORMATS),
    *(["thermal-ambiguity", *extra, "--format", fmt]
      for extra in ([], ["--sites", "1024"]) for fmt in FORMATS),
    *(["cells", *extra, "--format", fmt]
      for extra in ([], ["--sites", "2048"]) for fmt in FORMATS),
    ["cells", "--sites", "1024", "--cell-width", "0.1,0.05,0.02"],
    ["cells", "--sites", "1024", "--box", "0.7", "--cells", "8,16,32"],
    ["thermal-ambiguity", "--sites", "128", "--beta", "2", "--mass", "1",
     "--hbar", "1", "--box", "30"],
    ["thermal-ambiguity", "--sites", "128", "--beta", "2", "--mass", "1",
     "--hbar", "1", "--format", "json"],
    ["thermal-ambiguity", "--sites", "65536", "--format", "json"],
    ["cells", "--sites", "8192", "--format", "json"],
]


def build_fingerprint() -> list[str]:
    """``#`` lines naming what report bits depend on besides the source.

    ``np.exp`` and the FFTs have per-SIMD code paths, so reports are
    bit-identical only within one numpy build on one set of CPU features.
    The ``cells`` reports also reduce through BLAS (``np.correlate``), whose
    kernel OpenBLAS picks at load time and ``OPENBLAS_CORETYPE`` overrides;
    numpy's bundled OpenBLAS names it, and a build without that symbol prints
    ``unknown``.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    corename = getattr(ctypes.CDLL(umath.__file__), "scipy_openblas_get_corename64_", None)
    if corename is None:
        blas = "unknown"
    else:
        corename.restype = ctypes.c_char_p
        blas = corename().decode()
    return [f"# numpy {np.__version__}", f"# machine {platform.machine()}",
            f"# simd {' '.join(simd)}", f"# blas {blas}"]


def report_digest(cli, argv: list[str]) -> str:
    """sha256 of the report ``argv`` writes, without its duration line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        return f"exit {code}"
    lines = out.getvalue().splitlines(keepends=True)
    kept = "".join(ln for ln in lines if not ln.lstrip().startswith('"duration_s":'))
    return hashlib.sha256(kept.encode()).hexdigest()


def main() -> int:
    sys.path.append(str(ROOT / "src"))
    from eventweave import cli

    os.chdir(ROOT)
    print(*build_fingerprint(), sep="\n")
    failed = False
    for argv in MATRIX:
        digest = report_digest(cli, argv)
        failed |= digest.startswith("exit")
        print(f"{digest}  {' '.join(argv)}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
