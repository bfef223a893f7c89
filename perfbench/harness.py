"""Locating the program under test and running one request in-process."""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class NoProgram(RuntimeError):
    """The checkout holds no ``src/ultralift`` to benchmark."""


def import_cli():
    """Import ``ultralift.cli`` from this checkout's ``src``, never from an
    installed copy elsewhere."""
    if not (SRC / "ultralift" / "cli.py").is_file():
        raise NoProgram(f"no ultralift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from ultralift import cli
    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        raise NoProgram(f"ultralift imported from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv):
    """Run ``cli.main(argv)`` once: (exit code or None, stdout, escaped
    exception class name or None, seconds)."""
    out = io.StringIO()
    exc_name = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits; counted as escaping main
            exc_name = f"SystemExit({exc.code})"
        except Exception as exc:  # any escape is a failure of this request
            exc_name = type(exc).__name__
        dt = time.perf_counter() - t0
    return code, out.getvalue(), exc_name, dt
