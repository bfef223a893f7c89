"""One set-up in a fresh interpreter: import ``ultralift.cli`` and run the
warm-up requests read as a JSON list of argv lists from stdin.

The parent times this process from start to exit (``setup_s``), so it does
only what a one-shot CLI user pays for before the first real answer.
"""

import contextlib
import io
import json
import sys

import harness


def main() -> int:
    argvs = json.loads(sys.stdin.read())
    cli = harness.import_cli()
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except Exception:  # the timed run counts this request's failure
                pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
