"""Run the command line in process and check the exit contract every command
keeps: a code in {0, 1, 2, 3}, no traceback, and on exits 1 and 2 exactly one
line on stderr, an `error:` line."""

import contextlib
import io

from benchplan import cli


def run_cli(argv) -> tuple[int, str]:
    """`cli.main(argv)` with its output captured: its exit code and its stderr,
    once both keep the contract. An exception that escapes `main` fails the
    caller as it is."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    text = err.getvalue()
    assert code in (0, 1, 2, 3) and "Traceback" not in text, (argv, code, text)
    if code in (1, 2):
        assert text.startswith("error: ") and text.count("\n") == 1, (argv, text)
    return code, text
