"""Run the command line in process and check the exit contract every command
keeps: a code in {0, 1, 2, 3}, no traceback and no text of Python's own
errors, and on exits 1 and 2 exactly one line on stderr, an `error:` line."""

import contextlib
import io

from benchplan import cli

# texts that Python or numpy word, never a refusal of ours: a traceback, a bare
# KeyError or IndexError, a failed tuple unpacking, numpy's ragged-array error,
# `tuple.index`'s miss and numpy's floating-point warnings ("RuntimeWarning:
# overflow encountered in square")
PYTHON_TEXTS = ("Traceback", "KeyError", "IndexError", "values to unpack", "inhomogeneous",
                "not in tuple", "RuntimeWarning", "encountered in")


def assert_own_message(text: str, context=None):
    """`text` shows none of `PYTHON_TEXTS`."""
    assert not any(python in text for python in PYTHON_TEXTS), (context, text)


def run_cli(argv) -> tuple[int, str]:
    """`cli.main(argv)` with its output captured: its exit code and its stderr,
    once both keep the contract. An exception that escapes `main` fails the
    caller as it is."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    text = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, text)
    assert_own_message(text, argv)
    if code in (1, 2):
        assert text.startswith("error: ") and text.count("\n") == 1, (argv, text)
    return code, text
