"""Only `mdp` parses an action key: every other module goes through its helpers."""

import pathlib
import re

import benchplan

SPLIT_ON_AT = re.compile(r"""\.r?(partition|split)\(\s*["']@["']""")
SOURCES = pathlib.Path(benchplan.__file__).parent


def test_only_mdp_splits_a_key_on_at():
    assert SPLIT_ON_AT.search((SOURCES / "mdp.py").read_text())
    splitters = sorted(path.name for path in SOURCES.glob("*.py")
                       if SPLIT_ON_AT.search(path.read_text()))
    assert splitters == ["mdp.py"]
