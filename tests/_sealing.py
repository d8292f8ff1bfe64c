"""Edit a sealed artifact file and seal it again, so that the edit reaches the
parser instead of stopping at the seal check; edits of fit.txt text that drop
a center or a concept, or swap two concepts' records; and drawn edits of the
key=value fields and action keys of either file's lines."""

import hashlib
import re

from hypothesis import strategies as st

FIELD_EDITS = ("rename", "drop-field", "stray-word", "bad-key")
# an action key in a count row, a map record or a gt plan, and keys that
# `action_key` never gives
ACTION_KEY = re.compile(r"\b(?:move|rotate|change)_[a-z]+(?:@\d)?\b")
BAD_KEYS = st.sampled_from(["move_jump", "move_front@3", "change_color@9"])


def edit_sealed(path, edit):
    """Apply `edit` to the text above the file's `sha256=` line, then write the
    edited text with a new seal line."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    body = text[:text.rindex("sha256=")]
    edited = edit(body)
    assert edited != body, "the edit changed nothing"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edited + f"sha256={hashlib.sha256(edited.encode()).hexdigest()}\n")


def _record_at(lines, k):
    return next(i for i, line in enumerate(lines) if line.startswith(f"concept={k} "))


def drop_center(k, j):
    """An edit of fit.txt text: concept k loses its center j, and the count rows
    that name that symbol."""
    def edit(text):
        lines = text.splitlines(True)
        del lines[_record_at(lines, k) + 1 + j]
        return "".join(line for line in lines
                       if not re.match(rf"n \S+ {k} ({j} \d+|\d+ {j}) ", line))
    return edit


def drop_last_concept(text):
    """An edit of fit.txt text: the last concept, 5, loses its record, its
    centers, its purity value and its count rows."""
    lines = text.splitlines(True)
    del lines[_record_at(lines, 5):lines.index("model=counts\n")]
    lines[1] = lines[1].rsplit(",", 1)[0] + "\n"  # purity=...
    return "".join(line for line in lines if not re.match(r"n \S+ 5 ", line))


def swap_concepts(a, b):
    """An edit of fit.txt text: concepts a < b trade their whole records, each
    record line with its `c` rows, so that every record keeps its own key."""
    def edit(text):
        lines = text.splitlines(True)
        ends = [*(_record_at(lines, k) for k in range(6)), lines.index("model=counts\n")]
        first, second = lines[ends[a]:ends[a + 1]], lines[ends[b]:ends[b + 1]]
        lines[ends[b]:ends[b + 1]] = first  # the later slice first: a's indices hold
        lines[ends[a]:ends[a + 1]] = second
        return "".join(lines)
    return edit


def edit_field(line, kind, draw):
    """One drawn edit `kind` (of FIELD_EDITS) of a line: rename the key of a
    key=value word (`seed=` to `seed_=`), drop such a word, add a stray word, or
    replace an action key with a key `action_key` never gives. A line with
    nothing to edit comes back as it is."""
    if kind == "bad-key":
        keys = list(ACTION_KEY.finditer(line))
        if not keys:
            return line
        m = draw(st.sampled_from(keys))
        return line[:m.start()] + draw(BAD_KEYS) + line[m.end():]
    words = line.rstrip("\n").split(" ")
    if kind == "stray-word":
        words.insert(draw(st.integers(0, len(words))), "stray")
        return " ".join(words) + "\n"
    fields = [i for i, word in enumerate(words) if "=" in word]
    if not fields:
        return line
    i = draw(st.sampled_from(fields))
    if kind == "rename":
        words[i] = words[i].replace("=", "_=", 1)
    else:
        del words[i]
    return " ".join(words) + "\n"
