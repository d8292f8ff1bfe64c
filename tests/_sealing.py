"""Edit a sealed artifact file and seal it again, so that the edit reaches the
parser instead of stopping at the seal check; and edits of fit.txt text that
drop a center or a concept, or swap two concepts' records."""

import hashlib
import re


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
