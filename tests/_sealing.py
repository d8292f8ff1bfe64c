"""Edit a sealed artifact file and seal it again, so that the edit reaches the
parser instead of stopping at the seal check."""

import hashlib


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
