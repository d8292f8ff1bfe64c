"""Disentanglement metrics over concept tokens, used only by the tests.

A token set is an ndarray of shape (6, dim), row k being the token of
CONCEPTS[k] (see `benchplan.concepts`).
"""

import numpy as np


def changed_concept_index(a: np.ndarray, b: np.ndarray) -> int:
    """Index of the concept whose token moved the most (l2); ties -> lowest index."""
    if a.shape != b.shape:
        raise ValueError(f"token shape mismatch: {a.shape} vs {b.shape}")
    return int(np.argmax(np.linalg.norm(a - b, axis=1)))


def disentanglement_score(
        pairs: list[tuple[np.ndarray, np.ndarray, int]]) -> float:
    """Fraction of (tokens, tokens, true index) pairs identified correctly."""
    if not pairs:
        raise ValueError("need at least one pair")
    hits = sum(1 for a, b, truth in pairs if changed_concept_index(a, b) == truth)
    return hits / len(pairs)
