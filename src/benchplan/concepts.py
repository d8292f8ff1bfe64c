"""Synthetic disentangled concept tokens.

Stands in for a trained perception front-end: each (concept, value) pair owns
a fixed random centroid, and encoding a state returns the six centroids plus
optional Gaussian noise. Disentanglement holds by construction — changing one
ground-truth value moves exactly one token — and noise_sigma dials in how
imperfect the "perception" is.

Token layout convention: a token set is an ndarray of shape (6, dim), row k
being the token of CONCEPTS[k].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import streams
from .workbench import CONCEPTS, DEFAULT_CARDINALITIES, TYPE, ObjectState

DEFAULT_DIM = 8
DEFAULT_MIN_SEP = 1.0
# the rule of a noise sigma, and of min_sep; NaN and inf fail its one comparison
SIGMA = streams.Bound(float, "finite and >= 0", lambda v: 0 <= v < np.inf)


class UnknownValue(Exception):
    """A state value has no centroid in the codebook."""


class SeparationUnachievable(ValueError):
    """Rejection sampling could not place centroids min_sep apart."""


@dataclass(frozen=True)
class ConceptCodebook:
    """Per-concept centroid tables mu[k][v], all pairs within a concept >= min_sep apart."""

    dim: int
    seed: int
    min_sep: float
    centroids: tuple[np.ndarray, ...]  # per concept: (cardinality, dim)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.centroids)

    @cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:  # tables as one; starts; sizes
        cards = np.array(self.cardinalities)
        return np.concatenate(self.centroids), np.cumsum(cards) - cards, cards


def _draw_separated(rng: np.random.Generator, count: int, dim: int, min_sep: float,
                    existing: np.ndarray | None = None) -> np.ndarray:
    """`count` standard normal rows after `existing`'s, each redrawn until it lies min_sep
    or more from every earlier row, by one batched product that rounds as `np.linalg.norm`."""
    start = 0 if existing is None else len(existing)
    rows = np.empty((start + count, dim))
    if start:
        rows[:start] = existing
    for n in range(start, start + count):
        for _ in range(1000):  # rejection draws per centroid before giving up
            cand = rng.standard_normal(dim)
            diffs = cand - rows[:n]
            if (np.sqrt(diffs[:, None] @ diffs[..., None]) >= min_sep).all():
                rows[n] = cand
                break
        else:
            raise SeparationUnachievable(f"could not place centroid {n} at min_sep={min_sep}")
    return rows[start:]


def build_codebook(dim: int = DEFAULT_DIM, seed: int = 0,
                   min_sep: float = DEFAULT_MIN_SEP) -> ConceptCodebook:
    """Draw all centroids from a standard normal, deterministic under seed."""
    rng = streams.rng(seed, "codebook")
    tables = tuple(_draw_separated(rng, card, dim, min_sep)
                   for card in DEFAULT_CARDINALITIES)
    return ConceptCodebook(dim=dim, seed=seed, min_sep=min_sep, centroids=tables)


def extend_codebook(codebook: ConceptCodebook, new_values: int) -> ConceptCodebook:
    """Append centroids for unseen object types; existing rows stay bit-identical.

    Only the type concept is extendable — the other value spaces are closed.
    """
    if new_values <= 0:
        raise ValueError("new_values must be positive")
    existing = codebook.centroids[TYPE]
    rng = streams.rng(codebook.seed, "codebook_extend", len(existing))
    added = _draw_separated(rng, new_values, codebook.dim, codebook.min_sep,
                            existing=existing)
    tables = list(codebook.centroids)
    tables[TYPE] = np.vstack([existing, added])
    return ConceptCodebook(dim=codebook.dim, seed=codebook.seed,
                           min_sep=codebook.min_sep, centroids=tuple(tables))


def encode_values(values, codebook: ConceptCodebook, noise_sigma: float = 0.0,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Tokens of concept-value rows, as `ObjectState.values()` gives them, (n, 6, dim):
    mu[k][value_k] by one gather, plus iid N(0, noise_sigma^2) noise drawn at once in
    C order, so rng is read as by one draw per row in turn."""
    SIGMA.check("noise_sigma", noise_sigma)
    if noise_sigma > 0 and rng is None:
        raise ValueError("noisy encoding needs a caller-provided rng")
    table, starts, cards = codebook.stacked
    array = np.asarray(values).reshape(-1, len(CONCEPTS))  # no rows: floats; past int64: objects
    if (quotients := array // cards).any():  # 0 exactly where 0 <= value < cardinality
        n, k = divmod(int(np.flatnonzero(quotients)[0]), len(CONCEPTS))  # row-major order
        raise UnknownValue(f"{CONCEPTS[k]} value {values[n][k]} outside codebook "
                           f"(cardinality {cards[k]})")
    tokens = table.take((array + starts).astype(np.intp, copy=False), axis=0)
    return tokens + rng.normal(0.0, noise_sigma, tokens.shape) if noise_sigma > 0 else tokens


def encode(state: ObjectState, codebook: ConceptCodebook, noise_sigma: float = 0.0,
           rng: np.random.Generator | None = None) -> np.ndarray:
    """Tokens for one state, shape (6, dim): `encode_values` of its one row."""
    return encode_values([state.values()], codebook, noise_sigma, rng)[0]
