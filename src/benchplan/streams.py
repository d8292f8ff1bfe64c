"""Every random generator the library draws from, one stream per use.

A stream's generators are keyed `[seed, tag, *index]`, and `STREAMS`, the tag
table, gives each stream a tag of its own and a fixed number of index values.
numpy's SeedSequence ignores trailing zeros (`[5, 0]`, `[5, 0, 0]` and `[5]`
draw alike), so no key may be another with zeros appended: keys of two streams
differ at position 1, and the keys of one stream have one length. numpy splits
an int of 2**32 or more into 32-bit words, which would shift the tag, so the
seed and each index value must keep `SEED`, the library's one seed rule.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np


class Bound(namedtuple("Bound", "kind rule ok")):  # an input's one rule: type, text, check
    def check(self, name: str, value):  # `value`, or a ValueError that names `name`
        if not self.ok(value):
            raise ValueError(f"{name} must be {self.rule}, got {value}")
        return value


SEED_BOUND = 2**32
SEED = Bound(int, f"in 0..{SEED_BOUND - 1}", lambda v: 0 <= v < SEED_BOUND)


Stream = namedtuple("Stream", "tag index_len")


# the tag table; a new tag value changes every draw of its stream, and with it
# the pinned datasets, fits or results. Each caller names its stream's seed.
STREAMS = {
    "codebook": Stream(0, 0),          # `build_codebook`, under the codebook seed
    "plan": Stream(3, 0),              # the `plan` command's token noise
    "task": Stream(11, 1),             # task i of a dataset, under the dataset seed
    "retype": Stream(13, 1),           # test task i's held-out object type
    "unseen_task": Stream(17, 1),      # task i of an unseen-task dataset
    "fit_noise": Stream(23, 1),        # training task i's token noise, under the fit seed
    "eval": Stream(31, 1),             # task i's token noise in `run_experiment`
    "chance": Stream(37, 1),           # task i's chance-planner draws
    "report": Stream(41, 0),           # `interpretability_report`'s sampled states
    "kmeans": Stream(43, 2),           # (concept, restart) of the fit's k-means
    "codebook_extend": Stream(100, 1),  # type rows appended to a codebook of n
}


def rng(seed: int, stream: str, *index: int) -> np.random.Generator:
    """The generator of key `[seed, tag, *index]`, `stream`'s tag from `STREAMS`;
    the library's one `default_rng` call."""
    tag, index_len = STREAMS[stream]
    if len(index) != index_len or not all(map(SEED.ok, (seed, *index))):
        raise ValueError(f"stream {stream!r} takes a seed and {index_len} index values "
                         f"{SEED.rule}, got {[seed, *index]}")
    return np.random.default_rng([seed, tag, *index])
