"""benchplan: goal-conditioned bi-level planning on a discrete workbench.

Pipeline: a deterministic grid simulator generates tasks with provably
shortest ground-truth plans; object states are encoded as disentangled
concept tokens; k-means abstraction turns tokens into discrete symbols; a
tabular transition model plus legality checks plans in symbol space; affine
per-action maps provide the continuous token-space counterpart; an evaluation
harness reports success rate, plan efficiency, and final-state distance.
"""

__version__ = "0.1.0"
