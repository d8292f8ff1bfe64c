"""benchplan: goal-conditioned bi-level planning on a discrete workbench.

Pipeline: a deterministic grid simulator generates tasks with provably
shortest ground-truth plans; object states are encoded as disentangled
concept tokens; k-means abstraction turns tokens into discrete symbols; a
tabular transition model plus legality checks plans in symbol space; affine
per-action maps provide the continuous token-space counterpart; an evaluation
harness reports success rate, plan efficiency, and final-state distance.
"""

from .workbench import (
    ACTIONS,
    CONCEPTS,
    DEFAULT_CARDINALITIES,
    EnvConfig,
    ObjectState,
    SuccessReport,
    adjudicate,
    apply_action,
    is_valid_state,
    simulate,
)
from .taskgen import (
    Dataset,
    Task,
    generate_dataset,
    generate_task,
    make_unseen_object_split,
    make_unseen_task_split,
    oracle_shortest_plan,
)
from .concepts import (
    ConceptCodebook,
    build_codebook,
    changed_concept_index,
    disentanglement_score,
    encode,
    extend_codebook,
)
from .symbols import Symbolizer, assign, fit_kmeans, fit_symbolizer, purity, symbolize
from .mdp import (
    PlanResult,
    SymbolMasks,
    TransitionModel,
    action_legal,
    fit_transitions,
    plan,
    propagate,
)
from .token_maps import (
    ActionTransitionMaps,
    fit_affine,
    plan_tokenspace,
    rollout,
    token_mse,
    transition,
)
from .fitting import FitConfig, Fitted, fit_pipeline
from .evaluate import (
    EvalReport,
    asacc,
    ase,
    chance_baseline,
    fsd,
    interpretability_report,
    run_experiment,
)

__version__ = "0.1.0"
