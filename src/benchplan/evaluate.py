"""Planning metrics (ASAcc, ASE, FSD), baselines, and the experiment runner.

Per-task evaluation is independent — every task draws from its own RNG stream
derived from (seed, task index) — so results are identical whether tasks run
serially or across a process pool.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .concepts import ConceptCodebook, encode, encode_states
from .fitting import Fitted, codebook_for_tasks
from .mdp import (InvalidInit, NoPlanFound, PlanResult, SymbolMasks, _key_rank,
                  base_action, plan)
from .symbols import assign, symbolize
from .taskgen import Dataset, Task
from .token_maps import plan_tokenspace, transition
from .workbench import (ACTIONS, CONCEPTS, POS_X, POS_Y, ROTATIONS, EnvConfig, ObjectState,
                        adjudicate, next_code, state_code)

_STREAM_EVAL = 31
_STREAM_CHANCE = 37

PLANNERS = ("symbolic", "token", "chance")


@dataclass(frozen=True)
class TaskRecord:
    task_id: str
    gt_len: int
    attempt_success: tuple[bool, ...]  # adjudication per attempt, best-first
    top1_len: int | None              # length of the first attempt, if any
    fsd: float                        # final-state distance of the first attempt

    @property
    def top1_success(self) -> bool:
        return bool(self.attempt_success) and self.attempt_success[0]


@dataclass(frozen=True)
class EvalReport:
    """One planner's records over one split; every metric is derived from them."""

    level: int
    planner: str
    split: str
    records: tuple[TaskRecord, ...]

    @property
    def n_tasks(self) -> int:
        return len(self.records)

    @property
    def asacc_top1(self) -> float:
        """Percent of tasks whose first attempt succeeds."""
        return 100.0 * sum(1 for r in self.records if r.top1_success) / self.n_tasks

    @property
    def asacc_top5(self) -> float:
        """Percent of tasks with a successful attempt; no attempt is a failure."""
        return 100.0 * sum(1 for r in self.records if any(r.attempt_success)) / self.n_tasks

    @property
    def ase(self) -> float | None:
        """Mean gt_len/top1_len over top-1 successes (zero-length: 1.0), or None."""
        total, successes = 0.0, 0  # in record order: sum() compensates from Python 3.12
        for r in self.records:
            if r.top1_success:
                successes += 1
                total += 1.0 if r.top1_len == 0 else r.gt_len / r.top1_len
        return total / successes if successes else None

    @property
    def fsd_mean(self) -> float:
        return float(np.mean([r.fsd for r in self.records]))


def fsd(final: ObjectState, goal: ObjectState) -> float:
    """Euclidean distance between positions, in grid-cell units."""
    return math.hypot(final.pos_x - goal.pos_x, final.pos_y - goal.pos_y)


def chance_baseline(task: Task, rng: np.random.Generator,
                    attempts: int = 5) -> list[tuple[str, ...]]:
    """Uniformly random sequences, lengths uniform in [1, max_len]."""
    out = []
    for _ in range(attempts):
        length = int(rng.integers(1, task.env.max_len + 1))
        picks = rng.integers(0, len(ACTIONS), size=length)
        out.append(tuple(ACTIONS[int(i)] for i in picks))
    return out


def plan_task(task: Task, fitted: Fitted, codebook: ConceptCodebook, *,
              planner: str, noise_sigma: float, top_k: int, l_max: int | None,
              rng: np.random.Generator) -> tuple[PlanResult, np.ndarray, np.ndarray]:
    """Encode init then goal in one call, and plan between them on the task's
    bench with the symbolic or the token planner; the plans and the two token
    sets. Raises NoPlanFound or InvalidInit when there is no plan."""
    budget = l_max if l_max is not None else task.env.max_len
    init_tokens, goal_tokens = tokens = encode_states([task.init, task.goal], codebook,
                                                      noise_sigma, rng)
    masks = SymbolMasks.build(task.env, fitted.value_maps.symbol_to_value)
    if planner == "symbolic":
        result = plan(fitted.model, *symbolize(tokens, fitted.symbolizer), masks,
                      top_k=top_k, l_max=budget)
    elif planner == "token":
        result = plan_tokenspace(fitted.maps, init_tokens, goal_tokens,
                                 fitted.symbolizer, masks, top_k=top_k, l_max=budget)
    else:
        raise ValueError(f"unknown planner {planner!r}")
    return result, init_tokens, goal_tokens


def evaluate_task(task: Task, fitted: Fitted, codebook: ConceptCodebook, *,
                  planner: str, noise_sigma: float, top_k: int,
                  l_max: int | None, rng: np.random.Generator) -> TaskRecord:
    """Plan one task, adjudicate every attempt, measure FSD on the first."""
    if planner == "chance":
        attempts = chance_baseline(task, rng, attempts=top_k)
    else:
        try:
            result, _, _ = plan_task(task, fitted, codebook, planner=planner,
                                     noise_sigma=noise_sigma, top_k=top_k,
                                     l_max=l_max, rng=rng)
            attempts = [tuple(map(base_action, p.actions)) for p in result.plans]
        except (NoPlanFound, InvalidInit):
            attempts = []

    reports = [adjudicate(task, actions) for actions in attempts]
    final = reports[0].final_state if reports else task.init
    return TaskRecord(task_id=task.task_id, gt_len=len(task.gt_actions),
                      attempt_success=tuple(r.success for r in reports),
                      top1_len=len(attempts[0]) if attempts else None,
                      fsd=fsd(final, task.goal))


_shared: tuple = ()  # run_experiment's arguments in a pool worker, set by its initializer


def _share(*shared):
    global _shared
    _shared = shared


def _eval_one(item: tuple[int, Task], shared: tuple = ()) -> TaskRecord:
    index, task = item
    fitted, codebook, planner, noise_sigma, top_k, l_max, seed = shared or _shared
    stream = _STREAM_CHANCE if planner == "chance" else _STREAM_EVAL
    rng = np.random.default_rng([seed, stream, index])
    return evaluate_task(task, fitted, codebook, planner=planner,
                         noise_sigma=noise_sigma, top_k=top_k, l_max=l_max,
                         rng=rng)


def run_experiment(dataset: Dataset, fitted: Fitted, *, planner: str = "symbolic",
                   split: str = "test", noise_sigma: float | None = None,
                   top_k: int = 5, l_max: int | None = None, seed: int = 0,
                   jobs: int = 1) -> EvalReport:
    """Plan and adjudicate every task in the split, in split order."""
    if planner not in PLANNERS:
        raise ValueError(f"planner must be one of {PLANNERS}")
    tasks = dataset.subset(split)
    if not tasks:
        raise ValueError(f"dataset has no {split!r} tasks")
    sigma = fitted.config.noise_sigma if noise_sigma is None else noise_sigma
    shared = (fitted, codebook_for_tasks(fitted, tasks), planner, sigma, top_k, l_max, seed)
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_share,
                                 initargs=shared) as pool:
            records = list(pool.map(_eval_one, enumerate(tasks), chunksize=8))
    else:
        records = [_eval_one(item, shared) for item in enumerate(tasks)]
    return EvalReport(level=dataset.level, planner=planner, split=split,
                      records=tuple(records))


# ---------------------------------------------------------------------------
# interpretability: action effects on the token space

@dataclass(frozen=True)
class InterpretabilityReport:
    actions: tuple[str, ...]                     # base actions, fixed order
    displacement: np.ndarray                     # (6 concepts, n actions) mean l2
    position_changes: dict[str, np.ndarray]      # action -> (n, 2) decoded (dx, dy)

    def argmax_concepts(self) -> dict[str, str]:
        return {a: CONCEPTS[int(self.displacement[:, j].argmax())]
                for j, a in enumerate(self.actions)}

    def to_text(self) -> str:
        lines = ["mean token displacement (l2) per concept and action",
                 "concept\t" + "\t".join(self.actions)]
        for k, name in enumerate(CONCEPTS):
            row = "\t".join(f"{self.displacement[k, j]:.4f}"
                            for j in range(len(self.actions)))
            lines.append(f"{name}\t{row}")
        return "\n".join(lines) + "\n"

    def position_tsv(self) -> str:
        lines = ["action\tdx\tdy"]
        for action in self.actions:
            for dx, dy in self.position_changes.get(action, ()):
                lines.append(f"{action}\t{int(dx)}\t{int(dy)}")
        return "\n".join(lines) + "\n"


def interpretability_report(maps, codebook: ConceptCodebook, *,
                            samples: int = 200, seed: int = 0,
                            ) -> InterpretabilityReport:
    """Apply each fitted map to sampled in-distribution states and measure effects.

    Sources are sampled so the action was physically possible on an open bench
    (its move table allows it; for a change_color key, the color differs from
    its dyer color), keeping the maps inside the regime they were trained on.
    change_color keys are pooled into one column.
    """
    rng = np.random.default_rng([seed, 41])
    open_bench = EnvConfig(level=1)

    def sample_state(action: str, dyer_color: int) -> ObjectState:
        while True:  # one draw per concept, in concept order
            t, x, y, r, c, s = (int(rng.integers(n)) for n in codebook.cardinalities)
            state = ObjectState(t, x, y, ROTATIONS[r], c, s)
            if action == "change_color":
                if state.color != dyer_color:
                    return state
            elif next_code(state_code(x, y, r, c), ACTIONS.index(action), open_bench) >= 0:
                return state

    # maps.action_keys are in key order, so each base action's keys are adjacent
    groups = [(action, list(keys))
              for action, keys in groupby(maps.action_keys, key=base_action)]
    displacement = np.zeros((len(CONCEPTS), len(groups)))
    position_changes: dict[str, np.ndarray] = {}
    for j, (action, keys) in enumerate(groups):
        deltas = []
        for key in keys:
            _, dyer_color = _key_rank(key)
            for _ in range(max(1, samples // len(keys))):
                state = sample_state(action, dyer_color)
                before = encode(state, codebook)
                after = transition(before, key, maps)
                displacement[:, j] += np.linalg.norm(after - before, axis=1)
                ax, ay = (assign(after[k], codebook.centroids[k]) for k in (POS_X, POS_Y))
                deltas.append((ax - state.pos_x, ay - state.pos_y))
        displacement[:, j] /= len(deltas)
        position_changes[action] = np.array(deltas, dtype=int)
    return InterpretabilityReport(actions=tuple(action for action, _ in groups),
                                  displacement=displacement,
                                  position_changes=position_changes)
