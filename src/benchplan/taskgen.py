"""Task and dataset generation for the workbench.

Tasks are sampled per difficulty level with rejection, and every task carries
a ground-truth plan found by breadth-first search. The search runs over the
bench's cells and whether a dye is still due, with the turns and the dye read
off in closed form; its plans are provably shortest and equal those of a search
over every (cell, rotation, color) state. Generation is reproducible: task i
of a dataset draws from its own generator, `streams.rng(seed, "task", i)`, which
also makes generation embarrassingly parallel.

The draw rule: `generate_task` reads all of its randomness, in order, from
blocks of `rng.random(BLOCK)` floats u in [0, 1), and starts a block of its own
on every call; an int in [0, n) is `int(u * n)`, which stays below n for every
u < 1 and n < 2**53. An env takes its obstacle count, then its obstacles and
dyer cell by a partial Fisher-Yates shuffle of the 15 cells, then the dyer's
color; the states take both cells, the type, the size, the rotations, the color
branch and the colors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, compress
from typing import Callable, NamedTuple

import numpy as np

from . import streams
from .workbench import (
    ACTIONS,
    CELLS,
    COLOR,
    N_COLORS,
    N_SIZES,
    N_TYPES,
    ROTATION,
    ROTATIONS,
    Y_CELLS,
    EnvConfig,
    ObjectState,
    apply_action,  # noqa: F401  unused; perfbench's trace points patch this name
    cells_connected,
    goal_concepts,
)

SPLITS = ("train", "val", "test")
UNSEEN_TYPES = 4  # held-out object types of an unseen-object split, past the codebook's
MAX_ATTEMPTS = 1000  # env and state draws `generate_task` makes per task
BLOCK = 32  # uniform draws per `rng.random` call of `generate_task`

# action-combination families for the unseen-task protocol (levels 1-2 only)
TRAIN_FAMILIES = (
    frozenset({"move_left", "move_front"}),
    frozenset({"move_right", "move_back"}),
)
TEST_FAMILIES = (
    frozenset({"move_left", "move_back"}),
    frozenset({"move_right", "move_front"}),
)

# the oracle searches the moves and the dye; of its fewest turns, a half turn is
# two rotate_left, as rotate_left comes before rotate_right in ACTIONS
_N_ACTIONS, _DYE = len(ACTIONS), ACTIONS.index("change_color")
_SEARCHED = tuple(a for a, action in enumerate(ACTIONS) if not action.startswith("rotate_"))
_TURNS = {0: (), 90: ("rotate_right",), 180: ("rotate_left",) * 2, 270: ("rotate_left",)}


class Unreachable(Exception):
    """No legal action sequence connects init to goal."""


class GenerationExhausted(Exception):
    """Rejection sampling failed to produce a valid task within its budget."""


@dataclass(frozen=True)
class Task:
    env: EnvConfig
    init: ObjectState
    goal: ObjectState
    gt_actions: tuple[str, ...]
    task_id: str = ""
    split: str = "train"


@dataclass
class Dataset:
    """Tasks and their seeds; the level and split sizes are read off the tasks."""

    tasks: list[Task]
    seed: int
    codebook_seed: int
    variant: str = "standard"

    @property
    def level(self) -> int:
        return self.tasks[0].env.level

    @property
    def split_sizes(self) -> tuple[int, int, int]:
        return tuple(sum(t.split == split for t in self.tasks) for split in SPLITS)

    def subset(self, split: str) -> list[Task]:
        return [t for t in self.tasks if t.split == split]


def oracle_shortest_plan(env: EnvConfig, init: ObjectState,
                         goal: ObjectState) -> tuple[str, ...]:
    """Shortest action sequence from init to a state matching goal on the
    concepts `goal_concepts(env.level)` names, the rule the judge applies.

    BFS over the nodes cell * 2 + still to dye, through the moves and the dye in
    ACTIONS order; whether to dye and the fewest turns, where the goal fixes
    color and rotation, are read off in closed form. Turns are legal everywhere
    and change nothing else, and ACTIONS puts moves before turns and turns
    before the dye, so placing the turns right before the dye, or last, gives
    the plan a BFS over every (cell, rotation, color) state returns: the
    lexicographically smallest shortest one. Raises Unreachable when no legal
    path exists.
    """
    fixed = goal_concepts(env.level)
    to_dye = int(COLOR in fixed and init.color != goal.color)
    if to_dye and goal.color != env.dyer_color:  # no dye gives the goal's color
        raise Unreachable(f"goal {goal} unreachable from {init}")
    turns = _TURNS[(goal.rotation - init.rotation) % 360] if ROTATION in fixed else ()
    start = (init.pos_x * Y_CELLS + init.pos_y) * 2 + to_dye
    target = (goal.pos_x * Y_CELLS + goal.pos_y) * 2
    if start == target:
        return turns
    moves, parents, queue = env.moves, {start: None}, [start]
    for node in queue:  # first in, first out: the loop reads what it appends
        cell, dye_left = divmod(node, 2)
        for a in _SEARCHED:
            dest = moves[cell * _N_ACTIONS + a]
            nxt = dest * 2 + (0 if a == _DYE else dye_left)
            if dest < 0 or nxt in parents:
                continue
            parents[nxt] = (node, a)
            if nxt == target:
                plan = []
                while parents[nxt] is not None:
                    nxt, a = parents[nxt]
                    plan.append(ACTIONS[a])
                plan.reverse()
                at = plan.index("change_color") if to_dye else len(plan)
                return (*plan[:at], *turns, *plan[at:])
            queue.append(nxt)
    raise Unreachable(f"goal {goal} unreachable from {init}")


class _Draws:
    """The uniform draws of one `generate_task` call, read in order from blocks
    of `rng.random(BLOCK)`; a spent block is refilled from the same generator."""

    __slots__ = ("_rng", "_us")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._us = iter(rng.random(BLOCK).tolist())

    def below(self, n: int) -> int:
        """An int in [0, n): the next draw u, as int(u * n)."""
        try:
            u = next(self._us)
        except StopIteration:
            self._us = iter(self._rng.random(BLOCK).tolist())
            u = next(self._us)
        return int(u * n)


def _sample_env(level: int, below) -> EnvConfig | None:
    """One env draw; None when the free cells come out disconnected."""
    if level == 1:
        return EnvConfig(level=1)
    pool = list(CELLS)
    chosen = [pool.pop(below(len(pool))) for _ in range(1 + below(3) + (level >= 3))]
    if not cells_connected(chosen):
        return None
    if level == 2:
        return EnvConfig(level, chosen)
    return EnvConfig(level, chosen[:-1], chosen[-1], below(N_COLORS))  # dyer last


def _sample_states(level: int, env: EnvConfig, below) -> tuple[ObjectState, ObjectState]:
    free = list(compress(CELLS, chain.from_iterable(env.free)))
    init_pos = free[below(len(free))]
    goal_pos = free[below(len(free))]
    type_id = below(N_TYPES)
    size = below(N_SIZES)
    init_rot = ROTATIONS[below(4)]
    goal_rot = init_rot if level <= 3 else ROTATIONS[below(4)]
    if level >= 3 and below(2):
        # force a color change: goal color is the dyer's, init differs
        goal_color = env.dyer_color
        init_color = below(N_COLORS - 1)  # the index among the other colors
        init_color += init_color >= goal_color
    else:
        init_color = below(N_COLORS)
        goal_color = init_color
    init = ObjectState(type_id, init_pos[0], init_pos[1], init_rot, init_color, size)
    goal = ObjectState(type_id, goal_pos[0], goal_pos[1], goal_rot, goal_color, size)
    return init, goal


def generate_task(level: int, rng: np.random.Generator) -> Task:
    """Sample one task whose gt plan is nonempty and within the level's cap."""
    if level not in (1, 2, 3, 4):
        raise ValueError(f"level must be 1..4, got {level}")
    below = _Draws(rng).below
    for _ in range(MAX_ATTEMPTS):
        env = _sample_env(level, below)
        if env is None:
            continue
        init, goal = _sample_states(level, env, below)
        try:
            plan = oracle_shortest_plan(env, init, goal)
        except Unreachable:
            continue
        if not plan or len(plan) > env.max_len:
            continue
        return Task(env=env, init=init, goal=goal, gt_actions=plan)
    raise GenerationExhausted(f"no valid level-{level} task in {MAX_ATTEMPTS} attempts")


def _dataset(level: int, counts: tuple[int, int, int], seed: int, variant: str, draw) -> Dataset:
    """Task i is `draw(i, split)` with its id and split: counts[0] train tasks,
    then counts[1] val and counts[2] test. A dataset needs a task for a level."""
    if min(counts) < 0 or sum(counts) == 0:
        raise ValueError("counts must be nonnegative and sum to > 0")
    splits = [split for split, n in zip(SPLITS, counts) for _ in range(n)]
    tasks = [Task(t.env, t.init, t.goal, t.gt_actions, f"L{level}-{i:05d}", split)
             for i, split in enumerate(splits) for t in [draw(i, split)]]
    return Dataset(tasks=tasks, seed=seed, codebook_seed=seed, variant=variant)


def generate_dataset(level: int, counts: tuple[int, int, int], seed: int) -> Dataset:
    """Generate train/val/test tasks; byte-reproducible under a fixed seed."""
    return _dataset(level, counts, seed, "standard",
                    lambda i, _: generate_task(level, streams.rng(seed, "task", i)))


def make_unseen_object_split(dataset: Dataset, held_out_types: set[int]) -> Dataset:
    """Rewrite test tasks to use only held-out object types.

    Type plays no role in the dynamics, so gt plans remain valid verbatim.
    Train and val tasks are untouched.
    """
    held = sorted(set(held_out_types))
    if not held:
        raise ValueError("held_out_types must be nonempty")
    train_types = {t.init.type_id for t in dataset.tasks if t.split != "test"}
    overlap = train_types & set(held)
    if overlap:
        raise ValueError(f"held-out types {sorted(overlap)} appear in training data")
    tasks = []
    for i, task in enumerate(dataset.tasks):
        if task.split == "test":
            rng = streams.rng(dataset.seed, "retype", i)
            t = held[int(rng.integers(len(held)))]
            task = replace(task, init=replace(task.init, type_id=t),
                           goal=replace(task.goal, type_id=t))
        tasks.append(task)
    return replace(dataset, tasks=tasks, variant="unseen_object")


def make_unseen_task_split(level: int, counts: tuple[int, int, int],
                           seed: int) -> Dataset:
    """Dataset whose test plans use action combinations absent from training.

    Training (and val) plans draw only on the designated families
    (left+front, right+back); test plans use exactly a held-out pair
    (left+back or right+front). Defined for the levels `VARIANTS` gives it.
    """
    if level not in (levels := VARIANTS["unseen_task"].levels):
        raise ValueError(f"unseen-task splits are limited to levels {levels}")

    def draw(i: int, split: str) -> Task:
        rng = streams.rng(seed, "unseen_task", i)
        for _ in range(1000):
            task = generate_task(level, rng)
            used = frozenset(task.gt_actions)
            if split == "test" and used in TEST_FAMILIES:  # both held-out actions appear
                return task
            if split != "test" and any(used <= fam for fam in TRAIN_FAMILIES):
                return task
        raise GenerationExhausted(f"no family-conformant task for index {i}")

    return _dataset(level, counts, seed, "unseen_task", draw)


# every dataset variant, by the name its file's header carries: the levels it is
# defined for, and its builder of (level, counts, seed, unseen types). A new
# variant is one entry here, plus its tag in `streams.STREAMS` if it draws
Variant = NamedTuple("Variant", [("levels", tuple), ("build", Callable[..., Dataset])])
VARIANTS = {
    "standard": Variant((1, 2, 3, 4), lambda level, counts, seed, _: generate_dataset(
        level, counts, seed)),
    "unseen_object": Variant((1, 2, 3, 4), lambda level, counts, seed, n: (
        make_unseen_object_split(generate_dataset(level, counts, seed),
                                 set(range(N_TYPES, N_TYPES + n))))),
    "unseen_task": Variant((1, 2), lambda level, counts, seed, _: make_unseen_task_split(
        level, counts, seed)),
}


def make_dataset(variant: str, level: int, counts: tuple[int, int, int], seed: int,
                 unseen_types: int = UNSEEN_TYPES) -> Dataset:
    """The dataset that `variant`'s entry of `VARIANTS` builds."""
    return VARIANTS[variant].build(level, counts, seed, unseen_types)
