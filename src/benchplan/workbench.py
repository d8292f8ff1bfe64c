"""Deterministic discrete workbench simulator.

A single object sits on a 3x5 grid and is manipulated by seven atomic
actions of fixed magnitude. Obstacles and an optional dyer (a color-changing
station) occupy cells of their own; both are impassable. All operations are
pure functions, so states and configs are freely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .streams import Bound

if TYPE_CHECKING:  # only for the adjudicate() type hint
    from .taskgen import Task

X_CELLS = 3
Y_CELLS = 5
ROTATIONS = (0, 90, 180, 270)
N_COLORS = 6
N_SIZES = 4
N_TYPES = 8  # default object-type library; unseen-object splits extend past this
MAX_TYPES = 1024  # type ids run below this: the eval codebook draws every id up to the largest

CONCEPTS = ("type", "pos_x", "pos_y", "rotation", "color", "size")
TYPE, POS_X, POS_Y, ROTATION, COLOR, SIZE = range(len(CONCEPTS))  # concept indices
DEFAULT_CARDINALITIES = (N_TYPES, X_CELLS, Y_CELLS, len(ROTATIONS), N_COLORS, N_SIZES)
CELLS = tuple(product(range(X_CELLS), range(Y_CELLS)))  # CELLS[x * Y_CELLS + y] == (x, y)

ACTIONS = (
    "move_front",
    "move_back",
    "move_left",
    "move_right",
    "rotate_left",
    "rotate_right",
    "change_color",
)

_MOVE_DELTAS = {
    "move_front": (0, 1),
    "move_back": (0, -1),
    "move_left": (-1, 0),
    "move_right": (1, 0),
}

_ACTION_INDEX = {action: a for a, action in enumerate(ACTIONS)}
_N_ACTIONS, _CHANGE_COLOR = len(ACTIONS), _ACTION_INDEX["change_color"]
_CELL_CODES = len(ROTATIONS) * N_COLORS  # state codes per cell: a quarter turn adds N_COLORS
_TURNS = tuple(N_COLORS * {"rotate_left": -1, "rotate_right": 1}.get(a, 0) for a in ACTIONS)
_OFF_GRID, _COLLISION, _NO_DYER = -1, -2, -3  # move-table codes of an illegal action
# the move table of a bench with no obstacle and no dyer, and per cell the entries moving into it
_GRID_MOVES = tuple(_OFF_GRID if not (0 <= x + dx < X_CELLS and 0 <= y + dy < Y_CELLS)
                    else _NO_DYER if action == "change_color" else (x + dx) * Y_CELLS + y + dy
                    for x, y in CELLS
                    for action in ACTIONS for dx, dy in [_MOVE_DELTAS.get(action, (0, 0))])
_MOVES_INTO = tuple(tuple(i for i, dest in enumerate(_GRID_MOVES)
                          if dest == cell and ACTIONS[i % _N_ACTIONS] in _MOVE_DELTAS)
                    for cell in range(X_CELLS * Y_CELLS))
# [c][rest][a]: rest = code % _CELL_CODES (rotation, color) after ACTIONS[a] with dyer color c
_RESTS = tuple(tuple(tuple(
    rest - rest % N_COLORS + c if a == _CHANGE_COLOR else (rest + turn) % _CELL_CODES
    for a, turn in enumerate(_TURNS)) for rest in range(_CELL_CODES)) for c in range(N_COLORS))
_FIRST_ROW = sum(1 << x * Y_CELLS for x in range(X_CELLS))  # cells with y == 0, as a mask


def _dyer_bench(dyer: tuple[int, int] | None) -> tuple:
    """The near_dyer and moves tables of a bench with its dyer on cell `dyer`,
    or none, and no cell blocked: dyeing works one move from the dyer."""
    moves = list(_GRID_MOVES)
    for i in _MOVES_INTO[dyer[0] * Y_CELLS + dyer[1]] if dyer else ():  # moves into the dyer
        moves[i - i % _N_ACTIONS + _CHANGE_COLOR] = i // _N_ACTIONS  # dye where they start
    near = [dest >= 0 for dest in moves[_CHANGE_COLOR::_N_ACTIONS]]  # by cell
    return tuple(tuple(near[x * Y_CELLS:(x + 1) * Y_CELLS]) for x in range(X_CELLS)), tuple(moves)


_DYER_BENCHES = {dyer: _dyer_bench(dyer) for dyer in (*CELLS, None)}

MAX_LEN_BY_LEVEL = {1: 6, 2: 9, 3: 15, 4: 16}
LEVEL = Bound(int, "1..4", lambda v: v in MAX_LEN_BY_LEVEL)  # the difficulty levels' rule

FAILURE_REASONS = ("none", "illegal_action", "collision", "wrong_final_state")


class ActionError(Exception):
    """An action cannot be applied in the current state: a move off the grid
    or into a blocked cell, or a dye with no dyer one move away."""


class SimulationError(Exception):
    """The first illegal action in a sequence; the message names its step."""


@dataclass(frozen=True)
class ObjectState:
    """Ground-truth concept values of the manipulated object."""

    type_id: int
    pos_x: int
    pos_y: int
    rotation: int  # degrees, multiple of 90 in [0, 360)
    color: int
    size: int

    def __post_init__(self):
        if not (0 <= self.pos_x < X_CELLS and 0 <= self.pos_y < Y_CELLS):
            raise ValueError(f"position ({self.pos_x},{self.pos_y}) off the grid")
        if self.rotation not in ROTATIONS:
            raise ValueError(f"rotation {self.rotation} not a multiple of 90 in [0,360)")
        if not 0 <= self.color < N_COLORS:
            raise ValueError(f"color {self.color} out of range")
        if not 0 <= self.size < N_SIZES:
            raise ValueError(f"size {self.size} out of range")
        if not 0 <= self.type_id < MAX_TYPES:
            raise ValueError(f"type_id {self.type_id} out of range 0..{MAX_TYPES - 1}")

    def values(self) -> tuple[int, int, int, int, int, int]:
        """Concept values in CONCEPTS order, rotation as an index 0..3."""
        return (self.type_id, self.pos_x, self.pos_y,
                self.rotation // 90, self.color, self.size)

    @property
    def pos(self) -> tuple[int, int]:
        return (self.pos_x, self.pos_y)


@dataclass(frozen=True)
class EnvConfig:
    """Per-task bench layout: difficulty level, obstacles, optional dyer."""

    level: int
    obstacles: tuple[tuple[int, int], ...] = ()
    dyer: tuple[int, int] | None = None
    dyer_color: int | None = None
    # the bench tables every reader of the layout uses, derived once: free[x][y]
    # (neither an obstacle nor the dyer), near_dyer[x][y] (one move from the dyer),
    # moves[(x * Y_CELLS + y) * 7 + a] (ACTIONS[a]'s destination cell; < 0: illegal)
    free: tuple[tuple[bool, ...], ...] = field(init=False, repr=False, compare=False)
    near_dyer: tuple[tuple[bool, ...], ...] = field(init=False, repr=False, compare=False)
    moves: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        LEVEL.check("level", self.level)
        # normalize: sorted, deduplicated obstacle cells, and cells as tuples
        cells = tuple(sorted(set(map(tuple, self.obstacles))))
        object.__setattr__(self, "obstacles", cells)
        object.__setattr__(self, "dyer", None if self.dyer is None else tuple(self.dyer))
        for c in cells:
            if not (0 <= c[0] < X_CELLS and 0 <= c[1] < Y_CELLS):
                raise ValueError(f"obstacle {c} off the grid")
        if self.level == 1 and (cells or self.dyer is not None):
            raise ValueError("level 1 admits no obstacles and no dyer")
        if self.level == 2 and self.dyer is not None:
            raise ValueError("level 2 admits no dyer")
        if self.level >= 3 and self.dyer is None:
            raise ValueError(f"level {self.level} requires a dyer")
        if self.dyer is not None:
            if self.dyer in cells:
                raise ValueError("dyer cell clashes with an obstacle")
            if not (0 <= self.dyer[0] < X_CELLS and 0 <= self.dyer[1] < Y_CELLS):
                raise ValueError(f"dyer {self.dyer} off the grid")
            if self.dyer_color is None or not 0 <= self.dyer_color < N_COLORS:
                raise ValueError("a dyer needs a color in 0..5")
        elif self.dyer_color is not None:
            raise ValueError("dyer_color given without a dyer")
        # the dyer cell's tables; then each blocked cell is not free, and moves into it collide
        near_dyer, moves = _DYER_BENCHES[self.dyer]
        free, moves = [(True,) * Y_CELLS] * X_CELLS, list(moves)
        for x, y in (*cells, self.dyer) if self.dyer else cells:
            free[x] = (*free[x][:y], False, *free[x][y + 1:])
            for i in _MOVES_INTO[x * Y_CELLS + y]:
                moves[i] = _COLLISION
        object.__setattr__(self, "free", tuple(free))
        object.__setattr__(self, "near_dyer", near_dyer)
        object.__setattr__(self, "moves", tuple(moves))

    def __reduce__(self):  # pickle and copy the init fields; the tables are rebuilt
        return EnvConfig, (self.level, self.obstacles, self.dyer, self.dyer_color)

    @property
    def max_len(self) -> int:
        return MAX_LEN_BY_LEVEL[self.level]


@dataclass(frozen=True)
class SuccessReport:
    """Outcome of executing a candidate action sequence on a task."""

    failure_reason: str  # one of FAILURE_REASONS
    final_state: ObjectState

    def __post_init__(self):
        if self.failure_reason not in FAILURE_REASONS:
            raise ValueError(f"unknown failure reason {self.failure_reason!r}")

    @property
    def success(self) -> bool:
        return self.failure_reason == "none"


def state_code(x: int, y: int, rotation: int, color: int) -> int:
    """What an action reads or changes of a state, its `values()[POS_X:SIZE]`,
    as one int in [0, 360): (cell x * Y_CELLS + y) * _CELL_CODES + rotation
    index * N_COLORS + color. Type and size never change."""
    return (x * Y_CELLS + y) * _CELL_CODES + rotation * N_COLORS + color


def next_code(code: int, a: int, env: EnvConfig) -> int:
    """The state code after ACTIONS[a]; the move table's code (< 0) if illegal."""
    cell, rest = divmod(code, _CELL_CODES)
    dest = env.moves[cell * _N_ACTIONS + a]
    return dest if dest < 0 else dest * _CELL_CODES + _RESTS[env.dyer_color or 0][rest][a]


def apply_action(state: ObjectState, action: str, env: EnvConfig) -> ObjectState:
    """Apply one atomic action; raises ActionError when it is illegal."""
    if action not in _ACTION_INDEX:
        raise ValueError(f"unknown action {action!r}")
    code = next_code(state_code(*state.values()[POS_X:SIZE]), _ACTION_INDEX[action], env)
    if code == _OFF_GRID:
        raise ActionError(f"{action} from {state.pos} exits the grid")
    if code == _COLLISION:
        dx, dy = _MOVE_DELTAS[action]
        raise ActionError(f"{action} from {state.pos} hits {(state.pos_x + dx, state.pos_y + dy)}")
    if code == _NO_DYER:
        raise ActionError("no dyer on this bench" if env.dyer is None else
                          f"object at {state.pos} not adjacent to dyer at {env.dyer}")
    return _state_at(code, state)


def _state_at(code: int, like: ObjectState) -> ObjectState:
    """The state whose `state_code` is `code`, with `like`'s type and size."""
    cell, rest = divmod(code, _CELL_CODES)
    return ObjectState(like.type_id, *divmod(cell, Y_CELLS), ROTATIONS[rest // N_COLORS],
                       rest % N_COLORS, like.size)


def cells_connected(blocked: Iterable[tuple[int, int]]) -> bool:
    """True iff the cells outside `blocked`, any iterable of cells, are one region."""
    free = (1 << X_CELLS * Y_CELLS) - 1 & ~sum(1 << x * Y_CELLS + y for x, y in set(blocked))
    region, grown = 0, free & -free  # the lowest free cell
    while grown != region:
        region = grown
        grown = free & (region | region << Y_CELLS | region >> Y_CELLS | region << 1
                        & ~_FIRST_ROW | region >> 1 & ~(_FIRST_ROW << Y_CELLS - 1))
    return region != 0 and region == free


def is_valid_state(state: ObjectState, env: EnvConfig) -> bool:
    """True iff the object sits on a free on-grid cell."""
    return env.free[state.pos_x][state.pos_y]


def simulate(init: ObjectState, actions: Sequence[str], env: EnvConfig) -> list[ObjectState]:
    """Trajectory [init, s1, ..., sT]; raises SimulationError at the first illegal step."""
    if not is_valid_state(init, env):
        raise ValueError(f"initial state at {init.pos} is invalid in this env")
    trajectory = [init]
    for i, action in enumerate(actions):
        try:
            trajectory.append(apply_action(trajectory[-1], action, env))
        except ActionError as err:
            raise SimulationError(f"illegal action at step {i}: {err}") from err
    return trajectory


def goal_concepts(level: int) -> tuple[int, ...]:
    """The concepts a level's goal fixes: position and color, plus rotation at
    level 4. No action changes type or size, so no goal fixes them."""
    return (POS_X, POS_Y, ROTATION, COLOR) if level == 4 else (POS_X, POS_Y, COLOR)


def goal_reached(final: ObjectState, goal: ObjectState, level: int) -> bool:
    """Success rule: final matches goal on every concept the level's goal fixes."""
    fixed = itemgetter(*goal_concepts(level))
    return fixed(final.values()) == fixed(goal.values())


def adjudicate(task: "Task", actions: Sequence[str]) -> SuccessReport:
    """Execute a candidate sequence and judge it against the task's goal.

    Walks state codes with `next_code` and builds one ObjectState, the report's:
    on failure (a collision, or an off-grid or no-dyer illegal_action) the last
    state reached before the illegal step. An unknown action raises ValueError.
    """
    env, code, reason = task.env, state_code(*task.init.values()[POS_X:SIZE]), "none"
    for action in actions:
        if action not in _ACTION_INDEX:
            raise ValueError(f"unknown action {action!r}")
        step = next_code(code, _ACTION_INDEX[action], env)
        if step < 0:
            reason = "collision" if step == _COLLISION else "illegal_action"
            break
        code = step
    final = _state_at(code, task.init)
    if reason == "none" and not goal_reached(final, task.goal, env.level):
        reason = "wrong_final_state"
    return SuccessReport(reason, final)
