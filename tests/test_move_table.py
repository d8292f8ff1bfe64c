"""One compiled move table per bench: `apply_action` and `adjudicate` read it
through `next_code`, and the BFS oracle reads its moves and dye over cells and a
still-to-dye flag. They agree with the per-action rules, the ObjectState loop
and the ObjectState BFS they replaced, and `next_code` with the all-actions
`next_codes` the oracle searched before.
Each bench copies its tables from the one bench of its dyer cell and marks its
blocked cells, and they equal those of the builder that tested every cell and
action in turn."""

import itertools

import numpy as np
import pytest

from benchplan.taskgen import Task, Unreachable, oracle_shortest_plan
from benchplan.workbench import (
    _COLLISION,
    _NO_DYER,
    _OFF_GRID,
    ACTIONS,
    FAILURE_REASONS,
    N_COLORS,
    N_SIZES,
    POS_X,
    ROTATIONS,
    SIZE,
    X_CELLS,
    Y_CELLS,
    ActionError,
    EnvConfig,
    ObjectState,
    adjudicate,
    apply_action,
    cells_connected,
    next_code,
    state_code,
)

from _oracles import (
    _MOVE_DELTAS,
    Collision,
    DyerUnavailable,
    OutOfBounds,
    oracle_adjudicate,
    oracle_apply_action,
    oracle_bench_tables,
    oracle_bfs,
    oracle_cells_connected,
    oracle_next_codes,
)

CELLS = list(itertools.product(range(X_CELLS), range(Y_CELLS)))
N_CODES = len(CELLS) * len(ROTATIONS) * N_COLORS
# the move table's code of each reason the frozen rule raises
REASON_CODES = {OutOfBounds: _OFF_GRID, Collision: _COLLISION, DyerUnavailable: _NO_DYER}


def random_bench(level, rng):
    """Any legal bench of the level, free cells connected or not: 0-4 obstacles
    at level 2 and up, plus a dyer of a random color at levels 3 and 4."""
    if level == 1:
        return EnvConfig(level=1)
    picks = [CELLS[int(i)] for i in rng.choice(len(CELLS), size=5, replace=False)]
    obstacles = tuple(picks[:int(rng.integers(0, 5))])
    if level == 2:
        return EnvConfig(level=2, obstacles=obstacles)
    return EnvConfig(level=level, obstacles=obstacles, dyer=picks[4],
                     dyer_color=int(rng.integers(N_COLORS)))


def outcome(apply, state, action, env):
    """The state an action leads to, or the base class and message of its error."""
    try:
        return apply(state, action, env)
    except ActionError as err:
        return ActionError, str(err)
    except ValueError as err:
        return ValueError, str(err)


def frozen_code(state, action, env):
    """The frozen rule as `next_code` gives it: the code of the state an action
    leads to, or the move table's code of the reason it raises."""
    try:
        return state_code(*oracle_apply_action(state, action, env).values()[POS_X:SIZE])
    except ActionError as err:
        return REASON_CODES[type(err)]


def frozen_reads(env, x, y, action):
    """What `oracle_apply_action` reads of the bench for an action from cell
    (x, y): a move's destination is free (None off the grid), a turn reads
    nothing, and a dye reads the dyer, the cell's adjacency to it and its color."""
    if action in _MOVE_DELTAS:
        nx, ny = x + _MOVE_DELTAS[action][0], y + _MOVE_DELTAS[action][1]
        return env.free[nx][ny] if 0 <= nx < X_CELLS and 0 <= ny < Y_CELLS else None
    if action == "change_color":
        return env.dyer, env.near_dyer[x][y], env.dyer_color
    return None


@pytest.mark.parametrize("level", (1, 2, 3, 4))
def test_apply_action_equals_frozen_rules(level):
    # one table per bench, of every state code and action: one bench at level 1,
    # 500 at the others. The frozen rule gives the same outcomes on benches that
    # agree on what it reads, so the frozen table is put together from per-cell
    # blocks that such benches share. `apply_action` reads the same table; its
    # states and messages are checked on one bench: the first where a move can
    # collide, or at level 1 the only one
    rng = np.random.default_rng([23, level])
    blocks, reasons = {}, {_OFF_GRID, _NO_DYER} | ({_COLLISION} if level > 1 else set())
    checked = False
    for _ in range(1 if level == 1 else 500):
        env = random_bench(level, rng)
        type_id, size = int(rng.integers(12)), int(rng.integers(N_SIZES))
        new = [next_code(code, a, env) for a in range(len(ACTIONS)) for code in range(N_CODES)]
        frozen = []
        for action in ACTIONS:
            for x, y in CELLS:
                key = (x, y, action, frozen_reads(env, x, y, action))
                if key not in blocks:
                    blocks[key] = [frozen_code(ObjectState(0, x, y, rotation, color, 0),
                                               action, env)
                                   for rotation, color in itertools.product(ROTATIONS,
                                                                            range(N_COLORS))]
                frozen += blocks[key]
        assert new == frozen, env
        if not checked and (level != 2 or env.obstacles):
            assert reasons <= set(frozen), env
            for x, y in CELLS:
                for rotation, color in itertools.product(ROTATIONS, range(N_COLORS)):
                    state = ObjectState(type_id, x, y, rotation, color, size)
                    for action in (*ACTIONS, "jump"):
                        assert outcome(apply_action, state, action, env) == \
                            outcome(oracle_apply_action, state, action, env), (env, state)
            checked = True
    assert checked
    codes = {code for block in blocks.values() for code in block}
    assert {code for code in codes if code < 0} == reasons and max(codes) >= 0


def random_case(level, rng):
    """A bench, an init and a goal. Init sits on any cell, an obstacle or the
    dyer included; the goal copies each of init's fields at even odds and draws
    the rest, so init == goal, blocked goals and differing rotations, types and
    sizes all come up."""
    env = random_bench(level, rng)
    init = ObjectState(int(rng.integers(12)), *CELLS[int(rng.integers(len(CELLS)))],
                       ROTATIONS[int(rng.integers(4))], int(rng.integers(N_COLORS)),
                       int(rng.integers(N_SIZES)))
    drawn = (int(rng.integers(12)), *CELLS[int(rng.integers(len(CELLS)))],
             ROTATIONS[int(rng.integers(4))], int(rng.integers(N_COLORS)),
             int(rng.integers(N_SIZES)))
    kept = (init.type_id, init.pos_x, init.pos_y, init.rotation, init.color, init.size)
    goal = ObjectState(*(k if rng.random() < 0.5 else d for k, d in zip(kept, drawn)))
    return env, init, goal


@pytest.mark.parametrize("level", (1, 2, 3, 4))
def test_oracle_equals_frozen_bfs(level):
    rng = np.random.default_rng([29, level])
    seen = dict.fromkeys(("init blocked", "goal blocked", "turned", "retyped", "resized",
                          "init == goal", "unreachable", "planned", "dyes", "half turn",
                          "dye impossible", "init blocked next to the dyer"), 0)
    for _ in range(2000):
        env, init, goal = random_case(level, rng)
        expected = oracle_bfs(env, init, goal)
        if expected is None:
            with pytest.raises(Unreachable):
                oracle_shortest_plan(env, init, goal)
        else:
            assert oracle_shortest_plan(env, init, goal) == expected, (env, init, goal)
        seen["init blocked"] += not env.free[init.pos_x][init.pos_y]
        seen["goal blocked"] += not env.free[goal.pos_x][goal.pos_y]
        seen["turned"] += goal.rotation != init.rotation
        seen["retyped"] += goal.type_id != init.type_id
        seen["resized"] += goal.size != init.size
        seen["init == goal"] += goal == init
        seen["unreachable"] += expected is None
        seen["planned"] += bool(expected)
        seen["dyes"] += "change_color" in (expected or ())
        seen["half turn"] += (expected or ()).count("rotate_left") == 2
        seen["dye impossible"] += init.color != goal.color != env.dyer_color
        seen["init blocked next to the dyer"] += \
            not env.free[init.pos_x][init.pos_y] and env.near_dyer[init.pos_x][init.pos_y]
    if level == 1:  # no obstacle, no dyer: nothing is blocked
        del seen["init blocked"], seen["goal blocked"]
    if level < 3:  # no dyer
        del seen["dyes"], seen["init blocked next to the dyer"]
    if level < 4:  # the goal leaves rotation free
        del seen["half turn"]
    assert all(seen.values()), seen


def verdict(judge, task, actions):
    """The report on a candidate sequence, or the class and message of its error."""
    try:
        return judge(task, actions)
    except ValueError as err:
        return type(err), str(err)


@pytest.mark.parametrize("level", (1, 2, 3, 4))
def test_adjudicate_equals_frozen_loop(level):
    # random sequences of up to 16 actions, one in 20 names an unknown action,
    # plus the shortest plan where there is one, so that every reason comes up
    rng = np.random.default_rng([37, level])
    names = (*ACTIONS, "jump")
    seen = dict.fromkeys((*FAILURE_REASONS, ValueError), 0)
    for _ in range(400):
        env, init, goal = random_case(level, rng)
        task = Task(env=env, init=init, goal=goal, gt_actions=())
        candidates = [tuple(names[int(i)] for i in rng.choice(
            len(names), size=int(rng.integers(17)), p=[0.95 / 7] * 7 + [0.05]))
            for _ in range(5)]
        try:
            candidates.append(oracle_shortest_plan(env, init, goal))
        except Unreachable:
            pass
        for actions in candidates:
            report = verdict(adjudicate, task, actions)
            assert report == verdict(oracle_adjudicate, task, actions), (task, actions)
            seen[report[0] if isinstance(report, tuple) else report.failure_reason] += 1
    if level == 1:  # no obstacle: nothing collides
        del seen["collision"]
    assert all(seen.values()), seen


def test_cells_connected_equals_frozen_check():
    # every blocked set: the sampler draws up to 3 obstacles and a dyer
    for n in range(len(CELLS) + 1):
        for blocked in itertools.combinations(CELLS, n):
            assert cells_connected(set(blocked)) == oracle_cells_connected(set(blocked)), \
                blocked
    assert not cells_connected({(1, y) for y in range(Y_CELLS)})


def test_cells_connected_takes_cells_in_any_iterable():
    # lists and iterators that repeat a cell, as well as sets
    rng = np.random.default_rng(47)
    repeats = 0
    for _ in range(500):
        blocked = [CELLS[i] for i in rng.integers(len(CELLS), size=int(rng.integers(1, 16)))]
        repeats += len(set(blocked)) < len(blocked)
        expected = oracle_cells_connected(set(blocked))
        assert cells_connected(blocked) == cells_connected(iter(blocked)) == expected, blocked
    assert repeats


def sampler_layouts():
    """Every layout the bench sampler can draw, and the obstacle-free ones it
    cannot: levels 2-4 with 0-3 obstacles, at levels 3 and 4 with the dyer on
    each other cell, of a color that cycles with the cell."""
    yield 1, (), None, None
    for n in range(4):
        for obstacles in itertools.combinations(CELLS, n):
            yield 2, obstacles, None, None
            for i, dyer in enumerate(c for c in CELLS if c not in obstacles):
                for level in (3, 4):
                    yield level, obstacles, dyer, (i + n) % N_COLORS


def built(level, obstacles, dyer, dyer_color):
    """What EnvConfig makes of a layout, or the class and message of its error."""
    try:
        env = EnvConfig(level, obstacles, dyer, dyer_color)
    except ValueError as err:
        return type(err), str(err)
    return env.obstacles, env.free, env.near_dyer, env.moves


def frozen(*layout):
    try:
        return oracle_bench_tables(*layout)
    except ValueError as err:
        return type(err), str(err)


def test_bench_tables_equal_frozen_builder():
    layouts = list(sampler_layouts())
    assert len(layouts) == 1 + 576 + 2 * 7050  # 576 obstacle sets, 7050 with a dyer
    for layout in layouts:
        assert built(*layout) == frozen(*layout), layout


def test_bench_tables_with_many_obstacles_equal_frozen_builder():
    # the loader and `plan --obstacles` take any count: 500 layouts of 4-14
    # obstacles, in drawn order, at level 2 or with a dyer at levels 3 and 4,
    # which one time in ten sits on an obstacle
    rng = np.random.default_rng(43)
    counts, refused = set(), 0
    for _ in range(500):
        picks = [CELLS[i] for i in rng.permutation(len(CELLS))]
        n, level = int(rng.integers(4, 15)), int(rng.integers(2, 5))
        dyer = None if level == 2 else picks[0] if rng.random() < 0.1 else picks[n]
        layout = (level, tuple(picks[:n]), dyer,
                  None if dyer is None else int(rng.integers(N_COLORS)))
        assert built(*layout) == frozen(*layout), layout
        counts.add((n, dyer is None))
        refused += dyer in picks[:n]
    assert counts == set(itertools.product(range(4, 15), (False, True))) and refused


INVALID_LAYOUTS = (
    (0, (), None, None),
    (5, (), None, None),
    (2, ((3, 0),), None, None),  # obstacles off the grid
    (2, ((0, -1), (1, 1)), None, None),
    (3, ((1, 5),), (0, 0), 2),
    (3, (), (3, 1), 2),  # dyers off the grid
    (4, ((0, 0),), (-1, 4), 2),
    (3, ((1, 1), (2, 2)), (1, 1), 2),  # a dyer on an obstacle
    (4, ((3, 3),), (3, 3), 2),  # ... that is off the grid: the obstacle is named
    (3, (), (1, 1), None),  # a missing dyer color
    (4, ((0, 0),), (1, 1), 6),
    (3, (), (1, 1), -1),
    (2, (), None, 4),  # an extra dyer color
    (2, ((0, 0),), None, 0),
    (1, ((0, 0),), None, None),
    (1, (), (0, 0), 1),
    (2, (), (1, 1), 1),
    (3, ((0, 0),), None, None),
    (4, (), None, 3),
)


def test_invalid_layouts_raise_as_the_frozen_builder_does():
    for layout in INVALID_LAYOUTS:
        error = built(*layout)
        assert error[0] is ValueError, layout
        assert error == frozen(*layout), layout
    # obstacles as lists, unsorted and repeated, are normalized as before
    layout = (3, [[2, 4], (0, 1), (2, 4)], (1, 1), 5)
    assert built(*layout)[0] == ((0, 1), (2, 4))
    assert built(*layout) == frozen(*layout)


@pytest.mark.parametrize("level", (1, 2, 3, 4))
def test_next_code_is_one_entry_of_next_codes(level):
    rng = np.random.default_rng([31, level])
    for _ in range(1 if level == 1 else 40):
        env = random_bench(level, rng)
        for code in range(X_CELLS * Y_CELLS * len(ROTATIONS) * N_COLORS):
            assert [next_code(code, a, env) for a in range(len(ACTIONS))] == \
                oracle_next_codes(code, env), (env, code)
