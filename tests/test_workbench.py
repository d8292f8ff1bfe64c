import copy
import pickle
import re
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given

from benchplan.workbench import (
    ACTIONS,
    ActionError,
    EnvConfig,
    MAX_TYPES,
    ObjectState,
    SimulationError,
    adjudicate,
    apply_action,
    is_valid_state,
    simulate,
)
from benchplan.taskgen import Task

EMPTY = EnvConfig(level=1)
CELLS = [(x, y) for x in range(3) for y in range(5)]


def state(x=0, y=0, rot=0, color=0, type_id=0, size=0):
    return ObjectState(type_id, x, y, rot, color, size)


states = st.builds(
    state,
    x=st.integers(0, 2),
    y=st.integers(0, 4),
    rot=st.sampled_from((0, 90, 180, 270)),
    color=st.integers(0, 5),
    type_id=st.integers(0, 7),
    size=st.integers(0, 3),
)


@st.composite
def runs(draw):
    """A task on a random bench of levels 1-4, its init on a free cell, and up
    to 12 actions: 0-4 obstacles from level 2, a dyer of any color from level 3."""
    level, cells = draw(st.integers(1, 4)), draw(st.permutations(CELLS))
    n = 0 if level == 1 else draw(st.integers(0, 4))
    dyer = cells[n] if level > 2 else None
    env = EnvConfig(level, tuple(cells[:n]), dyer,
                    None if dyer is None else draw(st.integers(0, 5)))
    x, y = draw(st.sampled_from(cells[n + (dyer is not None):]))
    init = state(x, y, draw(st.sampled_from((0, 90, 180, 270))), draw(st.integers(0, 5)))
    task = Task(env=env, init=init, goal=draw(states), gt_actions=())
    return task, draw(st.lists(st.sampled_from(ACTIONS), max_size=12))


class TestApplyAction:
    def test_move_front_unit_step(self):
        assert apply_action(state(1, 1), "move_front", EMPTY).pos == (1, 2)

    def test_move_right_off_grid(self):
        with pytest.raises(ActionError, match=r"^move_right from \(2, 0\) exits the grid$"):
            apply_action(state(2, 0), "move_right", EMPTY)

    def test_change_color_adjacent_to_dyer(self):
        env = EnvConfig(level=3, obstacles=(), dyer=(1, 1), dyer_color=3)
        out = apply_action(state(1, 0, color=5), "change_color", env)
        assert out.color == 3
        assert out.pos == (1, 0)

    def test_change_color_requires_adjacency(self):
        env = EnvConfig(level=3, dyer=(2, 4), dyer_color=1)
        with pytest.raises(ActionError,
                           match=r"^object at \(0, 0\) not adjacent to dyer at \(2, 4\)$"):
            apply_action(state(0, 0), "change_color", env)
        # diagonal is not adjacent either
        with pytest.raises(ActionError, match=r"^object at \(1, 3\) not adjacent"):
            apply_action(state(1, 3), "change_color", env)

    def test_change_color_without_dyer(self):
        with pytest.raises(ActionError, match="^no dyer on this bench$"):
            apply_action(state(0, 0), "change_color", EMPTY)

    def test_collision_with_obstacle(self):
        env = EnvConfig(level=2, obstacles=((1, 0),))
        with pytest.raises(ActionError, match=r"^move_right from \(0, 0\) hits \(1, 0\)$"):
            apply_action(state(0, 0), "move_right", env)

    def test_dyer_cell_not_traversable(self):
        env = EnvConfig(level=3, dyer=(1, 0), dyer_color=0)
        with pytest.raises(ActionError, match=r"^move_right from \(0, 0\) hits \(1, 0\)$"):
            apply_action(state(0, 0), "move_right", env)

    def test_rotation_wraps(self):
        assert apply_action(state(rot=0), "rotate_left", EMPTY).rotation == 270
        assert apply_action(state(rot=270), "rotate_right", EMPTY).rotation == 0

    @given(s=states, action=st.sampled_from(ACTIONS[:6]))
    def test_type_and_size_never_change(self, s, action):
        try:
            out = apply_action(s, action, EMPTY)
        except ActionError:
            return
        assert out.type_id == s.type_id and out.size == s.size

    @given(s=states)
    def test_move_inverses(self, s):
        for fwd, back in (("move_left", "move_right"), ("move_front", "move_back")):
            try:
                there = apply_action(s, fwd, EMPTY)
            except ActionError:
                continue
            assert apply_action(there, back, EMPTY) == s

    @given(s=states)
    def test_rotate_inverses_and_period(self, s):
        assert apply_action(apply_action(s, "rotate_left", EMPTY),
                            "rotate_right", EMPTY) == s
        four = s
        for _ in range(4):
            four = apply_action(four, "rotate_right", EMPTY)
        assert four == s


class TestValidity:
    def test_free_cell(self):
        assert is_valid_state(state(1, 2), EMPTY)

    def test_obstacle_cell_invalid(self):
        env = EnvConfig(level=2, obstacles=((1, 2),))
        assert not is_valid_state(state(1, 2), env)
        assert is_valid_state(state(1, 3), env)

    def test_dyer_cell_invalid(self):
        env = EnvConfig(level=3, dyer=(0, 4), dyer_color=2)
        assert not is_valid_state(state(0, 4), env)

    def test_off_grid_rejected_by_constructor(self):
        with pytest.raises(ValueError):
            ObjectState(0, 3, 0, 0, 0, 0)

    def test_type_ids_run_below_the_type_cap(self):
        assert ObjectState(MAX_TYPES - 1, 0, 0, 0, 0, 0).type_id == MAX_TYPES - 1
        for type_id in (-1, MAX_TYPES, 100000):
            with pytest.raises(ValueError, match=f"^type_id {type_id} out of range 0..1023$"):
                ObjectState(type_id, 0, 0, 0, 0, 0)

    @given(s=states, rot=st.sampled_from((0, 90, 180, 270)), color=st.integers(0, 5))
    def test_invariant_under_rotation_and_color(self, s, rot, color):
        env = EnvConfig(level=2, obstacles=((1, 1), (2, 3)))
        other = ObjectState(s.type_id, s.pos_x, s.pos_y, rot, color, s.size)
        assert is_valid_state(s, env) == is_valid_state(other, env)


class TestSimulate:
    def test_empty_sequence(self):
        assert simulate(state(2, 2), [], EMPTY) == [state(2, 2)]

    def test_inverse_pair(self):
        traj = simulate(state(0, 0), ["move_right", "move_left"], EMPTY)
        assert [s.pos for s in traj] == [(0, 0), (1, 0), (0, 0)]

    def test_failure_reports_step_index(self):
        env = EnvConfig(level=2, obstacles=((2, 0),))
        with pytest.raises(SimulationError) as err:
            simulate(state(0, 0), ["move_right", "move_right"], env)
        assert str(err.value) == "illegal action at step 1: move_right from (1, 0) hits (2, 0)"
        assert isinstance(err.value.__cause__, ActionError)

    @given(s=states, actions=st.lists(st.sampled_from(ACTIONS[:6]), max_size=6))
    def test_compositionality(self, s, actions):
        cut = len(actions) // 2
        try:
            whole = simulate(s, actions, EMPTY)
        except SimulationError:
            return
        first = simulate(s, actions[:cut], EMPTY)
        second = simulate(first[-1], actions[cut:], EMPTY)
        assert whole == first + second[1:]


class TestAdjudicate:
    def test_empty_sequence_wrong_state(self):
        task = Task(env=EMPTY, init=state(0, 0), goal=state(1, 0),
                    gt_actions=("move_right",))
        report = adjudicate(task, [])
        assert not report.success
        assert report.failure_reason == "wrong_final_state"

    def test_collision_reported(self):
        env = EnvConfig(level=2, obstacles=((1, 0),))
        task = Task(env=env, init=state(0, 0), goal=state(0, 1),
                    gt_actions=("move_front",))
        report = adjudicate(task, ["move_right"])
        assert report.failure_reason == "collision"
        assert report.final_state == state(0, 0)

    def test_level3_requires_color_change(self):
        env = EnvConfig(level=3, dyer=(1, 1), dyer_color=4)
        task = Task(env=env, init=state(0, 0, color=0),
                    goal=state(2, 0, color=4), gt_actions=())
        # reaches the goal cell but never visits the dyer
        report = adjudicate(task, ["move_right", "move_right"])
        assert not report.success
        assert report.failure_reason == "wrong_final_state"

    def test_rotation_only_matters_at_level4(self):
        goal = state(1, 0, rot=90)
        lvl1 = Task(env=EMPTY, init=state(0, 0), goal=goal, gt_actions=())
        assert adjudicate(lvl1, ["move_right"]).success
        env4 = EnvConfig(level=4, obstacles=((0, 4),), dyer=(2, 4), dyer_color=0)
        lvl4 = Task(env=env4, init=state(0, 0), goal=goal, gt_actions=())
        assert not adjudicate(lvl4, ["move_right"]).success
        assert adjudicate(lvl4, ["move_right", "rotate_right"]).success

    @given(run=runs())
    def test_agrees_with_simulate(self, run):
        # the two stepping paths: a legal sequence ends where the trajectory does;
        # otherwise adjudicate stops before the step simulate names, and reports a
        # collision exactly when the message names the cell hit
        task, actions = run
        report = adjudicate(task, actions)
        try:
            path = simulate(task.init, actions, task.env)
        except SimulationError as err:
            step = int(re.match(r"illegal action at step (\d+): ", str(err))[1])
            assert report.failure_reason == ("collision" if " hits " in str(err)
                                             else "illegal_action")
            assert report.final_state == simulate(task.init, actions[:step], task.env)[-1]
        else:
            assert report.failure_reason in ("none", "wrong_final_state")
            assert report.final_state == path[-1]


class TestEnvConfig:
    def test_level1_rejects_obstacles(self):
        with pytest.raises(ValueError):
            EnvConfig(level=1, obstacles=((0, 0),))

    def test_level3_requires_dyer(self):
        with pytest.raises(ValueError):
            EnvConfig(level=3)

    def test_dyer_obstacle_clash(self):
        for dyer in ((1, 1), [1, 1]):
            with pytest.raises(ValueError, match="dyer cell clashes with an obstacle"):
                EnvConfig(level=3, obstacles=((1, 1),), dyer=dyer, dyer_color=0)

    def test_list_cells_equal_tuple_cells(self):
        a = EnvConfig(level=3, obstacles=[[0, 1]], dyer=[1, 1], dyer_color=2)
        b = EnvConfig(level=3, obstacles=((0, 1),), dyer=(1, 1), dyer_color=2)
        assert a == b and hash(a) == hash(b) and a.dyer == (1, 1)
        assert (a.free, a.near_dyer, a.moves) == (b.free, b.near_dyer, b.moves)

    def test_max_len_by_level(self):
        assert EnvConfig(level=1).max_len == 6
        assert EnvConfig(level=2, obstacles=((0, 0),)).max_len == 9
        assert EnvConfig(level=3, dyer=(0, 0), dyer_color=0).max_len == 15
        assert EnvConfig(level=4, dyer=(0, 0), dyer_color=0).max_len == 16

    def test_bench_tables(self):
        env = EnvConfig(level=3, obstacles=((0, 1),), dyer=(1, 1), dyer_color=2)
        cells = [(x, y) for x in range(3) for y in range(5)]
        assert [c for c in cells if not env.free[c[0]][c[1]]] == [(0, 1), (1, 1)]
        assert [c for c in cells if env.near_dyer[c[0]][c[1]]] == \
            [(0, 1), (1, 0), (1, 2), (2, 1)]
        assert not any(any(row) for row in EnvConfig(level=2, obstacles=((0, 1),)).near_dyer)
        # the move table, row by row in ACTIONS order: cell 0 is (0, 0), cell 5 is (1, 0)
        assert env.moves[0:7] == (-2, -1, -1, 5, 0, 0, -3)  # (0, 1) is an obstacle
        assert env.moves[35:42] == (-2, -1, 0, 10, 5, 5, 5)  # (1, 1) is the dyer
        assert len(env.moves) == 15 * len(ACTIONS) and sys.getsizeof(env.moves) <= 1024

    def test_obstacle_order_changes_neither_equality_nor_hash(self):
        a = EnvConfig(level=3, obstacles=((2, 4), (0, 1)), dyer=(1, 1), dyer_color=2)
        b = EnvConfig(level=3, obstacles=((0, 1), (2, 4)), dyer=(1, 1), dyer_color=2)
        assert a == b and hash(a) == hash(b)
        assert (a.free, a.near_dyer, a.moves) == (b.free, b.near_dyer, b.moves)
        assert "free" not in repr(a) and "near_dyer" not in repr(a) and "moves" not in repr(a)

    def test_tables_stay_out_of_equality_and_hash(self):
        a = EnvConfig(level=3, obstacles=((0, 1),), dyer=(1, 1), dyer_color=2)
        b = EnvConfig(level=3, obstacles=((0, 1),), dyer=(1, 1), dyer_color=2)
        object.__setattr__(b, "moves", ())
        object.__setattr__(b, "free", ())
        assert a == b and hash(a) == hash(b)

    def test_pickle_round_trip_keeps_tables(self):
        env = EnvConfig(level=3, obstacles=((0, 1),), dyer=(1, 1), dyer_color=2)
        for twin in (pickle.loads(pickle.dumps(env)), copy.copy(env), copy.deepcopy(env)):
            assert twin == env
            assert (twin.free, twin.near_dyer, twin.moves) == \
                (env.free, env.near_dyer, env.moves)
        # only the init fields are pickled (523 bytes with the tables); loading
        # rebuilds the tables
        assert len(pickle.dumps(env)) <= 96
        assert b"moves" not in pickle.dumps(env)
