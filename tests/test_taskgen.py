import ast
import hashlib
import itertools
import pathlib

import numpy as np
import pytest

from benchplan import streams, taskgen
from benchplan.artifacts import save_dataset
from benchplan.taskgen import (
    TEST_FAMILIES,
    TRAIN_FAMILIES,
    GenerationExhausted,
    Unreachable,
    generate_dataset,
    generate_task,
    make_dataset,
    make_unseen_object_split,
    make_unseen_task_split,
    oracle_shortest_plan,
)
from benchplan.workbench import (
    ACTIONS,
    N_COLORS,
    N_SIZES,
    N_TYPES,
    ROTATIONS,
    ActionError,
    EnvConfig,
    ObjectState,
    adjudicate,
    apply_action,
    simulate,
)

SRC = pathlib.Path(taskgen.__file__).parent
SCRIPTS = SRC.parent.parent / "scripts"


def reaches_goal(env, init, goal, seq):
    """Independent replay: does seq legally end at goal's changeable concepts?"""
    state = init
    try:
        for action in seq:
            state = apply_action(state, action, env)
    except ActionError:
        return False
    return (state.pos_x, state.pos_y, state.rotation, state.color) == \
        (goal.pos_x, goal.pos_y, goal.rotation, goal.color)


def exists_shorter_plan(env, init, goal, length):
    """Brute-force enumeration of every action sequence below `length`."""
    for n in range(length):
        for seq in itertools.product(ACTIONS, repeat=n):
            if reaches_goal(env, init, goal, seq):
                return True
    return False


class TestOracle:
    def test_init_equals_goal(self):
        env = EnvConfig(level=1)
        s = ObjectState(0, 1, 1, 0, 2, 0)
        assert oracle_shortest_plan(env, s, s) == ()

    def test_straight_line(self):
        env = EnvConfig(level=1)
        init = ObjectState(0, 0, 0, 0, 0, 0)
        goal = ObjectState(0, 2, 0, 0, 0, 0)
        assert oracle_shortest_plan(env, init, goal) == ("move_right", "move_right")

    def test_unreachable(self):
        # dyer boxed in: color change impossible
        env = EnvConfig(level=3, obstacles=((1, 0), (0, 1)), dyer=(0, 0), dyer_color=3)
        init = ObjectState(0, 2, 2, 0, 0, 0)
        goal = ObjectState(0, 2, 2, 0, 3, 0)
        with pytest.raises(Unreachable):
            oracle_shortest_plan(env, init, goal)

    def test_half_turn_goes_right_before_the_dye(self):
        # init sits on the obstacle next to the dyer; the plan of the BFS over
        # every (cell, rotation, color) state
        env = EnvConfig(level=4, obstacles=((0, 2),), dyer=(1, 2), dyer_color=3)
        init = ObjectState(0, 0, 2, 0, 1, 0)
        goal = ObjectState(0, 2, 4, 180, 3, 0)
        assert oracle_shortest_plan(env, init, goal) == (
            "move_front", "move_right", "rotate_left", "rotate_left", "change_color",
            "move_front", "move_right")

    def test_shortest_against_exhaustive_enumeration(self):
        # oracle plans with gt length <= 4: no shorter sequence may reach the goal
        checked = 0
        for i in range(120):
            task = generate_task(2, np.random.default_rng([100, i]))
            if len(task.gt_actions) > 4:
                continue
            checked += 1
            assert reaches_goal(task.env, task.init, task.goal, task.gt_actions)
            assert not exists_shorter_plan(task.env, task.init, task.goal,
                                           len(task.gt_actions))
        assert checked >= 20


class TestGenerateTask:
    def test_level1_has_no_obstacles_and_short_plans(self):
        for i in range(50):
            task = generate_task(1, np.random.default_rng([101, i]))
            assert task.env.obstacles == ()
            assert task.env.dyer is None
            assert 1 <= len(task.gt_actions) <= 6

    def test_level2_plans_avoid_obstacles(self):
        for i in range(50):
            task = generate_task(2, np.random.default_rng([102, i]))
            assert 1 <= len(task.env.obstacles) <= 3
            trajectory = simulate(task.init, task.gt_actions, task.env)  # no error
            assert all(s.pos not in task.env.obstacles for s in trajectory)

    def test_level3_change_color_applied_adjacent_to_dyer(self):
        saw_change = 0
        for i in range(60):
            task = generate_task(3, np.random.default_rng([103, i]))
            if "change_color" not in task.gt_actions:
                continue
            saw_change += 1
            trajectory = simulate(task.init, task.gt_actions, task.env)
            for step, action in enumerate(task.gt_actions):
                if action == "change_color":
                    pos = trajectory[step]
                    dist = abs(pos.pos_x - task.env.dyer[0]) + \
                        abs(pos.pos_y - task.env.dyer[1])
                    assert dist == 1
        assert saw_change >= 10

    def test_level1_mean_length_in_band(self):
        lengths = [len(generate_task(1, np.random.default_rng([104, i])).gt_actions)
                   for i in range(2000)]
        assert 2.0 <= np.mean(lengths) <= 3.5

    def test_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(taskgen, "MAX_ATTEMPTS", 0)
        with pytest.raises(GenerationExhausted):
            generate_task(1, np.random.default_rng(0))

    def test_bad_level(self):
        """`generate_task`, before it draws a bench, and `EnvConfig` read the one
        level rule, `workbench.LEVEL`, and refuse a level in one text."""
        for level in (0, 5):
            for refuse in (lambda: generate_task(level, np.random.default_rng(0)),
                           lambda: EnvConfig(level=level)):
                with pytest.raises(ValueError, match=rf"^level must be 1\.\.4, got {level}$"):
                    refuse()


class TestDraws:
    def test_below_stays_under_n_at_the_largest_draw(self):
        class Top:  # a generator whose every float is the largest below 1
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        draws = taskgen._Draws(Top())
        for n in [*range(1, 100), *(2**k + d for k in range(7, 53) for d in (-1, 0, 1))]:
            assert draws.below(n) == n - 1, n

    def test_every_obstacle_count_dyer_color_and_color_branch_appears(self):
        seen = {"obstacles": set(), "dyer_color": set(), "branch": set(), "type": set(),
                "size": set(), "rotation": set()}
        for level in (3, 4):
            for task in generate_dataset(level, (2000, 0, 0), seed=21).tasks:
                env, init, goal = task.env, task.init, task.goal
                seen["obstacles"].add(len(env.obstacles))
                seen["dyer_color"].add(env.dyer_color)
                # the forced branch dyes the goal in the dyer's color; the other keeps it
                seen["branch"].add("dye" if init.color != goal.color else "keep")
                if init.color != goal.color:
                    assert goal.color == env.dyer_color
                seen["type"].add(init.type_id)
                seen["size"].add(init.size)
                seen["rotation"].update((init.rotation, goal.rotation))
        assert seen == {"obstacles": {1, 2, 3}, "dyer_color": set(range(N_COLORS)),
                        "branch": {"dye", "keep"}, "type": set(range(N_TYPES)),
                        "size": set(range(N_SIZES)), "rotation": set(ROTATIONS)}

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_a_task_reads_one_random_block_per_32_draws(self, monkeypatch, level):
        class Recording:  # records each generator method called, with its arguments
            def __init__(self, rng):
                self.rng, self.calls = rng, []

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def record(*args, **kwargs):
                    self.calls.append((name, args, kwargs))
                    return method(*args, **kwargs)
                return record

        reads = []
        below = taskgen._Draws.below

        def counted(draws, n):
            reads[-1] += 1
            return below(draws, n)

        monkeypatch.setattr(taskgen._Draws, "below", counted)
        for i in range(1000):
            rng, blocks = Recording(streams.rng(5, "task", i)), 0
            for _ in range(2):  # a second call on one generator, as unseen-task retries make
                reads.append(0)
                generate_task(level, rng)
                blocks += -(-reads[-1] // taskgen.BLOCK)  # each call starts its own block
            assert rng.calls == [("random", (taskgen.BLOCK,), {})] * blocks, i
        # at seed 5, tasks 57, 251 and 337 at levels 2, 3 and 4 read past one block
        assert max(reads) > taskgen.BLOCK or level == 1


class TestGenerateDataset:
    @pytest.mark.parametrize("seed", [0, 11, 2**32 - 1])
    def test_task_i_depends_on_seed_and_i_alone(self, seed):
        small = generate_dataset(4, (10, 0, 0), seed).tasks
        large = generate_dataset(4, (4, 3, 33), seed).tasks[:10]  # other splits too
        assert [(t.task_id, t.env, t.init, t.goal, t.gt_actions) for t in small] == \
            [(t.task_id, t.env, t.init, t.goal, t.gt_actions) for t in large]

    def test_determinism(self):
        a = generate_dataset(1, (30, 5, 10), seed=7)
        b = generate_dataset(1, (30, 5, 10), seed=7)
        assert a.tasks == b.tasks

    def test_split_sizes_and_unique_ids(self):
        ds = generate_dataset(2, (30, 5, 10), seed=3)
        assert len(ds.subset("train")) == 30
        assert len(ds.subset("val")) == 5
        assert len(ds.subset("test")) == 10
        ids = [t.task_id for t in ds.tasks]
        assert len(set(ids)) == len(ids)

    def test_gt_plans_always_succeed(self):
        ds = generate_dataset(3, (40, 5, 10), seed=5)
        for task in ds.tasks:
            assert adjudicate(task, task.gt_actions).success

    def test_level4_length_cap(self):
        ds = generate_dataset(4, (40, 5, 10), seed=5)
        assert all(len(t.gt_actions) <= 16 for t in ds.tasks)

    def test_envs_keep_free_cells_connected(self):
        # any two free cells are mutually reachable in every generated env
        from collections import deque
        ds = generate_dataset(2, (40, 5, 10), seed=9)
        for task in ds.tasks:
            free = [(x, y) for x in range(3) for y in range(5)
                    if (x, y) not in task.env.obstacles + (task.env.dyer,)]
            seen = {free[0]}
            queue = deque([free[0]])
            while queue:
                x, y = queue.popleft()
                for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if n in free and n not in seen:
                        seen.add(n)
                        queue.append(n)
            assert seen == set(free)


class TestUnseenObjectSplit:
    def test_test_tasks_use_held_out_types(self):
        ds = generate_dataset(1, (30, 5, 10), seed=7)
        held = {8, 9, 10, 11}
        out = make_unseen_object_split(ds, held)
        assert all(t.init.type_id in held and t.goal.type_id in held
                   for t in out.subset("test"))
        assert out.subset("train") == ds.subset("train")
        assert out.variant == "unseen_object"

    def test_empty_held_out_is_an_error(self):
        ds = generate_dataset(1, (10, 2, 4), seed=7)
        with pytest.raises(ValueError):
            make_unseen_object_split(ds, set())

    def test_overlap_with_training_types_rejected(self):
        ds = generate_dataset(1, (30, 5, 10), seed=7)
        train_types = {t.init.type_id for t in ds.subset("train")}
        with pytest.raises(ValueError):
            make_unseen_object_split(ds, {next(iter(train_types))})


class TestUnseenTaskSplit:
    def test_families(self):
        ds = make_unseen_task_split(1, (40, 5, 15), seed=7)
        for task in ds.subset("train"):
            used = frozenset(task.gt_actions)
            assert any(used <= fam for fam in TRAIN_FAMILIES)
        for task in ds.subset("test"):
            used = frozenset(task.gt_actions)
            assert used in TEST_FAMILIES  # genuinely unseen combination
            assert not any(used <= fam for fam in TRAIN_FAMILIES)

    def test_level3_unsupported(self):
        with pytest.raises(ValueError, match=r"^variant unseen_task needs level 1 or 2, got 3$"):
            make_unseen_task_split(3, (10, 2, 4), seed=0)

    # a dataset with no task has no level
    @pytest.mark.parametrize("make", [generate_dataset, make_unseen_task_split])
    def test_no_task_is_an_error(self, make):
        with pytest.raises(ValueError, match="^counts must be nonnegative and sum to > 0$"):
            make(1, (0, 0, 0), seed=0)

    def test_determinism(self):
        a = make_unseen_task_split(2, (20, 2, 6), seed=4)
        b = make_unseen_task_split(2, (20, 2, 6), seed=4)
        assert a.tasks == b.tasks


# sha256 of save_dataset's bytes for (40, 5, 5) tasks at seed 11, each variant as
# `make_dataset` builds it (unseen objects: the default 4 types). Every dataset
# digest in this file was re-derived when `generate_task` came to read all of its
# draws from blocks of `rng.random(taskgen.BLOCK)`. A new digest here is a change
# to the oracle's tie-break or to the draw rule, and must be declared as one.
PINNED_DATASETS = {
    ("standard", 1): "ac3682b77d67175fb2659eb5a2cf0a6cadada87cfcae110da2e6b26841d671dd",
    ("standard", 2): "f0ea0223b0e5cbe6fc3a7100615275c9240cce6bc62994993968c1ed74bf3f8a",
    ("standard", 3): "62adc0055d6c9b2a00240b1f79f5cb1a193653e8b5f9df4044794abdd4d9da61",
    ("standard", 4): "8d9eb96b339c852b854de451db4e046ed7840d3b81e318b8af55b8097e767eb6",
    ("unseen_object", 1): "d6f12f020125ec3327230bc5ae62d399e7b84d5a04ed2c68baebba4827a80742",
    ("unseen_object", 3): "99598d3183ac85ece9a8526a57707b75a97c48888a04180f9c0d7a28f2146426",
    ("unseen_task", 1): "6b281c3c9883ba7ce5ec7a431b96787f84241df18f7fc1ae2a5b33cfef55b544",
    ("unseen_task", 2): "3360f92f302b4a346893a96f49c139755dc58ec7af77b79c206faf2a64080798",
}


@pytest.mark.parametrize("variant, level", sorted(PINNED_DATASETS))
def test_dataset_bytes_are_pinned(tmp_path, variant, level):
    save_dataset(str(tmp_path / "data.txt"), make_dataset(variant, level, (40, 5, 5), 11))
    digest = hashlib.sha256((tmp_path / "data.txt").read_bytes()).hexdigest()
    assert digest == PINNED_DATASETS[variant, level]


def test_only_taskgen_builds_a_variant():
    """No module in `src` or `scripts` but `taskgen` compares a variant name,
    calls a `make_unseen_*` split or builds held-out type ids: each reads the
    variant table through `make_dataset` or `VARIANTS`."""
    found = []
    for path in sorted([*SRC.glob("*.py"), *SCRIPTS.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())) if path.name != "taskgen.py" else ():
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func).split(".")[-1]
                if name.startswith("make_unseen_") or (
                        name == "range" and ast.unparse(node.args[0]).startswith("N_TYPES")):
                    found.append((path.name, ast.unparse(node)))
            if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Constant) and side.value in taskgen.VARIANTS
                    for side in (node.left, *node.comparators)):
                found.append((path.name, ast.unparse(node)))
    assert found == []


# sha256 of the save_dataset bytes of the benchmark's own input, level 4 at seed 11
# with 800/100/100 tasks, re-derived under the block draw rule as above
PINNED_BENCHMARK_DATASET = "50f450b230490353df6e65b9c4016eba485eb7fea47f13044b4264857ab1d246"


def test_benchmark_dataset_bytes_are_pinned(tmp_path):
    save_dataset(str(tmp_path / "data.txt"), generate_dataset(4, (800, 100, 100), 11))
    digest = hashlib.sha256((tmp_path / "data.txt").read_bytes()).hexdigest()
    assert digest == PINNED_BENCHMARK_DATASET


# sha256 of the save_dataset bytes of the desk datasets at levels 1-3 (level 4 is
# the benchmark's, above), seed 11, 800/100/100 tasks, re-derived under the block
# draw rule as above
PINNED_DESK_DATASETS = {
    1: "900acb19b0e1eafb83bc76693c4ebec9e9ef3e7aea2020790f4990a6f677074a",
    2: "1db47d09cd2f19c8f61fa24c3bc86bbcbff688d05e09da1864c7b041c27f9074",
    3: "dedcc37b6772937eb96054253109f7180681c3a24d04017cb7e1eb8fcf420082",
}


@pytest.mark.parametrize("level", sorted(PINNED_DESK_DATASETS))
def test_desk_dataset_bytes_are_pinned(tmp_path, level):
    save_dataset(str(tmp_path / "data.txt"), generate_dataset(level, (800, 100, 100), 11))
    digest = hashlib.sha256((tmp_path / "data.txt").read_bytes()).hexdigest()
    assert digest == PINNED_DESK_DATASETS[level]
