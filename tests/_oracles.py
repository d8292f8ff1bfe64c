"""Independent reference implementations used to check the production code.

The propagation oracles recompute probabilities from raw counts with scalar
Python loops — no shared code with the numpy propagation path. The planner
oracles are the two k-best searches frozen before they were merged into one,
the occurrence oracle is the accumulation `fit_transitions` ran before the
model derived its occurrence tables from the counts, and the mask oracle is
the value-space bench mask the symbol masks were once read from. The
simulator oracles are `apply_action`, the BFS oracle and the bench
connectivity check frozen before they read a bench's move table and searched
int state codes. The k-means oracles are the k-means++ init, the Lloyd loop
and `fit_kmeans` frozen before each Lloyd step assigned points by one matmul;
the oracle's labels are each point's broadcast argmin over the sorted centers.
The unbounded planner is `mdp.plan` frozen before its search was bounded by a
goal-distance lower bound, with the MAP successor rule it read per state and
call before `plan` read the model's compiled step tables. The bench-table
oracle is `EnvConfig.__post_init__` frozen before each bench copied its move
table from one grid table, and the encoding oracle is `concepts.encode`
frozen before a trajectory was encoded by one gather and one noise draw.
The adjudication oracle is `workbench.adjudicate` frozen before it walked
state codes, stepping ObjectStates with the frozen `oracle_apply_action`; the
symbolize oracle is its `assign` per concept, frozen before one broadcast over
a padded center table; the snap-trust oracle is the token planner's per-concept
`np.linalg.norm` check, frozen before it read trust off the distance table it
snaps by; the code oracle is `mdp._codes` frozen before it summed strides.
`oracle_next_codes` and `oracle_goal_codes` are the successor and goal codes
the BFS oracle searched, frozen when it came to search cells and a
still-to-dye flag, with the dye and the turns read off in closed form.
`encode_trajectory`, `oracle_fit_transitions` and `oracle_fit_affine` are the
fit's per-task encoding, its Counter over (symbol state, key, symbol state)
triplets and its stacking of each key's (before, after) pair list, frozen when
the fit came to read one whole-split stack with a key id per row; `fit_layout`
puts triplets or pairs into that layout. `point_mass` is the one-hot
distribution over a symbol state that `propagate`'s tests start from.
"""

from collections import Counter, deque
from dataclasses import fields, replace
from itertools import product
from operator import attrgetter
from typing import Sequence

import numpy as np

from benchplan import mdp
from benchplan.concepts import UnknownValue, encode_states
from benchplan.mdp import (
    NoPlanFound,
    Plan,
    PlanResult,
    _key_rank,
    base_action,
)
from benchplan.symbols import (
    DEFAULT_RESTARTS,
    KMEANS_MAX_ITER,
    KMEANS_TOL,
    InsufficientPoints,
    KMeansResult,
    symbolize,
)
from benchplan.token_maps import (
    MIN_PAIRS,
    RIDGE_LAMBDA,
    SNAP_MARGIN,
    ActionTransitionMaps,
    InsufficientPairs,
    _min_center_gaps,
    transition,
)
from benchplan.workbench import (
    _CELL_CODES,
    _N_ACTIONS,
    _RESTS,
    ACTIONS,
    COLOR,
    CONCEPTS,
    MAX_LEN_BY_LEVEL,
    N_COLORS,
    POS_X,
    POS_Y,
    ROTATION,
    ROTATIONS,
    SIZE,
    X_CELLS,
    Y_CELLS,
    ActionError,
    Collision,
    DyerUnavailable,
    ObjectState,
    OutOfBounds,
    SuccessReport,
    goal_concepts,
    simulate,
    state_code,
)

# the concepts the planners matched a goal on at every level, before the goal
# rule was read from workbench.goal_concepts: pos_x, pos_y, rotation, color
CHANGEABLE_CONCEPTS = (1, 2, 3, 4)


_MOVE_DELTAS = {
    "move_front": (0, 1),
    "move_back": (0, -1),
    "move_left": (-1, 0),
    "move_right": (1, 0),
}


def oracle_apply_action(state, action, env):
    """`workbench.apply_action`, frozen: the rules written out per action."""
    if action in _MOVE_DELTAS:
        dx, dy = _MOVE_DELTAS[action]
        nx, ny = state.pos_x + dx, state.pos_y + dy
        if not (0 <= nx < X_CELLS and 0 <= ny < Y_CELLS):
            raise OutOfBounds(f"{action} from {state.pos} exits the grid")
        if not env.free[nx][ny]:
            raise Collision(f"{action} from {state.pos} hits {(nx, ny)}")
        return replace(state, pos_x=nx, pos_y=ny)
    if action == "rotate_left":
        return replace(state, rotation=(state.rotation - 90) % 360)
    if action == "rotate_right":
        return replace(state, rotation=(state.rotation + 90) % 360)
    if action == "change_color":
        if env.dyer is None:
            raise DyerUnavailable("no dyer on this bench")
        if not env.near_dyer[state.pos_x][state.pos_y]:
            raise DyerUnavailable(f"object at {state.pos} not adjacent to dyer at {env.dyer}")
        return replace(state, color=env.dyer_color)
    raise ValueError(f"unknown action {action!r}")


def oracle_bfs(env, init, goal):
    """`taskgen.oracle_shortest_plan`, frozen: BFS over `ObjectState`s through
    `oracle_apply_action`, ACTIONS order as tie-break, each new state tested on
    the fields `goal_concepts(env.level)` names. None when unreachable."""
    names = [f.name for f in fields(ObjectState)]  # in CONCEPTS order
    key = attrgetter(*(names[k] for k in goal_concepts(env.level)))
    target = key(goal)
    if key(init) == target:
        return ()
    parents = {init: None}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        for action in ACTIONS:
            try:
                nxt = oracle_apply_action(state, action, env)
            except ActionError:
                continue
            if nxt in parents:
                continue
            parents[nxt] = (state, action)
            if key(nxt) == target:
                plan = []
                node = nxt
                while parents[node] is not None:
                    node, action = parents[node]
                    plan.append(action)
                return tuple(reversed(plan))
            queue.append(nxt)
    return None


def oracle_cells_connected(blocked):
    """`taskgen._free_cells_connected`, frozen: BFS over the free cells."""
    free = [(x, y) for x in range(X_CELLS) for y in range(Y_CELLS)
            if (x, y) not in blocked]
    if not free:
        return False
    seen = {free[0]}
    queue = deque([free[0]])
    while queue:
        x, y = queue.popleft()
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx < X_CELLS and 0 <= ny < Y_CELLS and (nx, ny) not in blocked \
                    and (nx, ny) not in seen:
                seen.add((nx, ny))
                queue.append((nx, ny))
    return len(seen) == len(free)


def oracle_bench_tables(level, obstacles=(), dyer=None, dyer_color=None):
    """`EnvConfig.__post_init__`, frozen: its checks in their order, then the
    normalized obstacles and the free, near_dyer and moves tables, each cell
    and action tested in turn."""
    if level not in MAX_LEN_BY_LEVEL:
        raise ValueError(f"level must be 1..4, got {level}")
    cells = tuple(sorted(set(map(tuple, obstacles))))
    for c in cells:
        if not (0 <= c[0] < X_CELLS and 0 <= c[1] < Y_CELLS):
            raise ValueError(f"obstacle {c} off the grid")
    if level == 1 and (cells or dyer is not None):
        raise ValueError("level 1 admits no obstacles and no dyer")
    if level == 2 and dyer is not None:
        raise ValueError("level 2 admits no dyer")
    if level >= 3 and dyer is None:
        raise ValueError(f"level {level} requires a dyer")
    if dyer is not None:
        if dyer in cells:
            raise ValueError("dyer cell clashes with an obstacle")
        if not (0 <= dyer[0] < X_CELLS and 0 <= dyer[1] < Y_CELLS):
            raise ValueError(f"dyer {dyer} off the grid")
        if dyer_color is None or not 0 <= dyer_color < N_COLORS:
            raise ValueError("a dyer needs a color in 0..5")
    elif dyer_color is not None:
        raise ValueError("dyer_color given without a dyer")
    near = set() if dyer is None else {
        (dyer[0] + dx, dyer[1] + dy) for dx, dy in _MOVE_DELTAS.values()}
    grid = [[(x, y) for y in range(Y_CELLS)] for x in range(X_CELLS)]
    free = tuple(tuple(c not in cells and c != dyer for c in col) for col in grid)
    near_dyer = tuple(tuple(c in near for c in col) for col in grid)
    off_grid, collision, no_dyer = -1, -2, -3
    moves = tuple(
        off_grid if not (0 <= x + dx < X_CELLS and 0 <= y + dy < Y_CELLS)
        else collision if action in _MOVE_DELTAS and not free[x + dx][y + dy]
        else no_dyer if action == "change_color" and (x, y) not in near
        else (x + dx) * Y_CELLS + y + dy
        for x, y in product(range(X_CELLS), range(Y_CELLS))
        for action in ACTIONS for dx, dy in [_MOVE_DELTAS.get(action, (0, 0))])
    return cells, free, near_dyer, moves


def oracle_encode(state, codebook, noise_sigma=0.0, rng=None):
    """`concepts.encode`, frozen: each concept's centroid row copied in turn,
    then one (6, dim) noise draw."""
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be nonnegative, got {noise_sigma}")
    tokens = np.empty((len(CONCEPTS), codebook.dim))
    for k, v in enumerate(state.values()):
        table = codebook.centroids[k]
        if not 0 <= v < len(table):
            raise UnknownValue(f"{CONCEPTS[k]} value {v} outside codebook "
                               f"(cardinality {len(table)})")
        tokens[k] = table[v]
    if noise_sigma > 0:
        if rng is None:
            raise ValueError("noisy encoding needs a caller-provided rng")
        tokens = tokens + rng.normal(0.0, noise_sigma, tokens.shape)
    return tokens


def _sq_dists(points, centers):
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n, dim = points.shape
    centers = np.empty((k, dim))
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:  # fewer distinct points than k; fall back to uniform picks
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def oracle_lloyd(points: np.ndarray,
                 centers: np.ndarray) -> tuple[np.ndarray, float, int, list[float]]:
    """`symbols._lloyd`, frozen: broadcast distances and one mask per cluster."""
    k = len(centers)
    history: list[float] = []
    inertia = np.inf
    iterations = 0
    for it in range(KMEANS_MAX_ITER):
        iterations = it + 1
        d2 = _sq_dists(points, centers)
        labels = d2.argmin(axis=1)
        point_costs = d2[np.arange(len(points)), labels]
        inertia = float(point_costs.sum())
        history.append(inertia)
        new_centers = centers.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centers[j] = points[members].mean(axis=0)
            else:
                # re-seed an empty cluster from the farthest point
                new_centers[j] = points[int(point_costs.argmax())]
        shift = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers = new_centers
        if shift < KMEANS_TOL:
            break
    d2 = _sq_dists(points, centers)
    inertia = float(d2.min(axis=1).sum())
    return centers, inertia, iterations, history


def oracle_fit_kmeans(points: Sequence[np.ndarray] | np.ndarray, k: int,
                      seed: int | Sequence[int],
                      restarts: int = DEFAULT_RESTARTS) -> KMeansResult:
    """`symbols.fit_kmeans`, frozen with the Lloyd step above."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(pts) < k:
        raise InsufficientPoints(f"{len(pts)} points for k={k}")
    seed_key = [seed] if isinstance(seed, int) else list(seed)
    best: tuple[np.ndarray, float, int, list[float]] | None = None
    for r in range(restarts):
        rng = np.random.default_rng([*seed_key, r])
        init = _kmeanspp_init(pts, k, rng)
        result = oracle_lloyd(pts, init)
        if best is None or result[1] < best[1]:
            best = result
    centers, inertia, iterations, _ = best
    order = np.lexsort(centers.T[::-1])  # canonical: sort rows lexicographically
    return KMeansResult(centers=centers[order], inertia=inertia, iterations=iterations,
                        labels=_sq_dists(pts, centers[order]).argmin(axis=1))


def oracle_occurrences(triplets, cardinalities):
    """(action keys, atomic actions, per-concept occurrence tables) of triplets.

    Frozen from `fit_transitions`: one increment per triplet and concept at
    (source symbol, atomic action).
    """
    keys = tuple(sorted({t[1] for t in triplets}, key=_key_rank))
    bases = tuple(sorted({base_action(t[1]) for t in triplets}, key=ACTIONS.index))
    base_pos = {a: i for i, a in enumerate(bases)}
    occ = [np.zeros((c, len(bases)), dtype=np.int64) for c in cardinalities]
    for before, key, _ in triplets:
        j = base_pos[base_action(key)]
        for k in range(len(cardinalities)):
            occ[k][before[k], j] += 1
    return keys, bases, occ


def oracle_masks(env, x_values, y_values, cardinalities):
    """(valid, adjacent, per_concept, dyer_color) of a bench, frozen from the
    value-space build: the joint grid of free cells, its per-axis marginals
    read through the position value maps, and each symbol pair's grid cell."""
    joint = np.ones((X_CELLS, Y_CELLS), dtype=bool)
    for (x, y) in env.obstacles + ((env.dyer,) if env.dyer is not None else ()):
        joint[x, y] = False
    per = []
    for k, c in enumerate(cardinalities):
        if k == 1:
            per.append(np.array([joint.any(axis=1)[v] for v in x_values]))
        elif k == 2:
            per.append(np.array([joint.any(axis=0)[v] for v in y_values]))
        else:
            per.append(np.ones(c, dtype=bool))

    def cell_of(sx, sy):
        return (x_values[sx], y_values[sy])

    def adjacent(sx, sy):
        if env.dyer is None:
            return False
        x, y = cell_of(sx, sy)
        return abs(x - env.dyer[0]) + abs(y - env.dyer[1]) == 1

    pairs = [[(sx, sy) for sy in range(len(y_values))] for sx in range(len(x_values))]
    return (tuple(tuple(bool(joint[cell_of(*p)]) for p in row) for row in pairs),
            tuple(tuple(adjacent(*p) for p in row) for row in pairs),
            tuple(per), env.dyer_color)


def _base_index(model, key):
    try:
        return model.base_actions.index(base_action(key))
    except ValueError:
        return None


def oracle_step(model, concept, vec, key, valid):
    """One reasoning step: legality gate, transition, destination mask, renormalize."""
    card = model.cardinalities[concept]
    base = _base_index(model, key)
    occ = model.occurrences[concept]
    trans = model.counts[key][concept]
    out = [0.0] * card
    for w in range(card):
        if vec[w] == 0.0:
            continue
        total_at_w = int(occ[w].sum())
        p_action = occ[w][base] / total_at_w if total_at_w else 0.0
        if not p_action > model.thresh:
            continue
        row_total = int(trans[w].sum())
        if row_total == 0:
            continue
        for w2 in range(card):
            if trans[w, w2]:
                out[w2] += vec[w] * (trans[w, w2] / row_total)
    out = [p if valid[concept][w2] else 0.0 for w2, p in enumerate(out)]
    total = sum(out)
    if total == 0.0:
        return None
    return [p / total for p in out]


def oracle_sequence(model, concept, start, keys, valid):
    """Stepwise composition from a point mass; None when all mass dies."""
    vec = [0.0] * model.cardinalities[concept]
    vec[start] = 1.0
    for key in keys:
        vec = oracle_step(model, concept, vec, key, valid)
        if vec is None:
            return None
    return vec


def oracle_paths(model, concept, start, keys, valid):
    """Literal sum over all symbol paths, one renormalization at the end."""
    card = model.cardinalities[concept]
    occ = model.occurrences[concept]

    def factor(w, key, w2):
        base = _base_index(model, key)
        total_at_w = int(occ[w].sum())
        p_action = occ[w][base] / total_at_w if total_at_w else 0.0
        if not p_action > model.thresh:
            return 0.0
        trans = model.counts[key][concept]
        row_total = int(trans[w].sum())
        if row_total == 0:
            return 0.0
        p = trans[w, w2] / row_total
        return p if valid[concept][w2] else 0.0

    weights = [0.0] * card
    paths = [([start], 1.0)]
    for key in keys:
        new_paths = []
        for path, weight in paths:
            for w2 in range(card):
                f = factor(path[-1], key, w2)
                if f:
                    new_paths.append((path + [w2], weight * f))
        paths = new_paths
    for path, weight in paths:
        weights[path[-1]] += weight
    total = sum(weights)
    if total == 0.0:
        return None
    return [w / total for w in weights]


# ---------------------------------------------------------------------------
# k-best planners, frozen as they were before the shared layered search.
# Each planner keeps its own loop, rank dict and availability rule, and the
# symbolic one rescans the probability rows for legality and MAP successors
# on every call. Only the key lookups in `_oracle_action_legal` differ from
# the frozen code (the model no longer has `key_index` or `base_index`).


def _oracle_action_legal(model, state, key):
    j = _base_index(model, key)
    if key not in model.action_keys or j is None:
        return False
    return all(model.act_p[k][state[k], j] > model.thresh
               for k in range(len(model.cardinalities)))


def _oracle_map_successor(model, state, key):
    succ = []
    prob = 1.0
    for k in range(len(model.cardinalities)):
        row = model.trans_p[key][k][state[k]]
        total = row.sum()
        if total <= 0.0:
            return None
        w2 = int(row.argmax())
        succ.append(w2)
        prob *= float(row[w2])
    return tuple(succ), prob


def _oracle_matches_goal(state, goal):
    return all(state[c] == goal[c] for c in CHANGEABLE_CONCEPTS)


def _oracle_available_keys(model, masks):
    keys = []
    for key in model.action_keys:
        base, _, ctx = key.partition("@")
        if base == "change_color" and ctx and (
                masks.dyer_color is None or int(ctx) != masks.dyer_color):
            continue
        keys.append(key)
    return tuple(keys)


def oracle_plan(model, init, goal, masks, top_k=5, l_max=16):
    """`mdp.plan` as it was: its own layered loop over the MAP symbol graph."""
    if not masks.position_valid(init):
        raise ValueError("initial symbol state is invalid under the masks")
    warnings = tuple(
        f"init/goal mismatch on unchangeable concept {c}"
        for c in (0, 5) if init[c] != goal[c])
    if _oracle_matches_goal(init, goal):
        return PlanResult(plans=(Plan((), 1.0),), warnings=warnings)

    rank = {key: i for i, key in enumerate(model.action_keys)}

    def seq_rank(seq):
        return tuple(rank[k] for k in seq)

    def order(entry):
        return (-entry[0], seq_rank(entry[1]))

    keys = _oracle_available_keys(model, masks)
    results = []
    layer = {init: [(1.0, ())]}
    for _ in range(l_max):
        if len(results) >= top_k:
            break
        successors = {}
        for state in sorted(layer):
            entries = layer[state]
            for key in keys:
                if not _oracle_action_legal(model, state, key):
                    continue
                if (base_action(key) == "change_color"
                        and not masks.adjacent[state[POS_X]][state[POS_Y]]):
                    continue
                step = _oracle_map_successor(model, state, key)
                if step is None:
                    continue
                succ, step_p = step
                if not masks.position_valid(succ):
                    continue
                bucket = successors.setdefault(succ, [])
                bucket.extend((score * step_p, seq + (key,))
                              for score, seq in entries)
        layer = {}
        arrivals = []
        for state, bucket in successors.items():
            bucket.sort(key=order)
            layer[state] = bucket[:top_k]
            if _oracle_matches_goal(state, goal):
                arrivals.extend(layer[state])
        arrivals.sort(key=order)
        results.extend(arrivals)
        if not layer:
            break
    if not results:
        raise NoPlanFound(f"no plan within {l_max} steps")
    return PlanResult(plans=tuple(Plan(seq, score)
                                  for score, seq in results[:top_k]),
                      warnings=warnings)


def _oracle_tokenspace_keys(maps, masks):
    keys = []
    for key in maps.action_keys:
        base, _, ctx = key.partition("@")
        if base == "change_color" and (masks.dyer_color is None
                                       or int(ctx) != masks.dyer_color):
            continue
        keys.append(key)
    return keys


def oracle_snap_trusted(tokens, snapped, symbolizer, gaps):
    """`token_maps._snap_trusted` as it was: each concept's token within
    SNAP_MARGIN of its gap from its snapped center, by `np.linalg.norm`."""
    for k, centers in enumerate(symbolizer.centers):
        if np.linalg.norm(tokens[k] - centers[snapped[k]]) > SNAP_MARGIN * gaps[k]:
            return False
    return True


def oracle_plan_tokenspace(maps, init_tokens, goal_tokens, symbolizer, masks,
                           top_k=5, l_max=16):
    """`token_maps.plan_tokenspace` as it was: its own layered loop in token space."""
    goal_sym = symbolize(goal_tokens, symbolizer)
    goal_key = tuple(goal_sym[c] for c in CHANGEABLE_CONCEPTS)

    def goal_dist(tokens):
        return float(np.linalg.norm(tokens - goal_tokens))

    keys = _oracle_tokenspace_keys(maps, masks)
    rank = {key: i for i, key in enumerate(maps.action_keys)}

    def order(entry):
        return (goal_dist(entry[0]), tuple(rank[k] for k in entry[1]))

    init_sym = symbolize(init_tokens, symbolizer)
    if tuple(init_sym[c] for c in CHANGEABLE_CONCEPTS) == goal_key:
        return PlanResult(plans=(Plan((), -goal_dist(init_tokens)),))

    gaps = _min_center_gaps(symbolizer)
    results = []
    layer = {init_sym: [(init_tokens, ())]}
    for _ in range(l_max):
        if len(results) >= top_k:
            break
        successors = {}
        for sym_state in sorted(layer):
            for tokens, seq in layer[sym_state]:
                for key in keys:
                    nxt = transition(tokens, key, maps)
                    nxt_sym = symbolize(nxt, symbolizer)
                    if not oracle_snap_trusted(nxt, nxt_sym, symbolizer, gaps):
                        continue
                    if not masks.position_valid(nxt_sym):
                        continue
                    successors.setdefault(nxt_sym, []).append((nxt, seq + (key,)))
        layer = {}
        arrivals = []
        for sym_state, bucket in successors.items():
            bucket.sort(key=order)
            layer[sym_state] = bucket[:top_k]
            if tuple(sym_state[c] for c in CHANGEABLE_CONCEPTS) == goal_key:
                arrivals.extend(layer[sym_state])
        arrivals.sort(key=order)
        results.extend(arrivals)
        if not layer:
            break
    if not results:
        raise NoPlanFound(f"no token-space plan within {l_max} steps")
    return PlanResult(plans=tuple(Plan(seq, -goal_dist(tokens))
                                  for tokens, seq in results[:top_k]))


# ---------------------------------------------------------------------------
# the symbolic planner frozen before its search was bounded: each symbol
# state's steps compiled once per call, and the batched layered k-best loop
# with no bound. It reads the model's per-concept tables through the scalar
# `mdp.action_legal` and the MAP successor rule `plan` read before it planned
# over compiled step tables, `oracle_map_successor`.


def oracle_map_successor(model, state, key):
    """`mdp._map_successor` as it was: a key's MAP successor of a symbol state
    and its step probability, or None where a concept's row is unseen."""
    succ = []
    prob = 1.0
    for w, nxt, nxt_p in zip(state, model.succ[key], model.succ_p[key]):
        w2 = nxt[w]
        if w2 < 0:
            return None
        succ.append(w2)
        prob *= nxt_p[w]
    return tuple(succ), prob


def oracle_compiled_steps(model, masks, keys, state):
    """A symbol state's (successor, step probability, rank) steps under `keys`."""
    steps = []
    for rank, key in enumerate(keys):
        if not mdp.action_legal(model, state, key):
            continue
        if (base_action(key) == "change_color"
                and not masks.adjacent[state[POS_X]][state[POS_Y]]):
            continue
        step = oracle_map_successor(model, state, key)
        if step is not None and masks.position_valid(step[0]):
            steps.append((*step, rank))
    return steps


def _oracle_batched_kbest(init, start_entry, expand, is_goal, top_k, l_max):
    def rank_entries(entries):
        entries.sort(key=lambda entry: entry[1])
        entries.sort(key=lambda entry: entry[0], reverse=True)

    results = []
    layer = {init: [start_entry]}
    for _ in range(l_max):
        if len(results) >= top_k or not layer:
            break
        successors = {}
        for node, entries in layer.items():
            for succ, batch in expand(node, entries):
                successors.setdefault(succ, []).extend(batch)
        layer = {}
        arrivals = []
        for node, bucket in successors.items():
            rank_entries(bucket)
            layer[node] = bucket[:top_k]
            if is_goal(node):
                arrivals.extend(layer[node])
        rank_entries(arrivals)
        results.extend(arrivals)
    if not results:
        raise NoPlanFound(f"no plan within {l_max} steps")
    return results[:top_k]


def oracle_unbounded_plan(model, init, goal, masks, top_k=5, l_max=16):
    """`mdp.plan` as it was: the compiled-step search with no goal-distance bound."""
    if not masks.position_valid(init):
        raise mdp.InvalidInit("initial symbol state is invalid under the masks")
    warnings = tuple(f"init/goal mismatch on unchangeable concept {c}"
                     for c in (0, 5) if init[c] != goal[c])
    is_goal = masks.goal_test(goal)
    if is_goal(init):
        return PlanResult(plans=(Plan((), 1.0),), warnings=warnings)

    keys = mdp.available_keys(model, masks)
    compiled = {}

    def expand(state, entries):
        if state not in compiled:
            compiled[state] = oracle_compiled_steps(model, masks, keys, state)
        for succ, step_p, rank in compiled[state]:
            yield succ, [(score * step_p, seq + (rank,), None)
                         for score, seq, _ in entries]

    found = _oracle_batched_kbest(init, (1.0, (), None), expand, is_goal, top_k, l_max)
    return PlanResult(plans=tuple(
        Plan(tuple(keys[r] for r in seq), score)
        for score, seq, _ in found), warnings=warnings)


def oracle_next_codes(code, env):
    """`workbench.next_codes`, frozen: the state code after each of ACTIONS;
    the move table's code (< 0) if illegal."""
    cell, rest = divmod(code, _CELL_CODES)
    return [dest if dest < 0 else dest * _CELL_CODES + after for dest, after in zip(
        env.moves[cell * _N_ACTIONS:(cell + 1) * _N_ACTIONS], _RESTS[env.dyer_color or 0][rest])]


def oracle_goal_codes(goal, level):
    """`workbench.goal_codes`, frozen: the state codes of every state that
    matches goal on goal_concepts(level)."""
    fixed, values = goal_concepts(level), goal.values()
    return frozenset(state_code(*c) for c in product(*(
        (values[k],) if k in fixed else range(n)
        for k, n in ((POS_X, X_CELLS), (POS_Y, Y_CELLS),
                     (ROTATION, len(ROTATIONS)), (COLOR, N_COLORS)))))


def oracle_adjudicate(task, actions):
    """`workbench.adjudicate` as it was: an ObjectState per step, the failure
    reason from the error class, and the goal test on the goal's state codes."""
    current = task.init
    for action in actions:
        try:
            current = oracle_apply_action(current, action, task.env)
        except ActionError as err:
            reason = "collision" if isinstance(err, Collision) else "illegal_action"
            return SuccessReport(reason, current)
    if state_code(*current.values()[POS_X:SIZE]) in oracle_goal_codes(task.goal, task.env.level):
        return SuccessReport("none", current)
    return SuccessReport("wrong_final_state", current)


def oracle_symbolize(tokens, symbolizer):
    """`symbols.symbolize` as it was: `assign` per concept, the nearest center
    by a row sum over dim and argmin, ties to the lowest index."""
    return tuple(int(((centers - token) ** 2).sum(axis=1).argmin())
                 for token, centers in zip(tokens, symbolizer.centers))


def oracle_codes(symbols, cards):
    """`mdp._codes` as it was: the product's codes by ravel_multi_index."""
    return np.ravel_multi_index(np.ix_(*symbols), cards, order="F").ravel(order="F")


def encode_trajectory(task, codebook, sigma, rng):
    """States along the gt plan and their (T, 6, dim) token observations: the
    per-task encoding `fitting.fit_pipeline` made before it fit the split as arrays."""
    states = simulate(task.init, task.gt_actions, task.env)
    return states, encode_states(states, codebook, sigma, rng)


def oracle_fit_transitions(triplets, cardinalities, thresh=mdp.DEFAULT_THRESH):
    """`mdp.fit_transitions` as it was: a Counter over (key, concept, w, w')
    of (symbol state, key, symbol state) triplets, added by `count_tables`."""
    cards = tuple(int(c) for c in cardinalities)
    tally = Counter((key, k, w, w2) for before, key, after in triplets
                    for k, (w, w2) in enumerate(zip(before, after, strict=True)))
    if not tally:
        raise ValueError("need at least one triplet")
    counts = mdp.count_tables(((*row, n) for row, n in tally.items()), cards)
    return mdp.TransitionModel(cardinalities=cards, thresh=thresh, counts=counts)


def oracle_fit_affine(pairs_by_action, dim):
    """`token_maps.fit_affine` as it was: each key's list of (before, after)
    token pairs stacked, then the same normal equations."""
    keys = [k for k, pairs in pairs_by_action.items() if len(pairs) >= MIN_PAIRS]
    if not keys:
        raise InsufficientPairs(f"no action has the {MIN_PAIRS} pairs a token map needs")
    width = 6 * dim
    matrices, offsets, mses = {}, {}, {}
    for key in keys:
        pairs = pairs_by_action[key]
        x = np.stack([before.ravel() for before, _ in pairs])
        y = np.stack([after.ravel() for _, after in pairs])
        xa = np.hstack([x, np.ones((len(x), 1))])
        gram = xa.T @ xa + RIDGE_LAMBDA * np.eye(width + 1)
        w = np.linalg.solve(gram, xa.T @ y)  # (width+1, width)
        matrices[key] = w[:-1].T.copy()
        offsets[key] = w[-1].copy()
        mses[key] = float(((xa @ w - y) ** 2).mean())
    return ActionTransitionMaps(dim=dim, matrices=matrices, offsets=offsets,
                                residual_mse=mses)


def fit_layout(steps):
    """The (stack, key ids, key names) layout that `mdp.fit_transitions` and
    `token_maps.fit_affine` read, of (before, key, after) steps, each step a
    two-row path; key names in first-seen order."""
    names, stack, key_ids = {}, [], []
    for before, key, after in steps:
        stack += [before, after]
        key_ids += [names.setdefault(key, len(names)), -1]
    return np.array(stack), np.array(key_ids, dtype=np.intp), tuple(names)


def point_mass(state: mdp.SymbolState, cardinalities: Sequence[int]) -> list[np.ndarray]:
    dist = []
    for k, c in enumerate(cardinalities):
        v = np.zeros(c)
        v[state[k]] = 1.0
        dist.append(v)
    return dist
