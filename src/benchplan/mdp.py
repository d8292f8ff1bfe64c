"""Symbol-level transition model and legality-checked goal-conditioned planning.

The model records per-concept (input symbol, action, output symbol) counts
and derives per-concept action-occurrence counts from them. Planning
propagates the factored symbol distribution under three gates per step: an
action-legality indicator (empirical action probability above a threshold),
the learned transition matrix, and a state-validity mask over destinations
with renormalization.

Position validity couples the two position concepts, so validity is evaluated
on the joint (x, y) grid and marginalized onto each axis for distribution
propagation; the k-best plan search checks successor validity on the joint
grid directly. Both are tabulated once per bench on the position symbols.

The model compiles its legality indicator and its MAP successors into per-key
lookup tables once, when it is built; propagation and planning read them.
`layered_kbest` is the one k-best search of the package; its expand step hands
over each successor's entries as one batch. `plan` runs it over MAP successors
of symbol states, compiled once per state and call, and the token-space
ablation (`token_maps.plan_tokenspace`) over affine-map successors of tokens.

`plan` bounds its search by a goal distance: one backward BFS per call over
the goal concepts' symbols alone, with the legality gate, type and size
dropped, gives each state a lower bound on the steps left to the goal. A step
whose depth plus that bound exceeds the search's bound cannot lie on a plan
within it, so it is skipped; when too few plans come back the bound rises to
the smallest value skipped and the search runs again (the iterative-deepening
bound of IDA*). The plans are exactly those of the unbounded search.

Actions are referred to by key. Movement and rotation keys equal the action
names. change_color is context-dependent in truth (the object takes the
dyer's color), so its counts are keyed per dyer color — "change_color@3".
`action_key` is the one key rule: the fit counts each action under the key it
gives, and a bench offers exactly the keys it gives for the bench's dyer. Only
this module parses, orders or matches a key. Adjacency to the dyer is likewise
an environment-derived legality: the factored occurrence counts pooled over
benches with differently placed dyers cannot express it, so the search gates
change_color on adjacency using the bench masks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .workbench import ACTIONS, POS_X, POS_Y, SIZE, TYPE, EnvConfig, goal_concepts

DEFAULT_THRESH = 0.01

SymbolState = tuple[int, ...]


class DeadDistribution(Exception):
    """Propagation eliminated all probability mass (impossible action)."""


class NoPlanFound(Exception):
    """Search exhausted its length budget without reaching the goal."""


class InvalidInit(ValueError):
    """The initial symbol state sits on a cell the bench masks out."""


def action_key(action: str, dyer_color: int | None) -> str:
    """Model key for an action on a bench whose dyer has `dyer_color` (None
    without a dyer). The one key rule: a bench offers exactly these keys."""
    if action == "change_color" and dyer_color is not None:
        return f"change_color@{dyer_color}"
    return action


def base_action(key: str) -> str:
    return key.split("@", 1)[0]


def _key_rank(key: str) -> tuple[int, int]:
    base, _, ctx = key.partition("@")
    return (ACTIONS.index(base), int(ctx) if ctx else -1)


@dataclass
class TransitionModel:
    """Per-concept count tables N_k[a][w][w'], from which all else derives.

    Transition counts are keyed by context key (change_color split per dyer
    color). The occurrence tables M_k[w][j], the basis of the legality
    indicator, are defined on the atomic actions: M_k[:, j] sums the rows of
    N_k over the keys whose atomic action is j.
    """

    cardinalities: tuple[int, ...]
    thresh: float
    counts: dict[str, list[np.ndarray]]  # key -> per concept (k_k, k_k) ints
    # derived from the counts: the observed keys and atomic actions in action
    # order, occurrences per concept (k_k, n_base_actions), the probabilities,
    # and per key, concept and symbol the legality indicator, the MAP
    # successor (-1 for an unseen row) and its probability
    action_keys: tuple[str, ...] = field(init=False)
    base_actions: tuple[str, ...] = field(init=False)
    occurrences: list[np.ndarray] = field(init=False, repr=False)
    trans_p: dict[str, list[np.ndarray]] = field(init=False, repr=False)
    act_p: list[np.ndarray] = field(init=False, repr=False)
    legal: dict[str, list[list[bool]]] = field(init=False, repr=False)
    succ: dict[str, list[list[int]]] = field(init=False, repr=False)
    succ_p: dict[str, list[list[float]]] = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.thresh < 1:
            raise ValueError("thresh must lie in (0, 1)")
        self.action_keys = tuple(sorted(self.counts, key=_key_rank))
        self.base_actions = tuple(sorted({base_action(k) for k in self.action_keys},
                                         key=ACTIONS.index))
        base_of = [self.base_actions.index(base_action(k)) for k in self.action_keys]
        self.occurrences = [np.zeros((c, len(self.base_actions)), dtype=np.int64)
                            for c in self.cardinalities]
        for key, j in zip(self.action_keys, base_of):
            for occ, n in zip(self.occurrences, self.counts[key]):
                occ[:, j] += n.sum(axis=1)
        self.act_p = [_row_normalized(m) for m in self.occurrences]
        self.trans_p, self.legal, self.succ, self.succ_p = {}, {}, {}, {}
        for key, j in zip(self.action_keys, base_of):
            mats = self.trans_p[key] = [_row_normalized(n) for n in self.counts[key]]
            self.legal[key] = [(p[:, j] > self.thresh).tolist() for p in self.act_p]
            best = [p.argmax(axis=1) for p in mats]
            self.succ[key] = [np.where(p.sum(axis=1) > 0.0, b, -1).tolist()
                              for p, b in zip(mats, best)]
            self.succ_p[key] = [p[np.arange(len(p)), b].tolist()
                                for p, b in zip(mats, best)]


def _row_normalized(counts: np.ndarray) -> np.ndarray:
    """Rows divided by their sums; all-zero rows stay zero."""
    row_tot = counts.sum(axis=1, keepdims=True)
    return np.where(row_tot > 0, counts / np.maximum(row_tot, 1), 0.0)


def count_tables(rows: Iterable[tuple[str, int, int, int, int]],
                 cardinalities: Sequence[int]) -> dict[str, list[np.ndarray]]:
    """Count tables from (key, k, w, w', n) rows, the one checked way to add a
    count: k a concept, w and w' its symbols, n >= 1, else ValueError."""
    counts: dict[str, list[np.ndarray]] = {}
    for key, k, w, w2, n in rows:
        if not (0 <= k < len(cardinalities) and 0 <= w < cardinalities[k]
                and 0 <= w2 < cardinalities[k] and n >= 1):
            raise ValueError(f"count row out of range: {key} {k} {w} {w2} {n}")
        if key not in counts:
            counts[key] = [np.zeros((c, c), dtype=np.int64) for c in cardinalities]
        counts[key][k][w, w2] += n
    return counts


def fit_transitions(triplets: Iterable[tuple[SymbolState, str, SymbolState]],
                    cardinalities: Sequence[int],
                    thresh: float = DEFAULT_THRESH) -> TransitionModel:
    """Accumulate (symbol state, action key, symbol state) triplets into counts."""
    cards = tuple(int(c) for c in cardinalities)
    tally = Counter((key, k, w, w2) for before, key, after in triplets
                    for k, (w, w2) in enumerate(zip(before, after, strict=True)))
    if not tally:
        raise ValueError("need at least one triplet")
    counts = count_tables(((*row, n) for row, n in tally.items()), cards)
    return TransitionModel(cardinalities=cards, thresh=thresh, counts=counts)


# ---------------------------------------------------------------------------
# masks

@dataclass(frozen=True)
class SymbolMasks:
    """Bench validity tabulated on the fitted symbols, once per bench.

    `valid[sx][sy]` holds when the cell that position symbols (sx, sy) stand
    for under the fit's value maps is free, `adjacent[sx][sy]` when it is next
    to the dyer, so the planner reads both on symbol states however the cluster
    labels came out. `per_concept` holds each concept's marginal validity, for
    propagation: a position symbol is valid when some free cell has its value.
    `goal_concepts` are those the bench level's goal fixes; both planners test them.
    """

    valid: tuple[tuple[bool, ...], ...]
    adjacent: tuple[tuple[bool, ...], ...]
    per_concept: tuple[np.ndarray, ...]
    dyer_color: int | None
    goal_concepts: tuple[int, ...]

    @classmethod
    def build(cls, env: EnvConfig,
              symbol_to_value: Sequence[Sequence[int]]) -> "SymbolMasks":
        """Masks of a bench, read through a fit's symbol -> value maps."""
        free, near = np.array(env.free), np.array(env.near_dyer)
        xs, ys = (np.asarray(symbol_to_value[k]) for k in (POS_X, POS_Y))
        per = [np.ones(len(values), dtype=bool) for values in symbol_to_value]
        per[POS_X], per[POS_Y] = free.any(axis=1)[xs], free.any(axis=0)[ys]
        return cls(valid=tuple(map(tuple, free[np.ix_(xs, ys)].tolist())),
                   adjacent=tuple(map(tuple, near[np.ix_(xs, ys)].tolist())),
                   per_concept=tuple(per), dyer_color=env.dyer_color,
                   goal_concepts=goal_concepts(env.level))

    def position_valid(self, state: SymbolState) -> bool:
        return self.valid[state[POS_X]][state[POS_Y]]

    def dyer_adjacent(self, state: SymbolState) -> bool:
        return self.adjacent[state[POS_X]][state[POS_Y]]

    def goal_test(self, goal: SymbolState):
        """`is_goal(state)`: state matches goal on the goal concepts."""
        fixed = itemgetter(*self.goal_concepts)
        target = fixed(goal)
        return lambda state: fixed(state) == target


# ---------------------------------------------------------------------------
# distribution propagation

def point_mass(state: SymbolState, cardinalities: Sequence[int]) -> list[np.ndarray]:
    dist = []
    for k, c in enumerate(cardinalities):
        v = np.zeros(c)
        v[state[k]] = 1.0
        dist.append(v)
    return dist


def propagate(dist: Sequence[np.ndarray], key: str, model: TransitionModel,
              valid: Sequence[np.ndarray]) -> list[np.ndarray]:
    """One reasoning step per concept: legality gate, transition, mask, renormalize."""
    legal = model.legal.get(key)
    if legal is None:
        raise DeadDistribution(f"action {key!r} never observed")
    out = []
    for k in range(len(model.cardinalities)):
        gate = np.asarray(legal[k])  # legality indicator on sources
        moved = model.trans_p[key][k].T @ (np.asarray(dist[k]) * gate)
        moved = moved * np.asarray(valid[k], dtype=float)  # invalid destinations drop out
        total = moved.sum()
        if total <= 0.0:
            raise DeadDistribution(f"all mass eliminated for {key!r} "
                                   f"on concept {k}")
        out.append(moved / total)
    return out


def action_legal(model: TransitionModel, state: SymbolState, key: str) -> bool:
    """Legality indicator: empirical P(action | symbol) above thresh for every concept."""
    legal = model.legal.get(key)
    return legal is not None and all(row[w] for row, w in zip(legal, state))


# ---------------------------------------------------------------------------
# k-best planning

@dataclass(frozen=True)
class Plan:
    actions: tuple[str, ...]  # action keys
    score: float


@dataclass(frozen=True)
class PlanResult:
    """Up to K distinct plans, ranked by (length ascending, score descending)."""

    plans: tuple[Plan, ...]
    warnings: tuple[str, ...] = ()

    @property
    def best(self) -> Plan:
        return self.plans[0]


def _map_successor(model: TransitionModel, state: SymbolState,
                   key: str) -> tuple[SymbolState, float] | None:
    succ = []
    prob = 1.0
    for w, nxt, nxt_p in zip(state, model.succ[key], model.succ_p[key]):
        w2 = nxt[w]
        if w2 < 0:
            return None
        succ.append(w2)
        prob *= nxt_p[w]
    return tuple(succ), prob


def available_keys(model, masks: SymbolMasks) -> tuple[str, ...]:
    """Keys of a model or of token maps that `action_key` gives on this bench."""
    return tuple(k for k in model.action_keys
                 if action_key(base_action(k), masks.dyer_color) == k)


_SCORE, _SEQ = itemgetter(0), itemgetter(1)


def _rank_entries(entries: list) -> None:
    """Sort entries into (-score, seq) order: two stable sorts on C keys."""
    entries.sort(key=_SEQ)
    entries.sort(key=_SCORE, reverse=True)


def layered_kbest(init, start_entry, expand, is_goal, top_k: int, l_max: int):
    """Layered k-best enumeration of action sequences from `init`.

    Entries are (score, seq, payload), with seq a tuple of action ranks.
    `expand(node, entries)` yields (successor node, batch) pairs, a batch
    being the list of entries one step deeper that arrive at the successor.
    Depth d keeps, for every node reached, its top_k entries in (-score, seq)
    order; entries arriving at a node where `is_goal` holds are accepted.
    Returns up to top_k accepted entries, shortest first and in (-score, seq)
    order within a length. Deterministic, because seq is unique per entry.
    """
    results = []
    layer = {init: [start_entry]}
    for _ in range(l_max):
        if len(results) >= top_k or not layer:
            break
        successors: dict = {}
        for node, entries in layer.items():
            for succ, batch in expand(node, entries):
                successors.setdefault(succ, []).extend(batch)
        layer = {}
        arrivals = []
        for node, bucket in successors.items():
            _rank_entries(bucket)
            layer[node] = bucket[:top_k]
            if is_goal(node):
                arrivals.extend(layer[node])
        _rank_entries(arrivals)
        results.extend(arrivals)
    if not results:
        raise NoPlanFound(f"no plan within {l_max} steps")
    return results[:top_k]


def _steps_to_goal(model: TransitionModel, masks: SymbolMasks, goal: SymbolState,
                   keys: Sequence[str], recolors: Sequence[bool], l_max: int):
    """`to_goal(state)`: a lower bound on the steps `plan` needs to reach the goal.

    A backward BFS of at most l_max rounds, in numpy, over the codes of the
    goal concepts' symbols; each round labels the codes one step further from
    the goal. An edge is a key's MAP successor on the goal concepts, kept where
    every goal-concept row is seen and the successor cell is free;
    change_color runs only from cells next to the dyer. Every step `plan`
    compiles projects onto such an edge (the legality gate, type and size are
    dropped), so the distance never exceeds the compiled graph's. Codes the
    BFS does not reach get l_max + 1.
    """
    concepts = masks.goal_concepts
    cards = tuple(model.cardinalities[c] for c in concepts)
    n = math.prod(cards)
    sym = np.indices(cards).reshape(len(cards), n)  # each code's goal-concept symbols
    nxt = np.stack([np.array([model.succ[key][c] for key in keys], dtype=np.int64)
                    .reshape(len(keys), card)[:, row]
                    for c, card, row in zip(concepts, cards, sym)])  # (concept, key, code)
    ix, iy = concepts.index(POS_X), concepts.index(POS_Y)
    edge = (nxt >= 0).all(axis=0) & np.array(masks.valid)[nxt[ix], nxt[iy]]
    edge[np.array(recolors, dtype=bool)] &= np.array(masks.adjacent)[sym[ix], sym[iy]]
    # each edge's head code, n for a missing edge; gathered flat, which is faster
    heads = np.where(edge, np.ravel_multi_index(tuple(np.maximum(nxt, 0)), cards), n).ravel()
    strides = [math.prod(cards[i + 1:]) for i in range(len(cards))]
    place = tuple(zip(concepts, strides))

    def code(state):
        return sum(state[c] * stride for c, stride in place)

    target = code(goal)
    dist = np.full(n, l_max + 1)
    dist[target] = 0
    front = np.zeros(n + 1, dtype=bool)  # missing edges read entry n, always False
    front[target] = True
    for depth in range(1, l_max + 1):
        new = front[heads].reshape(len(keys), n).any(axis=0)
        new &= dist > l_max
        if not new.any():
            break
        dist[new] = depth
        front[:n] = new
    table = dist.tolist()
    return lambda state: table[code(state)]


def plan(model: TransitionModel, init: SymbolState, goal: SymbolState,
         masks: SymbolMasks, top_k: int = 5, l_max: int = 16) -> PlanResult:
    """Search the MAP symbol-state graph for up to top_k goal-reaching sequences.

    Runs `layered_kbest` over symbol states: depth d holds, for every
    reachable symbol state, the top_k highest-scoring length-d action
    sequences arriving there (score = product of stepwise max transition
    probabilities). A sequence is accepted when its state matches the goal on
    the bench's goal concepts. Ties break on the fixed action ordering.

    Each state's successors (legality gate, dyer adjacency, MAP successor,
    position mask) are compiled once per call into (successor, step
    probability, rank, `to_goal(successor)`) steps, when the search first
    reaches the state; `to_goal` is `_steps_to_goal`'s lower bound.

    The search is bounded: a step is skipped when its depth plus `to_goal`
    exceeds the bound, which starts at min(to_goal(init), l_max). When fewer
    than top_k plans come back and a skipped step's depth plus `to_goal` was
    at most l_max, the bound rises to the smallest such value and the search
    runs again on the same compiled steps. The result is exactly the unbounded
    search's. `to_goal` never exceeds the true distance, so a state that can
    still reach the goal within the bound is kept, and so is each of its
    predecessors, which can too. Every bucket on such a path, truncated to
    top_k at its own state, is thus the unbounded one, and the search stops at
    the same depth with the same plans. When nothing at most l_max was
    skipped, no plan within l_max was cut.
    """
    if not masks.position_valid(init):
        raise InvalidInit("initial symbol state is invalid under the masks")
    warnings = tuple(f"init/goal mismatch on unchangeable concept {c}"
                     for c in (TYPE, SIZE) if init[c] != goal[c])
    is_goal = masks.goal_test(goal)
    if is_goal(init):
        return PlanResult(plans=(Plan((), 1.0),), warnings=warnings)

    keys = available_keys(model, masks)  # in model order, so ranks order as keys do
    recolors = [base_action(key) == "change_color" for key in keys]
    to_goal = _steps_to_goal(model, masks, goal, keys, recolors, l_max)
    compiled: dict[SymbolState, list[tuple[SymbolState, float, int, int]]] = {}

    def steps_from(state):
        steps = []
        for rank, key in enumerate(keys):
            if not action_legal(model, state, key):
                continue
            if recolors[rank] and not masks.dyer_adjacent(state):
                continue  # adjacency is environment knowledge, not in the counts
            step = _map_successor(model, state, key)
            if step is not None and masks.position_valid(step[0]):
                steps.append((*step, rank, to_goal(step[0])))
        return steps

    def expand(state, entries):
        nonlocal skipped
        steps = compiled.get(state)
        if steps is None:
            steps = compiled[state] = steps_from(state)
        depth = len(entries[0][1]) + 1
        for succ, step_p, rank, steps_left in steps:
            if depth + steps_left > bound:
                skipped = min(skipped, depth + steps_left)
                continue
            yield succ, [(score * step_p, seq + (rank,), None)
                         for score, seq, _ in entries]

    bound = min(to_goal(init), l_max)
    while True:
        skipped = l_max + 1  # the smallest depth + to_goal above the bound
        try:
            found = layered_kbest(init, (1.0, (), None), expand, is_goal, top_k, l_max)
        except NoPlanFound:
            if skipped > l_max:
                raise
            found = []
        if len(found) >= top_k or skipped > l_max:
            break
        bound = skipped
    return PlanResult(plans=tuple(
        Plan(tuple(keys[r] for r in seq), score)
        for score, seq, _ in found), warnings=warnings)
