"""Symbol-level transition model and legality-checked goal-conditioned planning.

The model records per-concept (input symbol, action, output symbol) counts
and derives per-concept action-occurrence counts from them. Planning
propagates the factored symbol distribution under three gates per step: an
action-legality indicator (empirical action probability above a threshold),
the learned transition matrix, and a state-validity mask over destinations
with renormalization.

Position validity couples the two position concepts, so validity is evaluated
on the joint (x, y) grid: the k-best plan search checks successor validity on
it, tabulated once per bench on the position symbols (`SymbolMasks`), and
distribution propagation reads its marginal on each axis (`marginal_masks`).

`layered_kbest` is the one k-best search of the package. `plan` runs it over
int codes of symbol states, bounded by exact goal distances, and the
token-space ablation (`token_maps.plan_tokenspace`) over affine-map successors.

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
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from operator import and_, itemgetter, mul
from typing import Iterable, Sequence

import numpy as np

from .streams import Bound
from .workbench import ACTIONS, N_COLORS, POS_X, POS_Y, SIZE, TYPE, EnvConfig, goal_concepts

DEFAULT_THRESH = 0.01
THRESH = Bound(float, "in (0, 1)", lambda v: 0 < v < 1)  # a legality threshold's rule

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


_KEYS = frozenset(action_key(a, color) for a in ACTIONS for color in (None, *range(N_COLORS)))


def _key_rank(key: str) -> tuple[int, int]:
    if key not in _KEYS:  # the one key check; keys sort by action, then dyer color
        raise ValueError(f"{key!r} is not an action key, as `action_key` gives them")
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
    # derived from the counts: the observed keys and atomic actions in action order, each
    # concept's stride in a state code, occurrences per concept (k_k, n_base_actions), the
    # probabilities, and per key, concept and symbol the legality indicator (a bool array),
    # the MAP successor (-1 for an unseen row) and its probability
    action_keys: tuple[str, ...] = field(init=False)
    strides: tuple[int, ...] = field(init=False)
    base_actions: tuple[str, ...] = field(init=False)
    occurrences: list[np.ndarray] = field(init=False, repr=False)
    trans_p: dict[str, list[np.ndarray]] = field(init=False, repr=False)
    act_p: list[np.ndarray] = field(init=False, repr=False)
    legal: dict[str, list[np.ndarray]] = field(init=False, repr=False)
    succ: dict[str, list[list[int]]] = field(init=False, repr=False)
    succ_p: dict[str, list[list[float]]] = field(init=False, repr=False)

    def __post_init__(self):
        THRESH.check("thresh", self.thresh)
        self.action_keys = tuple(sorted(self.counts, key=_key_rank))
        self.base_actions = tuple(dict.fromkeys(map(base_action, self.action_keys)))
        self.strides = tuple(np.cumprod([1, *self.cardinalities[:-1]]).tolist())
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
            self.legal[key] = [p[:, j] > self.thresh for p in self.act_p]
            best = [p.argmax(axis=1) for p in mats]
            self.succ[key] = [np.where(p.sum(axis=1) > 0.0, b, -1).tolist()
                              for p, b in zip(mats, best)]
            self.succ_p[key] = [p[np.arange(len(p)), b].tolist()
                                for p, b in zip(mats, best)]

    def __getstate__(self):  # the step tables and key sets are rebuilt per process
        return {name: value for name, value in self.__dict__.items()
                if name not in ("steps", "key_sets")}

    @cached_property
    def key_sets(self) -> dict[tuple[str, ...], tuple[np.ndarray, dict]]:
        """keys -> their rows' offsets in flat `steps`, and closures (k, w) -> concept k's symbols
        their MAP successors reach from w, sorted and as codes. At most 7: one per dyer color."""
        return {}

    @cached_property
    def steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per key (row) and symbol-state code `sum(state * strides)`: `succ`,
        the MAP successor's code, -1 where the key is illegal (one
        `action_legal` read per key) or a row unseen; `prob`, the step
        probability, multiplied in concept order from 1.0; `gate`, the index of
        the step's bench flag (`SymbolMasks.flags`), -1 where succ is -1."""
        cards = self.cardinalities
        grid = np.ix_(*map(range, reversed(cards)))[::-1]  # concept 0 on the last axis
        succ = np.empty((len(self.action_keys), math.prod(cards)), dtype=np.int32)
        prob, gate = np.empty(succ.shape), np.empty(succ.shape, dtype=np.int16)
        n_cells, cell = cards[POS_X] * cards[POS_Y], grid[POS_X] * cards[POS_Y] + grid[POS_Y]
        for i, key in enumerate(self.action_keys):
            nxt = [np.array(row)[w] for row, w in zip(self.succ[key], grid)]
            ok = action_legal(self, grid, key) & reduce(and_, [w >= 0 for w in nxt])
            code = sum(w * stride for w, stride in zip(nxt, self.strides))
            succ[i] = np.where(ok, code, -1).ravel()
            p = [np.array(row)[w] for row, w in zip(self.succ_p[key], grid)]
            prob[i] = reduce(mul, p, 1.0).ravel()
            to = nxt[POS_X] * cards[POS_Y] + nxt[POS_Y]  # a cell that must be free
            near = cell if base_action(key) == "change_color" else n_cells  # the dyer's, or none
            gate[i] = np.where(ok, n_cells * near + to, -1).ravel()
        return succ, prob, gate


def _row_normalized(counts: np.ndarray) -> np.ndarray:
    """Rows divided by their sums; all-zero rows stay zero."""
    row_tot = counts.sum(axis=1, keepdims=True)
    return np.where(row_tot > 0, counts / np.maximum(row_tot, 1), 0.0)


def count_tables(rows: Iterable[tuple[str, int, int, int, int]],
                 cardinalities: Sequence[int]) -> dict[str, list[np.ndarray]]:
    """Count tables from (key, k, w, w', n) rows, as a fit file lists them: k a
    concept, w and w' its symbols, n >= 1, else ValueError."""
    counts: dict[str, list[np.ndarray]] = {}
    for key, k, w, w2, n in rows:
        if not (0 <= k < len(cardinalities) and 0 <= w < cardinalities[k]
                and 0 <= w2 < cardinalities[k] and n >= 1):
            raise ValueError(f"count row out of range: {key} {k} {w} {w2} {n}")
        if key not in counts:
            counts[key] = [np.zeros((c, c), dtype=np.int64) for c in cardinalities]
        counts[key][k][w, w2] += n
    return counts


def fit_transitions(symbols: np.ndarray, key_ids: np.ndarray, key_names: Sequence[str],
                    cardinalities: Sequence[int],
                    thresh: float = DEFAULT_THRESH) -> TransitionModel:
    """Count (n, n_concepts) symbol rows: row t steps to row t + 1 under
    `key_names[key_ids[t]]`, and -1 ends a path. A symbol out of range is a ValueError."""
    cards = tuple(int(c) for c in cardinalities)
    if not key_names:
        raise ValueError("need at least one transition")
    if (bad := np.argwhere((symbols < 0) | (symbols >= cards))).size:
        raise ValueError(f"concept {bad[0, 1]} symbol {symbols[tuple(bad[0])]} out of range")
    counts = {}
    for j, key in enumerate(key_names):
        t = np.flatnonzero(key_ids == j)
        pair = symbols[t] * cards + symbols[t + 1]  # w * k_k + w' per concept
        counts[key] = [np.bincount(pair[:, k], minlength=c * c).reshape(c, c)
                       for k, c in enumerate(cards)]
    return TransitionModel(cardinalities=cards, thresh=thresh, counts=counts)


# ---------------------------------------------------------------------------
# masks

@dataclass(frozen=True)
class SymbolMasks:
    """Bench validity tabulated on the fitted symbols, once per bench.

    `valid[sx][sy]` holds when the cell that position symbols (sx, sy) stand
    for under the fit's value maps is free, `adjacent[sx][sy]` when it is next
    to the dyer; the planner reads both as `flags`, on symbol states however
    the cluster labels came out. `goal_concepts` are those the bench level's
    goal fixes; both planners test them.
    """

    valid: tuple[tuple[bool, ...], ...]
    adjacent: tuple[tuple[bool, ...], ...]
    dyer_color: int | None
    goal_concepts: tuple[int, ...]

    @classmethod
    def build(cls, env: EnvConfig,
              symbol_to_value: Sequence[Sequence[int]]) -> "SymbolMasks":
        """Masks of a bench, read through a fit's symbol -> value maps."""
        xs, ys = symbol_to_value[POS_X], symbol_to_value[POS_Y]
        return cls(valid=tuple(tuple(env.free[x][y] for y in ys) for x in xs),
                   adjacent=tuple(tuple(env.near_dyer[x][y] for y in ys) for x in xs),
                   dyer_color=env.dyer_color, goal_concepts=goal_concepts(env.level))

    @cached_property
    def flags(self) -> np.ndarray:
        """What the gates of `TransitionModel.steps` index, over the n cells c = sx * len(valid[0])
        + sy: at n * a + c, adjacent at a and valid at c; at n * n + c, valid at c; False last."""
        valid = np.ravel(self.valid)
        return np.concatenate([np.outer(self.adjacent, valid).ravel(), valid, [False]])

    def position_valid(self, state: SymbolState) -> bool:
        return self.valid[state[POS_X]][state[POS_Y]]

    def goal_test(self, goal: SymbolState):
        """`is_goal(state)`: state matches goal on the goal concepts."""
        fixed = itemgetter(*self.goal_concepts)
        target = fixed(goal)
        return lambda state: fixed(state) == target


# ---------------------------------------------------------------------------
# distribution propagation

def marginal_masks(env: EnvConfig,
                   symbol_to_value: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """Each concept's marginal validity on a bench, the masks `propagate` takes:
    a position symbol is valid when some free cell has its value under the
    fit's symbol -> value maps, and every other symbol is."""
    free = np.array(env.free)
    masks = [np.ones(len(values), dtype=bool) for values in symbol_to_value]
    masks[POS_X] = free.any(axis=1)[np.asarray(symbol_to_value[POS_X])]
    masks[POS_Y] = free.any(axis=0)[np.asarray(symbol_to_value[POS_Y])]
    return masks


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


def action_legal(model: TransitionModel, state, key: str):
    """Legality indicator: empirical P(action | symbol) above thresh for every
    concept; per-concept symbol arrays that broadcast give an array of them."""
    legal = model.legal.get(key)
    return legal is not None and reduce(and_, [row[w] for row, w in zip(legal, state)])


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

    Entries are tuples (score, seq, ...), with seq a tuple of action ranks.
    `expand(node, entries)` yields (successor node, batch) pairs, a batch
    being the list of entries one step deeper that arrive at the successor.
    Depth d keeps, for every node reached, its top_k entries in (-score, seq)
    order; entries arriving at a node where `is_goal` holds are accepted.
    Returns up to top_k accepted entries, shortest first and in (-score, seq)
    order within a length, and none when no entry reached a goal within l_max
    steps. Deterministic, because seq is unique per entry.
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
    return results[:top_k]


def _search_graph(model: TransitionModel, masks: SymbolMasks, init: SymbolState,
                  goal: SymbolState, keys: Sequence[str], l_max: int):
    """The graph one `plan` call searches, with exact goal distances.

    Its nodes are the codes, ascending, of the product of each concept's
    closure from init's symbol: every state the search can reach. Its steps
    are the model's `steps` whose gates the bench's `flags` pass; a dense
    code -> node table maps them to nodes, and every other code, -1 among
    them, to the "no step" node n. A backward BFS from the goal nodes gives
    each node its distance, l_max + 1 when above l_max. Returns that table,
    the distances and `steps_from(i)`: node i's (successor node, step
    probability, rank, successor distance) steps in rank order, but none onto
    a successor l_max or more steps from the goal: no plan within l_max does.
    """
    succ_table, prob_table, gate_table = model.steps
    if keys not in model.key_sets:  # each key's row, as an offset in the flattened tables
        rows = np.array([*map(model.action_keys.index, keys)], dtype=np.intp)[:, None]
        model.key_sets[keys] = rows * succ_table.shape[1], {}
    rows, reach = model.key_sets[keys]
    closures = []
    for k, w in enumerate(init):
        if (k, w) not in reach:
            reached, succ = [w], [model.succ[key][k] for key in keys]
            for v in reached:  # grows while it is read
                reached.extend({row[v] for row in succ}.difference(reached, (-1,)))
            reach[k, w] = sorted(reached), np.sort(reached) * model.strides[k]
        closures.append(reach[k, w])
    at = reduce(np.add.outer, [codes for _, codes in reversed(closures)]).ravel()
    flat = rows + at  # (key, node) -> its entry in the step tables
    n = len(at)
    node = np.full(succ_table.shape[1] + 1, n, dtype=np.intp)
    node[at] = np.arange(n)
    heads = node[np.where(masks.flags[gate_table.take(flat)], succ_table.take(flat), -1)]
    preds = (np.argsort(heads, axis=None, kind="stable") % n).tolist()  # grouped by head
    ends = [0, *np.bincount(heads.ravel(), minlength=n + 1).cumsum().tolist()]
    queue, stride = [0], n
    for k, (syms, _) in reversed(list(enumerate(closures))):  # the goal nodes, ascending
        stride //= len(syms)
        queue = [i + j * stride for i in queue for j, w in enumerate(syms)
                 if k not in masks.goal_concepts or w == goal[k]]
    dist = [l_max + 1] * (n + 1)
    for i in queue:
        dist[i] = 0
    for i in queue:  # grows while it is read
        if dist[i] >= l_max:
            break
        for j in preds[ends[i]:ends[i + 1]]:
            if dist[j] > l_max:
                dist[j] = dist[i] + 1
                queue.append(j)
    heads_of, probs_of = heads.T.tolist(), prob_table.take(flat).T.tolist()

    @cache
    def steps_from(i):
        return [(h, p, rank, dist[h]) for rank, (h, p) in enumerate(zip(heads_of[i], probs_of[i]))
                if dist[h] < l_max]

    return node, dist[:n], steps_from


def plan(model: TransitionModel, init: SymbolState, goal: SymbolState,
         masks: SymbolMasks, top_k: int = 5, l_max: int = 16) -> PlanResult:
    """Search the MAP symbol-state graph for up to top_k goal-reaching sequences.

    Runs `layered_kbest` over symbol states: depth d holds, for every
    reachable symbol state, the top_k highest-scoring length-d action
    sequences arriving there (score = product of stepwise max transition
    probabilities). A sequence is accepted when its state matches the goal on
    the bench's goal concepts. Ties break on the fixed action ordering.

    The search runs over the nodes of `_search_graph`, whose steps (legality
    gate, MAP successor, dyer adjacency, position mask) the model's step
    tables give, and whose exact distances to the goal are `to_goal` below.

    The search is bounded: a step is skipped when its depth plus `to_goal`
    exceeds the bound, which starts at min(to_goal(init), l_max). When fewer
    than top_k plans come back and a skipped step's depth plus `to_goal` was
    at most l_max, the bound rises to the smallest such value and the search
    runs again on the same steps. The result is exactly the unbounded
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
    keys = available_keys(model, masks)  # in model order, so ranks order as keys do
    node_of, dist, steps_from = _search_graph(model, masks, init, goal, keys, l_max)
    start = int(node_of[sum(map(mul, init, model.strides))])
    if dist[start] == 0:  # init matches the goal
        return PlanResult(plans=(Plan((), 1.0),), warnings=warnings)

    def expand(node, entries):
        nonlocal skipped
        depth = len(entries[0][1]) + 1
        for succ, step_p, rank, steps_left in steps_from(node):
            if depth + steps_left > bound:
                skipped = min(skipped, depth + steps_left)
                continue
            yield succ, [(score * step_p, seq + (rank,)) for score, seq in entries]

    bound = min(dist[start], l_max)
    while True:
        skipped = l_max + 1  # the smallest depth + to_goal above the bound
        found = layered_kbest(start, (1.0, ()), expand, lambda i: dist[i] == 0, top_k, l_max)
        if len(found) >= top_k or skipped > l_max:
            break
        bound = skipped
    if not found:
        raise NoPlanFound(f"no plan within {l_max} steps")
    return PlanResult(plans=tuple(
        Plan(tuple(keys[r] for r in seq), score)
        for score, seq in found), warnings=warnings)
