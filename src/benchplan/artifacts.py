"""Versioned plain-text artifact files: a dataset, and one fit file `fit.txt`.

A header line carries the schema tag and the resolved configuration; every
loader reads the body through one grammar (`_records`): a line of key=value
fields opens a record, and the rows under it start with a tag: `c` (symbolizer
centers), `n` (transition counts), `A`/`b` (affine maps). The fit file writes
only what cannot be derived: the loader rebuilds the codebook from its seed,
whose cardinalities size each concept's `c` rows, and the whole transition model
from the `n` rows, which all pass the one count check (`mdp.count_tables`); each
record must sit where its key says and hold only its own fields, its floats be
finite, and the purity record holds no rows; every fit setting is held to
FitConfig's table (`fitting.FIT_SETTINGS`), and every seed to `streams.SEED`. A
dataset has at least one task, unique task ids and known splits, its header
gives its tasks' one level and split sizes, and each gt plan reaches its goal
within the level's `max_len` steps. Every file ends in a seal, one `sha256=<hex>` line over all
bytes above it, which a cut, a flipped byte or an edit breaks. Each kind of value has one reader
(fields `_parse_kv`, floats `_vectors`, states `parse_state`, action keys
`mdp._key_rank`), so a broken seal or malformed content raises SchemaMismatch
naming the file and what it read.
Floats are written with repr(): round-trips are exact, reruns byte-identical.
"""

from __future__ import annotations

import hashlib
import os
from operator import itemgetter

import numpy as np

from .concepts import build_codebook
from .evaluate import EvalReport
from .fitting import FIT_SETTINGS, FitConfig, Fitted
from .mdp import TransitionModel, count_tables
from .streams import SEED
from .symbols import Symbolizer
from .taskgen import SPLITS, VARIANTS, Dataset, Task
from .workbench import ACTIONS, EnvConfig, ObjectState, adjudicate, is_valid_state
from .token_maps import ActionTransitionMaps

DATASET_MAGIC = "#workbench-dataset v2"
FIT_MAGIC = "#workbench-fit v2"
REPORT_MAGIC = "#workbench-report v1"

FIT_FILE = "fit.txt"


class MissingArtifact(Exception):
    """A referenced artifact file does not exist."""


class SchemaMismatch(Exception):
    """Artifact content is malformed, truncated, edited, or disagrees with another."""


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def _kv_line(**fields) -> str:
    return " ".join(f"{k}={_fmt(v)}" for k, v in fields.items())


class _Fields(dict):
    """A line's key=value fields; reading a missing one is a ValueError naming it."""

    def __missing__(self, key):
        raise ValueError(f"missing field {key}")

    def seed(self, name: str) -> int:
        return SEED.check(name, int(self[name]))


def _parse_kv(words: list[str]) -> _Fields:
    out = _Fields()
    for word in words:
        key, eq, value = word.partition("=")
        if not (key and eq):
            raise ValueError(f"{word!r} is not key=value, in the line that starts {words[0]}")
        out[key] = value
    return out


def _vec(values: np.ndarray) -> str:
    return ",".join(map(repr, values.tolist()))


def _expect(ok: bool, what: str, *args):
    if not ok:  # `what` is formatted with `args` only when it is raised
        raise ValueError(what.format(*args) if args else what)


def _records(lines: list[str]) -> list[tuple[_Fields, list[list[str]]]]:
    """A body as (key=value record, the tagged rows under it); blank lines skip."""
    records = []
    for line in lines:
        words = line.split()
        if not words:
            continue
        if "=" in words[0]:
            records.append((_parse_kv(words), []))
        else:
            _expect(bool(records), "row {!r} before any record", words[0])
            records[-1][1].append(words)
    return records


def _seal(text: str) -> str:
    """`text` and its seal line: the sha256 of every byte above it."""
    return text + f"sha256={hashlib.sha256(text.encode()).hexdigest()}\n"


def _read(path: str, magic: str, parse):
    """`parse(header, records)` of one sealed file; a wrong magic line, a broken
    seal, or a ValueError while parsing, raises SchemaMismatch."""
    if not os.path.exists(path):
        raise MissingArtifact(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(magic.encode()):
        raise SchemaMismatch(f"{path}: expected header {magic!r}")
    body, _, seal = data.rpartition(b"sha256=")
    if seal != hashlib.sha256(body).hexdigest().encode() + b"\n":
        raise SchemaMismatch(f"{path}: sha256 seal does not match; "
                             "the file is truncated or edited")
    try:
        header, *lines = body.decode("utf-8").splitlines()
        return parse(_parse_kv(header[len(magic):].split()), _records(lines))
    except ValueError as err:
        raise SchemaMismatch(f"{path}: {err}") from err


def _write(path: str, text: str):
    if directory := os.path.dirname(path):  # as given, so errors name the given path
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# dataset, and the state and cell parsers it shares with the CLI

_STATE_KEYS = ("type", "x", "y", "rot", "color", "size")
# a task record's init and goal values, in ObjectState's field order, and the action names
_INIT, _GOAL = (itemgetter(*(f"{p}.{key}" for key in _STATE_KEYS)) for p in ("init", "goal"))
_ACTION_SET, _SPLIT_NAMES, _VARIANT_NAMES = frozenset(ACTIONS), "/".join(SPLITS), "/".join(VARIANTS)


def parse_state(values: list[str]) -> ObjectState:
    """A state from exactly six ints: type, x, y, rot, color, size."""
    if len(values) != len(_STATE_KEYS):
        raise ValueError("a state needs 6 comma-separated ints: type,x,y,rot,color,size")
    return ObjectState(*map(int, values))


def parse_cell(text: str) -> tuple[int, int]:
    """A grid cell from exactly two comma-separated ints: x,y."""
    values = text.split(",")
    if len(values) != 2:
        raise ValueError(f"a cell needs 2 comma-separated ints x,y, got {text!r}")
    return int(values[0]), int(values[1])


def parse_cells(text: str) -> tuple[tuple[int, int], ...]:
    """Cells joined by ';', or '-' for none."""
    return () if text == "-" else tuple(parse_cell(c) for c in text.split(";"))


def _cells(cells) -> str:
    return ";".join(f"{x},{y}" for x, y in cells) if cells else "-"


def _state(prefix: str, s: ObjectState) -> str:
    return (f"{prefix}.type={s.type_id} {prefix}.x={s.pos_x} {prefix}.y={s.pos_y} "
            f"{prefix}.rot={s.rotation} {prefix}.color={s.color} {prefix}.size={s.size}")


def save_dataset(path: str, dataset: Dataset):
    lines = [DATASET_MAGIC + " " + _kv_line(
        level=dataset.level, seed=dataset.seed, codebook_seed=dataset.codebook_seed,
        **dict(zip(SPLITS, dataset.split_sizes)), variant=dataset.variant)]
    for task in dataset.tasks:
        env = task.env
        lines.append(f"task_id={task.task_id} split={task.split} level={env.level} "
                     f"obstacles={_cells(env.obstacles)} "
                     f"dyer={_cells([env.dyer]) if env.dyer else '-'} "
                     f"dyer_color={'-' if env.dyer_color is None else env.dyer_color} "
                     f"{_state('init', task.init)} {_state('goal', task.goal)} "
                     f"gt_actions={','.join(task.gt_actions) or '-'}")
    _write(path, _seal("\n".join(lines) + "\n"))


def _parse_dataset(header, records) -> Dataset:
    level, variant, tasks = int(header["level"]), header["variant"], {}
    _expect(variant in VARIANTS, "variant={} is not {}", variant, _VARIANT_NAMES)
    for position, (kv, rows) in enumerate(records, 1):
        try:  # every refusal of a task names it, the bench's and the states' too
            task_id, split = kv["task_id"], kv["split"]
            _expect(not rows, "a task record has no rows")
            _expect(task_id not in tasks, "task_id appears twice")
            _expect(split in SPLITS, "split={} is not {}", split, _SPLIT_NAMES)
            env = EnvConfig(int(kv["level"]), parse_cells(kv["obstacles"]),
                            None if kv["dyer"] == "-" else parse_cell(kv["dyer"]),
                            None if kv["dyer_color"] == "-" else int(kv["dyer_color"]))
            _expect(env.level == level, "level={}, header level={}", env.level, level)
            init, goal = parse_state(_INIT(kv)), parse_state(_GOAL(kv))
            _expect(is_valid_state(init, env) and is_valid_state(goal, env),
                    "init or goal on an obstacle or the dyer")
            actions = () if kv["gt_actions"] == "-" else tuple(kv["gt_actions"].split(","))
            _expect(_ACTION_SET.issuperset(actions), "unknown action in gt_actions={}",
                    kv["gt_actions"])
            _expect(len(actions) <= env.max_len, "gt plan longer than {} steps", env.max_len)
            task = tasks[task_id] = Task(env, init, goal, actions, task_id, split)
            reason = adjudicate(task, actions).failure_reason  # the judge's own rule
            _expect(reason == "none", "gt plan does not reach its goal ({})", reason)
        except ValueError as err:
            raise ValueError(f"task {kv.get('task_id', f'record {position}')}: {err}") from err
    _expect(bool(tasks), "the dataset has no task")
    dataset = Dataset(tasks=list(tasks.values()), seed=header.seed("seed"),
                      codebook_seed=header.seed("codebook_seed"), variant=variant)
    for split, n in zip(SPLITS, dataset.split_sizes):
        _expect(int(header[split]) == n,
                f"header has {split}={header[split]} but there are {n} {split} tasks")
    return dataset


def load_dataset(path: str) -> Dataset:
    return _read(path, DATASET_MAGIC, _parse_dataset)


# ---------------------------------------------------------------------------
# the fit file: fit config, symbolizer, transition counts, affine maps

def save_fitted(directory: str, fitted: Fitted):
    """Write `fit.txt`: the header, then the symbolizer, the counts and the maps."""
    c, sym, maps = fitted.config, fitted.symbolizer, fitted.maps
    lines = [FIT_MAGIC + " " + _kv_line(
        **{key: getattr(c, name) for name, (key, _, _) in FIT_SETTINGS.items()},
        codebook_seed=fitted.codebook.seed),
        _kv_line(purity=",".join(repr(p) for p in fitted.train_purity))]
    for k, centers in enumerate(sym.centers):
        lines.append(_kv_line(concept=k, inertia=sym.inertia[k],
                              iterations=sym.iterations[k]))
        lines.extend(f"c {_vec(row)}" for row in centers)
    lines.append(_kv_line(model="counts"))
    for key in fitted.model.action_keys:
        for k, mat in enumerate(fitted.model.counts[key]):
            w, w2 = np.nonzero(mat)
            lines.extend(f"n {key} {k} {a} {b} {n}"
                         for a, b, n in zip(w.tolist(), w2.tolist(), mat[w, w2].tolist()))
    for key in maps.action_keys:
        lines.append(_kv_line(action=key, mse=maps.residual_mse[key]))
        lines.extend(f"A {_vec(row)}" for row in maps.matrices[key])
        lines.append(f"b {_vec(maps.offsets[key])}")
    _write(os.path.join(directory, FIT_FILE), _seal("\n".join(lines) + "\n"))


def _vectors(rows, tags: list[str], width: int, what: str) -> np.ndarray:
    """The finite vector of each of `rows`, each one `<tag> <vector>`; the rows
    carry exactly `tags`, and every vector has `width` values."""
    _expect([row[0] for row in rows] == tags, f"{what} needs {len(tags)} rows of {width} values")
    if bad := next((row for row in rows if len(row) != 2), None):
        raise ValueError(f"{what} has a row of {len(bad)} words that starts "
                         f"{' '.join(bad[:2])}, not {bad[0]} <values>")
    values = [row[-1].split(",") for row in rows]
    short = next((len(row) for row in values if len(row) != width), 0)  # split gives >= 1
    _expect(not short, f"{what} needs {width} values, got {short}")
    values = np.array([list(map(float, row)) for row in values])
    _expect(np.isfinite(values).all(), f"{what} has a value that is not finite")
    return values


# the fields each fit record but the header may hold; v2 files written before `sym_seed=`
# (purity) and `pairs=` (maps) were dropped still carry them, and the loader reads past both
_PURITY_FIELDS, _CONCEPT_FIELDS = {"purity", "sym_seed"}, {"concept", "inertia", "iterations"}
_MAP_FIELDS = {"action", "mse", "pairs"}


def _known_fields(kv, fields: set[str], record: str):
    unknown = next((key for key in kv if key not in fields), None)
    _expect(unknown is None, "{} has an unknown field {}", record, unknown)


def _parse_fit(header, records) -> Fitted:
    _known_fields(header, {key for key, _, _ in FIT_SETTINGS.values()} | {"codebook_seed"},
                  "the header")
    config = FitConfig(**{name: bound.kind(header[key])
                          for name, (key, _, bound) in FIT_SETTINGS.items()})
    codebook = build_codebook(dim=config.dim, seed=header.seed("codebook_seed"),
                              min_sep=config.min_sep)
    cards = codebook.cardinalities
    _expect(len(records) > len(cards) + 1, f"{len(records)} records, short of the counts record")
    (purity_kv, stray), rest = records[0], records[1:]
    purity_row = [("purity", purity_kv["purity"])]  # its field first
    if stray:
        raise ValueError(f"row {stray[0][0]!r} under the purity record")
    _known_fields(purity_kv, _PURITY_FIELDS, "the purity record")
    concepts, ((counts_kv, count_rows), *map_records) = rest[:len(cards)], rest[len(cards):]
    symbolizer = Symbolizer(
        centers=tuple(_vectors(rows, ["c"] * card, config.dim, f"concept {k}")
                      for k, ((_, rows), card) in enumerate(zip(concepts, cards))),
        inertia=tuple(float(kv["inertia"]) for kv, _ in concepts),
        iterations=tuple(int(kv["iterations"]) for kv, _ in concepts))
    for k, (kv, _) in enumerate(concepts):  # records of equal size could trade places
        _expect(kv.get("concept") == str(k), f"the record of concept {k} reads {_kv_line(**kv)}")
        _known_fields(kv, _CONCEPT_FIELDS, f"the record of concept {k}")
    (purity,) = _vectors(purity_row, ["purity"], len(cards), "purity").tolist()

    _expect(counts_kv == {"model": "counts"}, f"the counts record reads {_kv_line(**counts_kv)}")
    bad = next((row for row in count_rows if len(row) != 6 or row[0] != "n"), ())
    _expect(not bad, f"count row {' '.join(bad)} is not n <key> <concept> <from> <to> <count>")
    counts = count_tables(((key, int(k), int(w), int(w2), int(n))
                           for _, key, k, w, w2, n in count_rows), cards)
    model = TransitionModel(cardinalities=cards, thresh=config.thresh, counts=counts)

    size = 6 * config.dim
    matrices, offsets, mses = {}, {}, {}
    for kv, rows in map_records:
        _expect("action" in kv, f"a map record reads {_kv_line(**kv)}")
        key = kv["action"]
        _known_fields(kv, _MAP_FIELDS, f"the record of action {key}")
        values = _vectors(rows, ["A"] * size + ["b"], size, f"action {key}")
        matrices[key], offsets[key] = values[:-1], values[-1]
        mses[key] = float(kv["mse"])
    _expect(np.isfinite([*symbolizer.inertia, *mses.values()]).all(),
            "inertia or mse is not finite")
    maps = ActionTransitionMaps(dim=config.dim, matrices=matrices, offsets=offsets,
                                residual_mse=mses)
    return Fitted(config=config, codebook=codebook, symbolizer=symbolizer,
                  model=model, maps=maps, train_purity=tuple(purity))


def load_fitted(directory: str) -> Fitted:
    """Read `fit.txt`; the codebook is rebuilt from its seed."""
    return _read(os.path.join(directory, FIT_FILE), FIT_MAGIC, _parse_fit)


def check_compatible(dataset: Dataset, fitted: Fitted):
    """Dataset and fit artifacts must stem from the same codebook."""
    if dataset.codebook_seed != fitted.codebook.seed:
        raise SchemaMismatch(
            f"dataset codebook seed {dataset.codebook_seed} != "
            f"artifact codebook seed {fitted.codebook.seed}")


# ---------------------------------------------------------------------------
# evaluation reports

def report_summary(report: EvalReport, config_fields: dict) -> str:
    lines = [REPORT_MAGIC + " " + _kv_line(**config_fields)]
    lines.append(_kv_line(planner=report.planner, level=report.level,
                          split=report.split, n_tasks=report.n_tasks))
    lines.append(f"asacc_top1={report.asacc_top1!r}")
    lines.append(f"asacc_top5={report.asacc_top5!r}")
    lines.append("ase=" + (repr(report.ase) if report.ase is not None else "absent"))
    lines.append(f"fsd_mean={report.fsd_mean!r}")
    return "\n".join(lines) + "\n"


def report_records_tsv(report: EvalReport) -> str:
    lines = ["task_id\tgt_len\ttop1_len\tsuccesses\tfsd"]
    for r in report.records:
        flags = "".join("1" if s else "0" for s in r.attempt_success) or "-"
        top1 = str(r.top1_len) if r.top1_len is not None else "-"
        lines.append(f"{r.task_id}\t{r.gt_len}\t{top1}\t{flags}\t{r.fsd!r}")
    return "\n".join(lines) + "\n"


def save_report(directory: str, report: EvalReport, config_fields: dict):
    tag = report.planner
    _write(os.path.join(directory, f"eval_{tag}_summary.txt"),
           report_summary(report, config_fields))
    _write(os.path.join(directory, f"eval_{tag}_tasks.tsv"),
           report_records_tsv(report))
