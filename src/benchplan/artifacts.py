"""Versioned plain-text artifact files: a dataset, and one fit file `fit.txt`.

A header line carries the schema tag and the resolved configuration; every
loader reads the body through one grammar (`_records`): a line of key=value
fields opens a record, and the rows under it start with a tag: `c` (symbolizer
centers), `n` (transition counts), `A`/`b` (affine maps). The fit file writes
only what cannot be derived: the loader rebuilds the codebook from its seed,
whose cardinalities size each concept's `c` rows, and the whole transition model
from the `n` rows, which all pass the one count check (`mdp.count_tables`); each
record must sit where its key says, its floats be finite, its noise sigma
nonnegative. A dataset has at least one task,
unique task ids, and known splits, its header gives its tasks' one level
and split sizes, and each gt plan reaches its goal within the level's
`max_len` steps. Every file ends in a seal, one `sha256=<hex>` line over all
bytes above it; a cut at any point, a flipped byte or an edited header breaks it.
A wrong magic line, a broken seal or malformed content raises SchemaMismatch
naming the file. Floats are written with repr(), so round-trips are exact and
reruns with equal seeds write byte-identical files.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .concepts import build_codebook
from .evaluate import EvalReport
from .fitting import FitConfig, Fitted
from .mdp import TransitionModel, count_tables
from .symbols import Symbolizer
from .taskgen import SPLITS, Dataset, Task
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
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _kv_line(**fields) -> str:
    return " ".join(f"{k}={_fmt(v)}" for k, v in fields.items())


def _parse_kv(words: list[str]) -> dict[str, str]:
    out = {}
    for word in words:
        key, _, value = word.partition("=")
        out[key] = value
    return out


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _expect(ok: bool, what: str):
    if not ok:
        raise ValueError(what)


def _records(lines: list[str]) -> list[tuple[dict[str, str], list[list[str]]]]:
    """A body as (key=value record, the tagged rows under it); blank lines skip."""
    records = []
    for line in lines:
        words = line.split()
        if not words:
            continue
        if "=" in words[0]:
            records.append((_parse_kv(words), []))
        else:
            _expect(bool(records), f"row {words[0]!r} before any record")
            records[-1][1].append(words)
    return records


def _seal(text: str) -> str:
    """`text` and its seal line: the sha256 of every byte above it."""
    return text + f"sha256={hashlib.sha256(text.encode()).hexdigest()}\n"


def _read(path: str, magic: str, parse):
    """`parse(header, records)` of one sealed file; a wrong magic line, a broken
    seal, or any ValueError, KeyError or IndexError while parsing, raises
    SchemaMismatch."""
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
    except (ValueError, KeyError, IndexError) as err:  # a ValueError names the fault itself
        kind = "" if isinstance(err, ValueError) else f"{type(err).__name__}: "
        raise SchemaMismatch(f"{path}: {kind}{err}") from err


def _write(path: str, text: str):
    if directory := os.path.dirname(path):  # as given, so errors name the given path
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# dataset, and the state and cell parsers it shares with the CLI

_STATE_KEYS = ("type", "x", "y", "rot", "color", "size")


def parse_state(values: list[str]) -> ObjectState:
    """A state from exactly six ints: type, x, y, rot, color, size."""
    if len(values) != len(_STATE_KEYS):
        raise ValueError("a state needs 6 comma-separated ints: "
                         "type,x,y,rot,color,size")
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


def _state_fields(prefix: str, s: ObjectState) -> dict:
    values = (s.type_id, s.pos_x, s.pos_y, s.rotation, s.color, s.size)
    return {f"{prefix}.{key}": v for key, v in zip(_STATE_KEYS, values)}


def save_dataset(path: str, dataset: Dataset):
    lines = [DATASET_MAGIC + " " + _kv_line(
        level=dataset.level, seed=dataset.seed, codebook_seed=dataset.codebook_seed,
        **dict(zip(SPLITS, dataset.split_sizes)), variant=dataset.variant)]
    for task in dataset.tasks:
        fields = {"task_id": task.task_id, "split": task.split,
                  "level": task.env.level,
                  "obstacles": _cells(task.env.obstacles),
                  "dyer": _cells([task.env.dyer]) if task.env.dyer else "-",
                  "dyer_color": task.env.dyer_color if task.env.dyer_color is not None else "-"}
        fields.update(_state_fields("init", task.init))
        fields.update(_state_fields("goal", task.goal))
        fields["gt_actions"] = ",".join(task.gt_actions) if task.gt_actions else "-"
        lines.append(_kv_line(**fields))
    _write(path, _seal("\n".join(lines) + "\n"))


def _parse_dataset(header, records) -> Dataset:
    level, tasks = int(header["level"]), {}
    for kv, rows in records:
        _expect(not rows, "a task record has no rows")
        task_id, split = kv["task_id"], kv["split"]
        _expect(task_id not in tasks, f"task {task_id}: task_id appears twice")
        _expect(split in SPLITS, f"task {task_id}: split={split} is not {'/'.join(SPLITS)}")
        env = EnvConfig(level=int(kv["level"]),
                        obstacles=parse_cells(kv["obstacles"]),
                        dyer=None if kv["dyer"] == "-" else parse_cell(kv["dyer"]),
                        dyer_color=None if kv["dyer_color"] == "-" else int(kv["dyer_color"]))
        _expect(env.level == level, f"task {task_id}: level={env.level}, header level={level}")
        init, goal = (parse_state([kv[f"{prefix}.{key}"] for key in _STATE_KEYS])
                      for prefix in ("init", "goal"))
        _expect(is_valid_state(init, env) and is_valid_state(goal, env),
                f"task {task_id}: init or goal on an obstacle or the dyer")
        actions = () if kv["gt_actions"] == "-" else tuple(kv["gt_actions"].split(","))
        _expect(set(actions) <= set(ACTIONS),
                f"task {task_id}: unknown action in gt_actions={kv['gt_actions']}")
        task = tasks[task_id] = Task(env=env, init=init, goal=goal, gt_actions=actions,
                                     task_id=task_id, split=split)
        _expect(len(actions) <= env.max_len,
                f"task {task_id}: gt plan longer than {env.max_len} steps")
        reason = adjudicate(task, actions).failure_reason  # the judge's own rule
        _expect(reason == "none", f"task {task_id}: gt plan does not reach its goal ({reason})")
    _expect(bool(tasks), "the dataset has no task")
    dataset = Dataset(tasks=list(tasks.values()), seed=int(header["seed"]),
                      codebook_seed=int(header["codebook_seed"]),
                      variant=header.get("variant", "standard"))
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
        dim=c.dim, min_sep=c.min_sep, noise_sigma=c.noise_sigma, thresh=c.thresh,
        fit_seed=c.seed, restarts=c.restarts, codebook_seed=fitted.codebook_seed),
        _kv_line(purity=",".join(repr(p) for p in fitted.train_purity))]
    for k, centers in enumerate(sym.centers):
        lines.append(_kv_line(concept=k, inertia=sym.inertia[k],
                              iterations=sym.iterations[k]))
        lines.extend(f"c {_vec(row)}" for row in centers)
    lines.append(_kv_line(model="counts"))
    for key in fitted.model.action_keys:
        for k, mat in enumerate(fitted.model.counts[key]):
            for (w, w2) in zip(*np.nonzero(mat)):
                lines.append(f"n {key} {k} {w} {w2} {mat[w, w2]}")
    for key in maps.action_keys:
        lines.append(_kv_line(action=key, mse=maps.residual_mse[key]))
        lines.extend(f"A {_vec(row)}" for row in maps.matrices[key])
        lines.append(f"b {_vec(maps.offsets[key])}")
    _write(os.path.join(directory, FIT_FILE), _seal("\n".join(lines) + "\n"))


def _vectors(rows, tags: list[str], width: int, what: str) -> np.ndarray:
    """The vector each of `rows` ends with; the rows carry exactly `tags`, and
    every vector has `width` values."""
    values = np.array([list(map(float, row[-1].split(","))) for row in rows])
    _expect([row[0] for row in rows] == tags and values.shape == (len(tags), width),
            f"{what} needs {len(tags)} rows of {width} values")
    _expect(np.isfinite(values).all(), f"{what} has a value that is not finite")
    return values


def _parse_fit(header, records) -> Fitted:
    config = FitConfig(dim=int(header["dim"]), min_sep=float(header["min_sep"]),
                       noise_sigma=float(header["noise_sigma"]),
                       thresh=float(header["thresh"]), seed=int(header["fit_seed"]),
                       restarts=int(header["restarts"]))
    codebook = build_codebook(dim=config.dim, seed=int(header["codebook_seed"]),
                              min_sep=config.min_sep)
    cards = codebook.cardinalities
    (meta, _), *rest = records
    concepts, ((counts_kv, count_rows), *map_records) = rest[:len(cards)], rest[len(cards):]
    symbolizer = Symbolizer(
        centers=tuple(_vectors(rows, ["c"] * card, config.dim, f"concept {k}")
                      for k, ((_, rows), card) in enumerate(zip(concepts, cards))),
        inertia=tuple(float(kv["inertia"]) for kv, _ in concepts),
        iterations=tuple(int(kv["iterations"]) for kv, _ in concepts))
    for k, (kv, _) in enumerate(concepts):  # records of equal size could trade places
        _expect(kv.get("concept") == str(k), f"the record of concept {k} reads {_kv_line(**kv)}")
    purity = tuple(float(p) for p in meta["purity"].split(","))
    _expect(len(purity) == len(cards), f"purity needs {len(cards)} values, got {len(purity)}")

    _expect(counts_kv == {"model": "counts"}, f"the counts record reads {_kv_line(**counts_kv)}")
    _expect(all(row[0] == "n" for row in count_rows), "a non-'n' row among the counts")
    counts = count_tables(((key, int(k), int(w), int(w2), int(n))
                           for _, key, k, w, w2, n in count_rows), cards)
    model = TransitionModel(cardinalities=cards, thresh=config.thresh, counts=counts)

    size = 6 * config.dim
    matrices, offsets, mses = {}, {}, {}
    for kv, rows in map_records:
        _expect("action" in kv, f"a map record reads {_kv_line(**kv)}")
        key = kv["action"]
        values = _vectors(rows, ["A"] * size + ["b"], size, f"action {key}")
        matrices[key], offsets[key] = values[:-1], values[-1]
        mses[key] = float(kv["mse"])
    _expect(np.isfinite([config.noise_sigma, *purity, *symbolizer.inertia, *mses.values()]).all(),
            "noise_sigma, purity, inertia or mse is not finite")
    _expect(config.noise_sigma >= 0, f"noise_sigma is negative: {config.noise_sigma}")
    maps = ActionTransitionMaps(dim=config.dim, matrices=matrices, offsets=offsets,
                                residual_mse=mses)
    return Fitted(config=config, codebook=codebook, symbolizer=symbolizer,
                  model=model, maps=maps, train_purity=purity)


def load_fitted(directory: str) -> Fitted:
    """Read `fit.txt`; the codebook is rebuilt from its seed."""
    return _read(os.path.join(directory, FIT_FILE), FIT_MAGIC, _parse_fit)


def check_compatible(dataset: Dataset, fitted: Fitted):
    """Dataset and fit artifacts must stem from the same codebook."""
    if dataset.codebook_seed != fitted.codebook_seed:
        raise SchemaMismatch(
            f"dataset codebook seed {dataset.codebook_seed} != "
            f"artifact codebook seed {fitted.codebook_seed}")


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
