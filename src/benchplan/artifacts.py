"""Versioned plain-text artifact files.

A header line carries the schema tag and the resolved configuration; every
loader reads the body through one grammar (`_records`): a line of key=value
fields opens a record, and the rows under it start with a tag: `c` (symbolizer
centers), `n`/`m` (model transition/occurrence counts), `A`/`b` (affine maps).
The model is rebuilt from its `n` rows; the loader checks what the file repeats
(`actions`, `base_actions`, every `m` row) against it, every row count the file
states, the model's cardinalities against the symbolizer's, and that the three
fit headers agree. Malformed content raises SchemaMismatch naming the file.
Floats are written with repr(), so round-trips are exact and reruns with equal
seeds write byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np

from .concepts import build_codebook
from .evaluate import EvalReport
from .fitting import FitConfig, Fitted
from .mdp import TransitionModel, _key_rank
from .symbols import Symbolizer
from .taskgen import Dataset, Task
from .workbench import EnvConfig, ObjectState
from .token_maps import ActionTransitionMaps

DATASET_MAGIC = "#workbench-dataset v1"
SYMBOLIZER_MAGIC = "#workbench-symbolizer v1"
MODEL_MAGIC = "#workbench-mdp v1"
MAPS_MAGIC = "#workbench-maps v1"
REPORT_MAGIC = "#workbench-report v1"

SYMBOLIZER_FILE = "symbolizer.txt"
MODEL_FILE = "model.txt"
MAPS_FILE = "maps.txt"


class MissingArtifact(Exception):
    """A referenced artifact file does not exist."""


class SchemaMismatch(Exception):
    """Artifact content is malformed, truncated, or disagrees with other files."""


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


def _read(path: str, magic: str, parse, *args):
    """`parse(header, records, *args)` of one file; a wrong magic line, or any
    ValueError, KeyError or IndexError while parsing, raises SchemaMismatch."""
    if not os.path.exists(path):
        raise MissingArtifact(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(magic):
        raise SchemaMismatch(f"{path}: expected header {magic!r}")
    try:
        return parse(_parse_kv(lines[0][len(magic):].split()), _records(lines[1:]),
                     *args)
    except (ValueError, KeyError, IndexError) as err:
        raise SchemaMismatch(f"{path}: {type(err).__name__}: {err}") from err


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
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
        train=dataset.split_sizes[0], val=dataset.split_sizes[1],
        test=dataset.split_sizes[2], variant=dataset.variant)]
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
    _write(path, "\n".join(lines) + "\n")


def _parse_dataset(header, records) -> Dataset:
    tasks = []
    for kv, rows in records:
        _expect(not rows, "a task record has no rows")
        env = EnvConfig(level=int(kv["level"]),
                        obstacles=parse_cells(kv["obstacles"]),
                        dyer=None if kv["dyer"] == "-" else parse_cell(kv["dyer"]),
                        dyer_color=None if kv["dyer_color"] == "-" else int(kv["dyer_color"]))
        init, goal = (parse_state([kv[f"{prefix}.{key}"] for key in _STATE_KEYS])
                      for prefix in ("init", "goal"))
        actions = () if kv["gt_actions"] == "-" else tuple(kv["gt_actions"].split(","))
        tasks.append(Task(env=env, init=init, goal=goal, gt_actions=actions,
                          task_id=kv["task_id"], split=kv["split"]))
    return Dataset(level=int(header["level"]), tasks=tasks, seed=int(header["seed"]),
                   codebook_seed=int(header["codebook_seed"]),
                   split_sizes=(int(header["train"]), int(header["val"]),
                                int(header["test"])),
                   variant=header.get("variant", "standard"))


def load_dataset(path: str) -> Dataset:
    return _read(path, DATASET_MAGIC, _parse_dataset)


# ---------------------------------------------------------------------------
# fitted artifacts: symbolizer, transition model, affine maps

def _fit_header(magic: str, fitted: Fitted) -> str:
    c = fitted.config
    return magic + " " + _kv_line(
        dim=c.dim, min_sep=c.min_sep, noise_sigma=c.noise_sigma, thresh=c.thresh,
        fit_seed=c.seed, restarts=c.restarts, codebook_seed=fitted.codebook_seed)


def _fit_of(header: dict[str, str]) -> tuple[FitConfig, int]:
    """The fit config and codebook seed that every fit header repeats."""
    config = FitConfig(dim=int(header["dim"]), min_sep=float(header["min_sep"]),
                       noise_sigma=float(header["noise_sigma"]),
                       thresh=float(header["thresh"]), seed=int(header["fit_seed"]),
                       restarts=int(header["restarts"]))
    return config, int(header["codebook_seed"])


def _occurrence_rows(model: TransitionModel) -> list[list[str]]:
    """The `m` rows of a model file: the nonzero occurrence counts."""
    return [["m", str(k), str(w), model.base_actions[j], str(occ[w, j])]
            for k, occ in enumerate(model.occurrences)
            for (w, j) in zip(*np.nonzero(occ))]


def save_fitted(directory: str, fitted: Fitted):
    """Write the three fit artifacts; each header repeats the full fit config."""
    sym = fitted.symbolizer
    lines = [_fit_header(SYMBOLIZER_MAGIC, fitted),
             _kv_line(sym_seed=sym.seed,
                      purity=",".join(repr(p) for p in fitted.train_purity))]
    for k, centers in enumerate(sym.centers):
        lines.append(_kv_line(concept=k, k=len(centers), inertia=sym.inertia[k],
                              iterations=sym.iterations[k]))
        for i, row in enumerate(centers):
            lines.append(f"c {k} {i} {_vec(row)}")
    _write(os.path.join(directory, SYMBOLIZER_FILE), "\n".join(lines) + "\n")

    model = fitted.model
    lines = [_fit_header(MODEL_MAGIC, fitted),
             _kv_line(cardinalities=",".join(str(c) for c in model.cardinalities),
                      actions=",".join(model.action_keys),
                      base_actions=",".join(model.base_actions))]
    for key in model.action_keys:
        for k, mat in enumerate(model.counts[key]):
            for (w, w2) in zip(*np.nonzero(mat)):
                lines.append(f"n {key} {k} {w} {w2} {mat[w, w2]}")
    lines.extend(" ".join(row) for row in _occurrence_rows(model))
    _write(os.path.join(directory, MODEL_FILE), "\n".join(lines) + "\n")

    maps = fitted.maps
    lines = [_fit_header(MAPS_MAGIC, fitted)]
    for key in maps.action_keys:
        lines.append(_kv_line(action=key, pairs=maps.pair_counts[key],
                              mse=maps.residual_mse[key]))
        for row in maps.matrices[key]:
            lines.append(f"A {_vec(row)}")
        lines.append(f"b {_vec(maps.offsets[key])}")
    _write(os.path.join(directory, MAPS_FILE), "\n".join(lines) + "\n")


def _vectors(rows, tags: list[str], width: int, what: str) -> np.ndarray:
    """The vector each of `rows` ends with; the rows carry exactly `tags`, and
    every vector has `width` values."""
    values = np.array([list(map(float, row[-1].split(","))) for row in rows])
    _expect([row[0] for row in rows] == tags and values.shape == (len(tags), width),
            f"{what} needs {len(tags)} rows of {width} values")
    return values


def _parse_symbolizer(header, records):
    fit = _fit_of(header)
    config, codebook_seed = fit
    codebook = build_codebook(dim=config.dim, seed=codebook_seed,
                              min_sep=config.min_sep)
    (meta, _), *blocks = records
    purity = tuple(float(p) for p in meta["purity"].split(","))
    _expect(len(blocks) == len(purity),
            f"{len(blocks)} concepts for {len(purity)} purity values")
    centers = tuple(_vectors(rows, ["c"] * int(kv["k"]), config.dim,
                             f"concept {kv['concept']}") for kv, rows in blocks)
    symbolizer = Symbolizer(centers=centers,
                            inertia=tuple(float(kv["inertia"]) for kv, _ in blocks),
                            iterations=tuple(int(kv["iterations"]) for kv, _ in blocks),
                            seed=int(meta["sym_seed"]))
    return fit, codebook, symbolizer, purity


def _parse_model(header, records, fit, cardinalities):
    _expect(_fit_of(header) == fit, f"header disagrees with {SYMBOLIZER_FILE}")
    (meta, rows), = records
    cards = tuple(int(c) for c in meta["cardinalities"].split(","))
    _expect(cards == cardinalities,
            f"cardinalities {cards} are not the symbolizer's {cardinalities}")
    counts: dict[str, list[np.ndarray]] = {}
    for row in rows:
        if row[0] == "n":
            _, key, k, w, w2, n = row
            if key not in counts:
                counts[key] = [np.zeros((c, c), dtype=np.int64) for c in cards]
            counts[key][int(k)][int(w), int(w2)] = int(n)
    model = TransitionModel(cardinalities=cards, thresh=fit[0].thresh, counts=counts)
    _expect(meta["actions"] == ",".join(model.action_keys),
            "actions are not the keys of the n rows")
    _expect(meta["base_actions"] == ",".join(model.base_actions),
            "base_actions are not the atomic actions of the n rows")
    _expect([row for row in rows if row[0] != "n"] == _occurrence_rows(model),
            "m rows are not the occurrences of the n rows")
    return model


def _parse_maps(header, records, fit):
    _expect(_fit_of(header) == fit, f"header disagrees with {SYMBOLIZER_FILE}")
    size = 6 * fit[0].dim
    matrices, offsets, mses, pair_counts = {}, {}, {}, {}
    for kv, rows in records:
        key = kv["action"]
        values = _vectors(rows, ["A"] * size + ["b"], size, f"action {key}")
        matrices[key], offsets[key] = values[:-1], values[-1]
        mses[key] = float(kv["mse"])
        pair_counts[key] = int(kv["pairs"])
    return ActionTransitionMaps(dim=fit[0].dim,
                                action_keys=tuple(sorted(matrices, key=_key_rank)),
                                matrices=matrices, offsets=offsets,
                                residual_mse=mses, pair_counts=pair_counts)


def load_fitted(directory: str) -> Fitted:
    """Read the three fit artifacts; the codebook is rebuilt from its seed."""
    sym_path, model_path, maps_path = (os.path.join(directory, name) for name in
                                       (SYMBOLIZER_FILE, MODEL_FILE, MAPS_FILE))
    fit, codebook, symbolizer, purity = _read(sym_path, SYMBOLIZER_MAGIC,
                                              _parse_symbolizer)
    model = _read(model_path, MODEL_MAGIC, _parse_model, fit, symbolizer.cardinalities)
    maps = _read(maps_path, MAPS_MAGIC, _parse_maps, fit)
    return Fitted(config=fit[0], codebook=codebook, symbolizer=symbolizer,
                  model=model, maps=maps, train_purity=purity)


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
