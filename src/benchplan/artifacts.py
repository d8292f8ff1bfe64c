"""Versioned plain-text artifact files.

Every artifact is line-oriented: a header line carrying the schema tag and
the resolved configuration, then flat key=value records. Floats are written
with repr() so write/read round-trips are exact and reruns with equal seeds
produce byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np

from .concepts import ConceptCodebook
from .evaluate import EvalReport
from .fitting import FitConfig, Fitted, value_symbol_maps
from .mdp import TransitionModel, _key_rank
from .symbols import Symbolizer
from .taskgen import Dataset, Task
from .workbench import EnvConfig, ObjectState
from .token_maps import ActionTransitionMaps

DATASET_MAGIC = "#workbench-dataset v1"
CODEBOOK_MAGIC = "#workbench-codebook v1"
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
    """Artifact header disagrees with expectations (magic, version, or seeds)."""


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _kv_line(**fields) -> str:
    return " ".join(f"{k}={_fmt(v)}" for k, v in fields.items())


def _parse_kv(line: str) -> dict[str, str]:
    out = {}
    for token in line.split():
        key, _, value = token.partition("=")
        out[key] = value
    return out


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _unvec(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")]) if text else np.array([])


def _read_lines(path: str, magic: str) -> tuple[dict[str, str], list[str]]:
    if not os.path.exists(path):
        raise MissingArtifact(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(magic):
        raise SchemaMismatch(f"{path}: expected header {magic!r}")
    header = _parse_kv(lines[0][len(magic):].strip())
    return header, lines[1:]


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# dataset

def _cells(cells) -> str:
    return ";".join(f"{x},{y}" for x, y in cells) if cells else "-"


def _uncells(text: str) -> tuple[tuple[int, int], ...]:
    if text == "-":
        return ()
    return tuple(tuple(int(v) for v in item.split(",")) for item in text.split(";"))


def _state_fields(prefix: str, s: ObjectState) -> dict:
    return {f"{prefix}.type": s.type_id, f"{prefix}.x": s.pos_x,
            f"{prefix}.y": s.pos_y, f"{prefix}.rot": s.rotation,
            f"{prefix}.color": s.color, f"{prefix}.size": s.size}


def _parse_state(prefix: str, kv: dict[str, str]) -> ObjectState:
    return ObjectState(type_id=int(kv[f"{prefix}.type"]), pos_x=int(kv[f"{prefix}.x"]),
                       pos_y=int(kv[f"{prefix}.y"]), rotation=int(kv[f"{prefix}.rot"]),
                       color=int(kv[f"{prefix}.color"]), size=int(kv[f"{prefix}.size"]))


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


def load_dataset(path: str) -> Dataset:
    header, lines = _read_lines(path, DATASET_MAGIC)
    tasks = []
    for line in lines:
        if not line.strip():
            continue
        kv = _parse_kv(line)
        dyer = _uncells(kv["dyer"])
        env = EnvConfig(level=int(kv["level"]),
                        obstacles=_uncells(kv["obstacles"]),
                        dyer=dyer[0] if dyer else None,
                        dyer_color=None if kv["dyer_color"] == "-" else int(kv["dyer_color"]))
        actions = () if kv["gt_actions"] == "-" else tuple(kv["gt_actions"].split(","))
        tasks.append(Task(env=env, init=_parse_state("init", kv),
                          goal=_parse_state("goal", kv),
                          gt_actions=actions, task_id=kv["task_id"],
                          split=kv["split"]))
    return Dataset(level=int(header["level"]), tasks=tasks, seed=int(header["seed"]),
                   codebook_seed=int(header["codebook_seed"]),
                   split_sizes=(int(header["train"]), int(header["val"]),
                                int(header["test"])),
                   variant=header.get("variant", "standard"))


# ---------------------------------------------------------------------------
# codebook

def save_codebook(path: str, codebook: ConceptCodebook):
    lines = [CODEBOOK_MAGIC + " " + _kv_line(
        dim=codebook.dim, seed=codebook.seed, min_sep=codebook.min_sep,
        cardinalities=",".join(str(c) for c in codebook.cardinalities))]
    for k, table in enumerate(codebook.centroids):
        for v, row in enumerate(table):
            lines.append(f"mu {k} {v} {_vec(row)}")
    _write(path, "\n".join(lines) + "\n")


def load_codebook(path: str) -> ConceptCodebook:
    header, lines = _read_lines(path, CODEBOOK_MAGIC)
    cards = [int(c) for c in header["cardinalities"].split(",")]
    tables: list[list] = [[None] * c for c in cards]
    for line in lines:
        if not line.strip():
            continue
        _, k, v, csv = line.split(" ", 3)
        tables[int(k)][int(v)] = _unvec(csv)
    return ConceptCodebook(dim=int(header["dim"]), seed=int(header["seed"]),
                           min_sep=float(header["min_sep"]),
                           centroids=tuple(np.array(t) for t in tables))


# ---------------------------------------------------------------------------
# fitted artifacts: symbolizer, transition model, affine maps

def _fit_header(magic: str, fitted: Fitted) -> str:
    c = fitted.config
    return magic + " " + _kv_line(
        dim=c.dim, min_sep=c.min_sep, noise_sigma=c.noise_sigma, thresh=c.thresh,
        fit_seed=c.seed, restarts=c.restarts, codebook_seed=fitted.codebook_seed)


def _config_from_header(header: dict[str, str]) -> FitConfig:
    return FitConfig(dim=int(header["dim"]), min_sep=float(header["min_sep"]),
                     noise_sigma=float(header["noise_sigma"]),
                     thresh=float(header["thresh"]), seed=int(header["fit_seed"]),
                     restarts=int(header["restarts"]))


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
    for k, occ in enumerate(model.occurrences):
        for (w, j) in zip(*np.nonzero(occ)):
            lines.append(f"m {k} {w} {model.base_actions[j]} {occ[w, j]}")
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


def load_fitted(directory: str) -> Fitted:
    """Read the three fit artifacts and rebuild the codebook from its seed."""
    from .concepts import build_codebook

    sym_header, sym_lines = _read_lines(
        os.path.join(directory, SYMBOLIZER_FILE), SYMBOLIZER_MAGIC)
    model_header, model_lines = _read_lines(
        os.path.join(directory, MODEL_FILE), MODEL_MAGIC)
    maps_header, maps_lines = _read_lines(
        os.path.join(directory, MAPS_FILE), MAPS_MAGIC)
    for other in (model_header, maps_header):
        if other["codebook_seed"] != sym_header["codebook_seed"] \
                or other["fit_seed"] != sym_header["fit_seed"]:
            raise SchemaMismatch("fit artifacts disagree on their seeds")
    config = _config_from_header(sym_header)
    codebook_seed = int(sym_header["codebook_seed"])

    meta = _parse_kv(sym_lines[0])
    purity = tuple(float(p) for p in meta["purity"].split(","))
    centers: list[list] = []
    inertia: list[float] = []
    iterations: list[int] = []
    current: list[np.ndarray] | None = None
    for line in sym_lines[1:]:
        if not line.strip():
            continue
        if line.startswith("c "):
            _, _, _, csv = line.split(" ", 3)
            current.append(_unvec(csv))
        else:
            kv = _parse_kv(line)
            current = []
            centers.append(current)
            inertia.append(float(kv["inertia"]))
            iterations.append(int(kv["iterations"]))
    symbolizer = Symbolizer(centers=tuple(np.array(c) for c in centers),
                            inertia=tuple(inertia), iterations=tuple(iterations),
                            seed=int(meta["sym_seed"]))

    meta = _parse_kv(model_lines[0])
    cards = tuple(int(c) for c in meta["cardinalities"].split(","))
    keys = tuple(meta["actions"].split(","))
    bases = tuple(meta["base_actions"].split(","))
    counts = {key: [np.zeros((c, c), dtype=np.int64) for c in cards] for key in keys}
    occ = [np.zeros((c, len(bases)), dtype=np.int64) for c in cards]
    base_pos = {a: i for i, a in enumerate(bases)}
    for line in model_lines[1:]:
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] == "n":
            _, key, k, w, w2, n = parts
            counts[key][int(k)][int(w), int(w2)] = int(n)
        elif parts[0] == "m":
            _, k, w, action, n = parts
            occ[int(k)][int(w), base_pos[action]] = int(n)
    model = TransitionModel(cardinalities=cards, thresh=config.thresh,
                            action_keys=keys, base_actions=bases,
                            counts=counts, occurrences=occ)

    matrices, offsets, mses, pair_counts = {}, {}, {}, {}
    current_key = None
    rows: list[np.ndarray] = []
    for line in maps_lines:
        if not line.strip():
            continue
        if line.startswith("A "):
            rows.append(_unvec(line[2:]))
        elif line.startswith("b "):
            matrices[current_key] = np.array(rows)
            offsets[current_key] = _unvec(line[2:])
            rows = []
        else:
            kv = _parse_kv(line)
            current_key = kv["action"]
            mses[current_key] = float(kv["mse"])
            pair_counts[current_key] = int(kv["pairs"])
    maps = ActionTransitionMaps(dim=config.dim,
                                action_keys=tuple(sorted(matrices, key=_key_rank)),
                                matrices=matrices, offsets=offsets,
                                residual_mse=mses, pair_counts=pair_counts)

    codebook = build_codebook(dim=config.dim, seed=codebook_seed,
                              min_sep=config.min_sep)
    return Fitted(config=config, codebook_seed=codebook_seed, codebook=codebook,
                  symbolizer=symbolizer, model=model, maps=maps,
                  value_maps=value_symbol_maps(codebook, symbolizer),
                  train_purity=purity)


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
