"""Command-line pipeline with staged on-disk artifacts.

Stages: ``synth`` (optional dataset generation), ``ingest`` (validate
and assemble the feature matrix), ``cluster`` (PCA + silhouette K
scan), ``select`` (task scores and training conditions), ``train``
(leave-one-subject-out study), ``report`` (summary tables, statistics,
figures). Each stage persists what the next one needs, so clustering
results can be inspected before committing to training.

``STAGES`` names what each stage but ``synth`` reads; ``run_stage``
refuses stale upstream records in ``run_manifest.json``, has the stage
write into ``out/.tmp-<stage>/``, moves its files into place, and
records their hashes last.

Exit codes: 0 success, 1 configuration/usage error or a missing or
stale upstream stage, 2 runtime failure. Logs go to stderr, artifacts
to the configured output directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import math
import os
import resource
import shutil
import sys
import time
import zipfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable
from urllib.parse import quote

import numpy as np

from .cluster import ClusterModel, select_k
from .config import PathSettings, RunConfig, default_config_dict, load_run_config
from .crossval import (
    aligned_fold_metric,
    read_fold_results_csv,
    run_study,
    summarize_condition,
    write_fold_results_csv,
)
from .dataset import (
    SENSOR_INPUT_DIM,
    SampleTable,
    TaskManifest,
    exclude_subjects,
    load_profiles,
    load_sensor_samples,
)
from .errors import ConfigError, DataFormatError, MissingArtifactError, TaskOptError
from .nn import FcnnModel
from .pca import pca_fit, pca_transform, select_components
from .plots import bar_svg, scatter_svg
from .stats import one_way_anova, pairwise_bonferroni
from .synth import SynthSpec, generate
from .taskselect import (
    make_conditions,
    read_conditions_json,
    select_representatives,
    task_weight_analysis,
    write_conditions_json,
)

log = logging.getLogger("taskopt")

FEATURE_MATRIX = "feature_matrix.npy"
ROW_LABELS = "row_labels.csv"
INGEST_REPORT = "ingest_report.json"
SENSOR_SAMPLES = "sensor_samples.npz"
SENSOR_TRIALS = "sensor_trials.csv"
CLUSTER_MODEL = "cluster_model.json"
CONDITIONS = "conditions.json"
FOLD_RESULTS = "fold_results.csv"
RUN_MANIFEST = "run_manifest.json"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _missing(path: Path, producer: str) -> MissingArtifactError:
    return MissingArtifactError(f"missing artifact {path.name} in {path.parent}; "
                                f"run `taskopt {producer}` first")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload, **options) -> None:
    """``payload`` as one JSON document: indented, keys sorted, unless ``options`` differ."""
    options = {"indent": 2, "sort_keys": True} | options
    path.write_text(json.dumps(payload, **options) + "\n", encoding="utf-8")


def _read_row_labels(path: Path, n_rows: int | None = None) -> list[tuple[str, str, str]]:
    """The (subject, task, trial) labels after the header; ``n_rows`` of them if given."""
    with path.open("r", encoding="utf-8", newline="") as fh:
        labels = [tuple(row) for row in list(csv.reader(fh))[1:]]
    n_rows = len(labels) if n_rows is None else n_rows
    if len(labels) != n_rows or any(len(label) != 3 for label in labels):
        raise DataFormatError(f"{path}: expected {n_rows} rows of 3 cells "
                              "(subject, task, trial) after the header")
    return labels


def _read_feature_matrix(out: Path) -> tuple[np.ndarray, list[tuple[str, str, str]]]:
    """The ingest stage's matrix and its row labels, checked against each other."""
    path = out / FEATURE_MATRIX
    try:
        with path.open("rb") as fh:
            rows = np.load(fh)
    except (OSError, ValueError, EOFError) as exc:
        raise DataFormatError(f"{path}: not a saved numpy array ({exc})") from exc
    if not isinstance(rows, np.ndarray):  # an .npz archive
        raise DataFormatError(f"{path}: expected a 2-D float array, got {type(rows).__name__}")
    if rows.ndim != 2 or rows.dtype.kind != "f":
        raise DataFormatError(f"{path}: expected a 2-D float array, "
                              f"got {rows.ndim}-D {rows.dtype}")
    return rows, _read_row_labels(out / ROW_LABELS, rows.shape[0])


def _read_samples(out: Path) -> SampleTable:
    """The ingest stage's sensor table, its arrays checked against its trial keys."""
    keys = np.array(_read_row_labels(out / SENSOR_TRIALS), dtype=object).reshape(-1, 3)
    path = out / SENSOR_SAMPLES
    try:  # an .npy file loads as an array, which is no context manager: TypeError
        with path.open("rb") as fh, np.load(fh, allow_pickle=False) as archive:
            x, y, times, codes = (archive[name] for name in ("x", "y", "times", "codes"))
    except (OSError, ValueError, EOFError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise DataFormatError(f"{path}: not a sensor table ({exc!r})") from exc
    n = codes.size
    if not (x.shape == (n, SENSOR_INPUT_DIM) and y.shape == times.shape == codes.shape == (n,)
            and x.dtype.kind == y.dtype.kind == times.dtype.kind == "f" and codes.dtype.kind == "i"
            and (n == 0 or 0 <= codes.min() <= codes.max() < len(keys))):
        raise DataFormatError(f"{path}: expected float x (n, {SENSOR_INPUT_DIM}), y and times "
                              f"(n,), and int codes (n,) below the {len(keys)} trial keys")
    return SampleTable(x=x, y=y, times=times, codes=codes, keys=keys)


def _read_manifest(out: Path) -> dict:
    """The per-command entries of ``out``'s run manifest; empty if there is none."""
    path = out / RUN_MANIFEST
    try:
        return dict(json.loads(path.read_text(encoding="utf-8"))["commands"]
                    if path.exists() else {})
    except (ValueError, KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: not a run manifest ({exc!r})") from exc


def _record(out: Path, command: str, entry: dict) -> None:
    """Set ``command``'s run-manifest entry; the file is replaced in one step."""
    commands = _read_manifest(out)
    commands[command] = entry | {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds")}
    part = out / f".{RUN_MANIFEST}.part"
    _write_json(part, {"commands": commands})
    os.replace(part, out / RUN_MANIFEST)


def _safe_name(value: str) -> str:
    """A file-name part that differs for different ids (percent-encoding)."""
    return quote(value, safe="")


# --------------------------------------------------------------- subcommands


def cmd_synth(args) -> None:
    spec = SynthSpec(
        seed=args.seed,
        n_subjects=args.subjects,
        n_tasks=args.tasks,
        n_clusters=args.clusters,
        cyclic_clusters=min(SynthSpec().cyclic_clusters, args.clusters),
    )
    out = Path(args.out)
    result = generate(spec, out)
    config_path = out / "config.json"
    paths = PathSettings(
        profiles=str(result.profiles_path.resolve()),
        sensors=str(result.sensors_path.resolve()),
        tasks=str(result.tasks_path.resolve()),
        out_dir=str((out / "run").resolve()),
    )
    _write_json(config_path, default_config_dict(paths, seed=args.seed), sort_keys=False)
    log.info("synthetic dataset in %s (separation ratio %.2f)",
             out, result.separation_ratio)
    log.info("pipeline config written to %s", config_path)
    written = [result.profiles_path, result.sensors_path, result.tasks_path,
               result.ground_truth_path, config_path]
    _record(out, "synth", {
        "config": {"seed": args.seed, "subjects": args.subjects,
                   "tasks": args.tasks, "clusters": args.clusters},
        "inputs": {},
        "artifacts": {p.name: _sha256(p) for p in written},
    })


def cmd_ingest(cfg: RunConfig, out: Path, tmp: Path, jobs: int) -> dict:
    manifest = TaskManifest.from_json(cfg.paths.tasks)
    matrix, stats = load_profiles(cfg.paths.profiles, manifest, cfg.dataset.target_length)
    matrix, exclusion = exclude_subjects(matrix, cfg.study.min_cyclic_trials, manifest)
    for subject, count in exclusion.dropped:
        log.info("excluding subject %s (%d cyclic trial(s) < %d)",
                 subject, count, cfg.study.min_cyclic_trials)
    if not matrix.n:
        raise TaskOptError("no profiles left after subject exclusion")
    samples, sensor_stats = load_sensor_samples(cfg.paths.sensors, manifest)
    kept = samples.isin("subject", exclusion.kept_subjects)
    dropped, counts = np.unique(samples.subjects[~kept], return_counts=True)
    dropped_rows = dict(zip(dropped.tolist(), counts.tolist()))
    if dropped_rows:
        log.info("dropping the sensor rows of subjects not kept: %s", dropped_rows)
    samples = samples.subset(kept)
    np.save(tmp / FEATURE_MATRIX, matrix.rows)
    _write_csv(tmp / ROW_LABELS, ["subject", "task", "trial"], matrix.row_labels)
    np.savez(tmp / SENSOR_SAMPLES, x=samples.x, y=samples.y, times=samples.times,
             codes=samples.codes)
    _write_csv(tmp / SENSOR_TRIALS, ["subject", "task", "trial"], samples.keys.tolist())
    _write_json(tmp / INGEST_REPORT, {
        "profiles": stats.to_dict(),
        "exclusion": exclusion.to_dict(),
        "matrix": {"n": matrix.n, "d": matrix.d,
                   "target_length": cfg.dataset.target_length},
        "sensors": sensor_stats.to_dict(),
        "sensor_rows_dropped_subject": dropped_rows,
    })
    log.info("feature matrix %d x %d from %d subjects",
             matrix.n, matrix.d, len(exclusion.kept_subjects))
    return {"rows": matrix.n}


def cmd_cluster(cfg: RunConfig, out: Path, tmp: Path, jobs: int) -> dict:
    rows, labels = _read_feature_matrix(out)

    model = pca_fit(rows, standardize=cfg.pca.standardize)
    p_star, cumulative = select_components(model, cfg.pca.variance_threshold)
    scores = pca_transform(model, rows, p_star)
    log.info("keeping %d principal component(s), cumulative variance %.4f",
             p_star, cumulative)

    n = rows.shape[0]
    k_values = [k for k in range(cfg.cluster.k_min, cfg.cluster.k_max + 1)
                if k <= n - 1]
    if not k_values:
        raise TaskOptError(
            f"no valid K in [{cfg.cluster.k_min}, {cfg.cluster.k_max}] "
            f"for {n} rows"
        )
    scan = select_k(scores, k_values, seed=cfg.seed,
                    restarts=cfg.cluster.restarts, max_iter=cfg.cluster.max_iter)
    log.info("silhouette scan picked K=%d (silhouette %.4f)",
             scan.best_k, scan.model.silhouette)

    model.to_json(tmp / "pca_model.json")
    _write_json(tmp / "pca_selection.json",
                {"n_components": p_star, "cumulative_variance": cumulative,
                 "best_k": scan.best_k, "silhouette": scan.model.silhouette})
    scan.model.to_json(tmp / CLUSTER_MODEL)
    scan.write_csv(tmp / "silhouette_scan.csv")

    _write_csv(
        tmp / "pca_scores.csv",
        ["subject", "task", "trial"] + [f"pc{i + 1}" for i in range(p_star)],
        ([*label, *(repr(float(v)) for v in row)]
         for label, row in zip(labels, scores)),
    )

    ys = scores[:, 1] if p_star >= 2 else np.zeros(n)
    scatter_svg(
        tmp / "pca_scatter.svg",
        scores[:, 0], ys, scan.model.assignments,
        title=f"PCA scores, K={scan.best_k}",
        xlabel="PC1", ylabel="PC2" if p_star >= 2 else "0",
    )
    return {"rows": n}


def cmd_select(cfg: RunConfig, out: Path, tmp: Path, jobs: int) -> dict:
    cluster_model = ClusterModel.from_json(out / CLUSTER_MODEL)
    labels = _read_row_labels(out / ROW_LABELS, len(cluster_model.assignments))
    manifest = TaskManifest.from_json(cfg.paths.tasks)
    weights = manifest.weights()
    unknown = sorted({task for _, task, _ in labels} - weights.keys())
    if unknown:
        raise DataFormatError(f"{out / ROW_LABELS}: task(s) {unknown} are not "
                              f"active tasks of {cfg.paths.tasks}")

    rows = task_weight_analysis(cluster_model.assignments, labels, weights)
    representatives = select_representatives(rows)
    if len(set(representatives.values())) < len(representatives):
        log.info("a task represents more than one cluster; the optimized set "
                 "is deduplicated")
    conditions = make_conditions(manifest, representatives)
    for name, ts in conditions.items():
        log.info("condition %-9s %d task(s)", name, len(ts.tasks))

    _write_csv(tmp / "task_weights.csv",
               ["cluster", "task", "a_over_b", "a_over_c", "s_over_total", "w", "r"],
               ([r.cluster, r.task, *map(repr, (r.a_over_b, r.a_over_c, r.s_over_total,
                                                r.w, r.r))] for r in rows))
    write_conditions_json(conditions, tmp / CONDITIONS)
    return {"rows": len(labels)}


def cmd_train(cfg: RunConfig, out: Path, tmp: Path, jobs: int) -> dict:
    conditions_path = out / CONDITIONS
    conditions = read_conditions_json(conditions_path)
    missing = [name for name in cfg.study.conditions if name not in conditions]
    if missing:
        raise DataFormatError(f"{conditions_path}: no condition(s) {missing}")
    samples = _read_samples(out)
    selected = {name: conditions[name] for name in cfg.study.conditions}
    for name, task_set in selected.items():
        # With >= 2 such subjects, no fold's train pool is empty.
        n = len(samples.subset(samples.isin("task", task_set.tasks)).subject_set())
        if n < 2:
            raise DataFormatError(
                f"{out / SENSOR_SAMPLES}: condition {name!r} has sensor rows of its "
                f"tasks for {n} kept subject(s); leave-one-subject-out needs >= 2")
    log.info("training %d condition(s) x %d subject(s), jobs=%d",
             len(selected), len(samples.subject_set()), jobs)
    study = run_study(samples, selected, cfg.nn, seed=cfg.seed,
                      val_fraction=cfg.study.val_fraction, jobs=jobs)
    for cond, subject, reason in study.skipped:
        log.warning("skipped fold (%s, %s): %s", cond, subject, reason)

    write_fold_results_csv(study.folds, tmp / FOLD_RESULTS)
    (tmp / "histories").mkdir()
    (tmp / "checkpoints").mkdir()
    for (cond, subject), history in study.histories.items():
        _write_csv(tmp / "histories" /
                   f"history_{_safe_name(cond)}_{_safe_name(subject)}.csv",
                   ["epoch", "train_mse", "val_mse"],
                   ([r.epoch, repr(r.train_mse), repr(r.val_mse)] for r in history.records))
    for (cond, subject), checkpoint in study.checkpoints.items():
        _write_json(tmp / "checkpoints" /
                    f"model_{_safe_name(cond)}_{_safe_name(subject)}.json",
                    checkpoint, indent=None)
    _write_json(tmp / "train_report.json", {
        "skipped_folds": [{"condition": c, "subject": s, "reason": r}
                          for c, s, r in study.skipped],
        "n_folds": len(study.folds),
    })
    return {"rows": samples.n, "folds": len(study.folds)}


_ALPHA = 0.05


def _stats_payload(present: list[str], folds) -> dict:
    if len(present) < 2:
        return {
            "note": "statistical comparison needs >= 2 conditions; "
                    f"only {present} present"
        }
    payload: dict = {"conditions": present, "alpha": _ALPHA}
    for metric in ("rmse", "r2"):
        subjects, vectors = aligned_fold_metric(folds, present, metric)
        if len(subjects) < 2:
            payload[metric] = {
                "note": f"needs >= 2 common folds, got {len(subjects)}"
            }
            continue
        anova = one_way_anova([vectors[c] for c in present])
        pairwise = pairwise_bonferroni([(c, vectors[c]) for c in present])
        entry = {
            "n_common_folds": len(subjects),
            "anova": anova.to_dict() | {"significant": anova.p_value < _ALPHA},
            "pairwise": [
                p.to_dict() | {"significant": p.p_adjusted < _ALPHA}
                for p in pairwise
            ],
        }
        if anova.p_value >= _ALPHA:
            entry["note"] = ("ANOVA not significant at alpha; pairwise "
                            "comparisons are informational only")
        payload[metric] = entry
    return _null_non_finite(payload)


def _null_non_finite(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _null_non_finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_null_non_finite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_bar_chart(tmp: Path, name: str, metric: str, summaries, folds) -> None:
    labels = list(summaries)
    means = [getattr(summaries[c], f"{metric}_mean") for c in labels]
    stds = [getattr(summaries[c], f"{metric}_std") for c in labels]
    points = [
        [getattr(f, metric) for f in folds
         if f.condition == c and getattr(f, metric) is not None]
        for c in labels
    ]
    unit = " (Nm/kg)" if metric == "rmse" else ""
    bar_svg(tmp / f"{name}.svg", labels, means, stds, points,
            title=f"{metric.upper()} by condition", ylabel=metric + unit)
    _write_csv(tmp / f"{name}.csv", ["condition", "mean", "std", "n_folds"],
               ([c, repr(means[i]), repr(stds[i]), summaries[c].n_folds]
                for i, c in enumerate(labels)))


def _write_traces(out: Path, tmp: Path, folds, present, manifest) -> None:
    """Predicted-vs-truth sample traces for a median-performance subject."""
    anchor = "optimized" if "optimized" in present else present[0]
    anchor_folds = sorted(
        (f for f in folds if f.condition == anchor), key=lambda f: f.rmse
    )
    subject = anchor_folds[len(anchor_folds) // 2].left_out

    samples = _read_samples(out)
    samples = samples.subset(samples.isin("subject", [subject]))
    tasks = sorted(set(samples.tasks))
    cyclic = [t for t in tasks if manifest.is_cyclic(t)]
    non_cyclic = [t for t in tasks if not manifest.is_cyclic(t)]
    chosen = cyclic[:2] + non_cyclic[:2]

    models = {}
    for cond in present:
        if not any(f.condition == cond and f.left_out == subject for f in folds):
            continue  # the fold was skipped, so train wrote no checkpoint
        path = out / "checkpoints" / \
            f"model_{_safe_name(cond)}_{_safe_name(subject)}.json"
        if not path.exists():
            raise _missing(path, "train")
        model = models[cond] = FcnnModel.load(path)
        if model.config.input_dim != samples.x.shape[1]:
            raise DataFormatError(f"{path}: input_dim {model.config.input_dim} "
                                  f"!= {samples.x.shape[1]} sensor columns")

    (tmp / "traces").mkdir()
    for task in chosen:
        in_task = samples.isin("task", [task])
        first_trial = min(samples.trials[in_task])
        trial = samples.subset(in_task & samples.isin("trial", [first_trial]))
        preds = [m.predict(trial.x).reshape(-1) for m in models.values()]
        _write_csv(tmp / "traces" / f"trace_{_safe_name(task)}.csv",
                   ["time_s", "truth"] + [f"pred_{c}" for c in models],
                   ([repr(float(v)) for v in cells]
                    for cells in zip(trial.times, trial.y, *preds)))
    log.info("traces for subject %s, tasks %s", subject, ", ".join(chosen))


def cmd_report(cfg: RunConfig, out: Path, tmp: Path, jobs: int) -> dict:
    folds = read_fold_results_csv(out / FOLD_RESULTS)
    if not folds:
        raise TaskOptError("fold_results.csv contains no folds")
    manifest = TaskManifest.from_json(cfg.paths.tasks)

    present = [c for c in cfg.study.conditions
               if any(f.condition == c for f in folds)]
    summaries = {c: summarize_condition(c, folds) for c in present}
    _write_csv(tmp / "summary.csv",
               ["condition", "n_folds", "rmse_mean", "rmse_std", "r2_mean", "r2_std"],
               ([c, s.n_folds, *map(repr, (s.rmse_mean, s.rmse_std, s.r2_mean, s.r2_std))]
                for c, s in summaries.items()))
    for c in present:
        s = summaries[c]
        log.info("%-9s rmse %.4f +/- %.4f  r2 %.4f +/- %.4f  (%d folds)",
                 c, s.rmse_mean, s.rmse_std, s.r2_mean, s.r2_std, s.n_folds)

    stats_payload = _stats_payload(present, folds)
    _write_json(tmp / "stats.json", stats_payload, allow_nan=False)
    if "note" in stats_payload:
        log.info("%s", stats_payload["note"])

    _write_bar_chart(tmp, "rmse_bars", "rmse", summaries, folds)
    _write_bar_chart(tmp, "r2_bars", "r2", summaries, folds)
    _write_traces(out, tmp, folds, present, manifest)
    return {"folds": len(folds)}


# ------------------------------------------------------------------- runner


@dataclasses.dataclass(frozen=True)
class Stage:
    """One stage: ``run(cfg, out, tmp, jobs)`` reads upstream artifacts from
    ``out``, writes its own into ``tmp`` and returns its row/fold counts.

    ``config`` names the config fields it depends on (a section,
    ``section.field`` or ``seed``); the ``paths.*`` among them are the
    external files it reads.
    """

    run: Callable[[RunConfig, Path, Path, int], dict]
    help: str
    reads: dict[str, str]  # upstream artifact -> the stage that writes it
    config: tuple[str, ...]


STAGES = {
    "ingest": Stage(cmd_ingest, "validate inputs; build the feature matrix and sensor table",
                    {}, ("paths.profiles", "paths.sensors", "paths.tasks", "dataset",
                         "study.min_cyclic_trials")),
    "cluster": Stage(cmd_cluster, "fit PCA and scan K by silhouette",
                     {FEATURE_MATRIX: "ingest", ROW_LABELS: "ingest"},
                     ("pca", "cluster", "seed")),
    "select": Stage(cmd_select, "score tasks per cluster and assemble conditions",
                    {CLUSTER_MODEL: "cluster", ROW_LABELS: "ingest"},
                    ("paths.tasks",)),
    "train": Stage(cmd_train, "run the leave-one-subject-out study",
                   {CONDITIONS: "select", SENSOR_SAMPLES: "ingest", SENSOR_TRIALS: "ingest"},
                   ("nn", "study.conditions", "study.val_fraction", "seed")),
    "report": Stage(cmd_report, "summaries, statistics, and figures",
                    {FOLD_RESULTS: "train", SENSOR_SAMPLES: "ingest", SENSOR_TRIALS: "ingest"},
                    ("paths.tasks", "study.conditions")),
}


def _config_fields(cfg: RunConfig, names: tuple[str, ...]) -> dict:
    """The current value of each named config field, as read back from JSON."""
    values = {}
    for name in names:
        value = cfg
        for part in name.split("."):
            value = getattr(value, part)
        values[name] = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    return json.loads(json.dumps(values))


def _check_fresh(name: str, cfg: RunConfig, commands: dict) -> None:
    """Name the first upstream stage whose manifest entry records other config
    values than ``cfg`` holds, or other input hashes than its producers recorded."""
    upstream = set(STAGES[name].reads.values())
    for stage in reversed(STAGES):  # producers come before their readers
        if stage in upstream:
            upstream |= set(STAGES[stage].reads.values())
    for stage in (s for s in STAGES if s in upstream):
        try:
            entry = commands[stage]
            current = _config_fields(cfg, STAGES[stage].config)
            changed = [k for k in current if entry["config"][k] != current[k]]
            changed += [a for a, producer in STAGES[stage].reads.items()
                        if entry["inputs"][a] != commands[producer]["artifacts"][a]]
            reason = changed and f"{', '.join(changed)} changed since"
        except (KeyError, TypeError):  # no entry, or one of an older schema
            reason = f"no record of it in {RUN_MANIFEST}"
        if reason:
            raise MissingArtifactError(f"stale: rerun `taskopt {stage}` ({reason})")


def _stale_files(out: Path, entry, written) -> list[Path]:
    """Files under ``out`` that a stage's earlier manifest ``entry`` lists, less ``written``."""
    listed = entry.get("artifacts") if isinstance(entry, dict) else None
    names = listed.keys() - written if isinstance(listed, dict) else ()
    return [out / name for name in names
            if (out / name).is_file() and (out / name).resolve().is_relative_to(out.resolve())]


def run_stage(name: str, cfg: RunConfig, jobs: int = 1) -> None:
    """Run one stage of ``STAGES`` and commit its artifacts, then its manifest entry."""
    start = time.perf_counter()
    stage = STAGES[name]
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for artifact, producer in stage.reads.items():
        if not (out / artifact).exists():
            raise _missing(out / artifact, producer)
    commands = _read_manifest(out)
    _check_fresh(name, cfg, commands)

    tmp = out / f".tmp-{name}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        counts = stage.run(cfg, out, tmp, jobs)
        config = _config_fields(cfg, stage.config)
        inputs = {artifact: _sha256(out / artifact) for artifact in stage.reads}
        inputs |= {path: _sha256(Path(path)) for field, path in config.items()
                   if field.startswith("paths.")}
        artifacts = {path.relative_to(tmp).as_posix(): _sha256(path)
                     for path in sorted(tmp.rglob("*")) if path.is_file()}
        for parent in {(out / artifact).parent for artifact in artifacts}:
            parent.mkdir(parents=True, exist_ok=True)
        for artifact in artifacts:
            os.replace(tmp / artifact, out / artifact)
        for path in _stale_files(out, commands.get(name), artifacts.keys()):
            path.unlink()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _record(out, name, {
        "config": config,
        "inputs": inputs,
        "artifacts": artifacts,
        "counts": counts,
        "wall_s": round(time.perf_counter() - start, 3),
        # Linux reports the peaks in KiB.
        "peak_rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "peak_rss_children_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    })


# --------------------------------------------------------------------- main


def build_parser() -> _Parser:
    parser = _Parser(
        prog="taskopt",
        description="Representative locomotor task selection and validation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--seed", type=int, default=SynthSpec().seed)
    p_synth.add_argument("--subjects", type=int, default=SynthSpec().n_subjects)
    p_synth.add_argument("--tasks", type=int, default=SynthSpec().n_tasks)
    p_synth.add_argument("--clusters", type=int, default=SynthSpec().n_clusters)

    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help)
        p.add_argument("--config", required=True, help="path to config.json")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if name == "train":
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel fold workers")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "synth":
            cmd_synth(args)
            return 0
        cfg = load_run_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        run_stage(args.command, cfg, jobs=max(1, getattr(args, "jobs", 1)))
        return 0
    except (ConfigError, MissingArtifactError) as exc:
        log.error("%s", exc)
        return 1
    except TaskOptError as exc:
        log.error("%s", exc)
        return 2
    except Exception:  # pragma: no cover - last-resort diagnostics
        log.exception("unexpected failure")
        return 2


if __name__ == "__main__":
    sys.exit(main())
