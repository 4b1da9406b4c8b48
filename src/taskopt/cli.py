"""Command-line pipeline with staged on-disk artifacts.

Stages: ``synth`` (optional dataset generation), ``ingest`` (validate
and assemble the feature matrix), ``cluster`` (PCA + silhouette K
scan), ``select`` (task scores and training conditions), ``train``
(leave-one-subject-out study), ``report`` (summary tables, statistics,
figures). Each stage persists what the next one needs, so clustering
results can be inspected before committing to training.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
Logs go to stderr, artifacts to the configured output directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
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
    write_summary_csv,
)
from .dataset import (
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
    write_task_weight_csv,
)

log = logging.getLogger("taskopt")

FEATURE_MATRIX = "feature_matrix.npy"
ROW_LABELS = "row_labels.csv"
INGEST_REPORT = "ingest_report.json"
PCA_MODEL = "pca_model.json"
PCA_SELECTION = "pca_selection.json"
PCA_SCORES = "pca_scores.csv"
PCA_SCATTER = "pca_scatter.svg"
CLUSTER_MODEL = "cluster_model.json"
SILHOUETTE_SCAN = "silhouette_scan.csv"
TASK_WEIGHTS = "task_weights.csv"
CONDITIONS = "conditions.json"
FOLD_RESULTS = "fold_results.csv"
TRAIN_REPORT = "train_report.json"
SUMMARY = "summary.csv"
STATS = "stats.json"
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


def _update_run_manifest(
    out_dir: Path,
    command: str,
    seed: int | None,
    config_path: Path | None,
    inputs: list[Path],
    artifacts: list[Path],
) -> None:
    manifest_path = out_dir / RUN_MANIFEST
    data = {"commands": {}}
    if manifest_path.exists():
        data = json.loads(manifest_path.read_text(encoding="utf-8"))
    data.setdefault("commands", {})[command] = {
        "config_hash": _sha256(config_path) if config_path else None,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "artifacts": sorted(str(p.relative_to(out_dir)) for p in artifacts),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    manifest_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(
            f"missing artifact {path.name} in {path.parent}; "
            f"run `taskopt {producer}` first"
        )
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_row_labels(path: Path, n_rows: int) -> list[tuple[str, str, str]]:
    """The (subject, task, trial) labels of ``n_rows`` matrix rows."""
    with path.open("r", encoding="utf-8", newline="") as fh:
        labels = [tuple(row) for row in list(csv.reader(fh))[1:]]
    if len(labels) != n_rows or any(len(label) != 3 for label in labels):
        raise DataFormatError(f"{path}: expected {n_rows} rows of 3 cells "
                              "(subject, task, trial) after the header")
    return labels


def _read_feature_matrix(out: Path) -> tuple[np.ndarray, list[tuple[str, str, str]]]:
    """The ingest stage's matrix and its row labels, checked against each other."""
    path = _require(out / FEATURE_MATRIX, "ingest")
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
    return rows, _read_row_labels(_require(out / ROW_LABELS, "ingest"), rows.shape[0])


def _read_kept_subjects(path: Path) -> set[str]:
    """The subjects that ``ingest`` kept, from its report."""
    try:
        kept = json.loads(path.read_text(encoding="utf-8"))["exclusion"]["kept_subjects"]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: no exclusion.kept_subjects ({exc!r})") from exc
    if not isinstance(kept, list) or not all(isinstance(s, str) for s in kept):
        raise DataFormatError(f"{path}: exclusion.kept_subjects is not a list of ids")
    return set(kept)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    config_path.write_text(
        json.dumps(default_config_dict(paths, seed=args.seed), indent=2) + "\n",
        encoding="utf-8",
    )
    log.info("synthetic dataset in %s (separation ratio %.2f)",
             out, result.separation_ratio)
    log.info("pipeline config written to %s", config_path)
    _update_run_manifest(
        out, "synth", args.seed, None, [],
        [result.profiles_path, result.sensors_path, result.tasks_path,
         result.ground_truth_path, config_path],
    )


def cmd_ingest(cfg: RunConfig, config_path: Path) -> None:
    out = _out_dir(cfg)
    manifest = TaskManifest.from_json(cfg.paths.tasks)
    matrix, stats = load_profiles(
        cfg.paths.profiles, manifest, cfg.dataset.target_length
    )
    matrix, exclusion = exclude_subjects(
        matrix, cfg.study.min_cyclic_trials, manifest
    )
    for subject, count in exclusion.dropped:
        log.info("excluding subject %s (%d cyclic trial(s) < %d)",
                 subject, count, cfg.study.min_cyclic_trials)
    if not matrix.n:
        raise TaskOptError("no profiles left after subject exclusion")
    np.save(out / FEATURE_MATRIX, matrix.rows)
    _write_csv(out / ROW_LABELS, ["subject", "task", "trial"], matrix.row_labels)
    report = {
        "profiles": stats.to_dict(),
        "exclusion": exclusion.to_dict(),
        "matrix": {"n": matrix.n, "d": matrix.d,
                   "target_length": cfg.dataset.target_length},
    }
    (out / INGEST_REPORT).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    log.info("feature matrix %d x %d from %d subjects",
             matrix.n, matrix.d, len(exclusion.kept_subjects))
    _update_run_manifest(
        out, "ingest", cfg.seed, config_path,
        [Path(cfg.paths.profiles), Path(cfg.paths.tasks)],
        [out / FEATURE_MATRIX, out / ROW_LABELS, out / INGEST_REPORT],
    )


def cmd_cluster(cfg: RunConfig, config_path: Path) -> None:
    out = _out_dir(cfg)
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

    model.to_json(out / PCA_MODEL)
    (out / PCA_SELECTION).write_text(
        json.dumps(
            {"n_components": p_star, "cumulative_variance": cumulative,
             "best_k": scan.best_k, "silhouette": scan.model.silhouette},
            indent=2, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    scan.model.to_json(out / CLUSTER_MODEL)
    scan.write_csv(out / SILHOUETTE_SCAN)

    _write_csv(
        out / PCA_SCORES,
        ["subject", "task", "trial"] + [f"pc{i + 1}" for i in range(p_star)],
        ([*label, *(repr(float(v)) for v in row)]
         for label, row in zip(labels, scores)),
    )

    ys = scores[:, 1] if p_star >= 2 else np.zeros(n)
    scatter_svg(
        out / PCA_SCATTER,
        scores[:, 0], ys, scan.model.assignments,
        title=f"PCA scores, K={scan.best_k}",
        xlabel="PC1", ylabel="PC2" if p_star >= 2 else "0",
    )
    _update_run_manifest(
        out, "cluster", cfg.seed, config_path,
        [out / FEATURE_MATRIX, out / ROW_LABELS],
        [out / PCA_MODEL, out / PCA_SELECTION, out / PCA_SCORES,
         out / CLUSTER_MODEL, out / SILHOUETTE_SCAN, out / PCA_SCATTER],
    )


def cmd_select(cfg: RunConfig, config_path: Path) -> None:
    out = _out_dir(cfg)
    cluster_model = ClusterModel.from_json(_require(out / CLUSTER_MODEL, "cluster"))
    labels = _read_row_labels(_require(out / ROW_LABELS, "ingest"),
                              len(cluster_model.assignments))
    manifest = TaskManifest.from_json(cfg.paths.tasks)

    rows = task_weight_analysis(cluster_model.assignments, labels,
                                manifest.weights())
    representatives = select_representatives(rows)
    if len(set(representatives.values())) < len(representatives):
        log.info("a task represents more than one cluster; the optimized set "
                 "is deduplicated")
    conditions = make_conditions(manifest, representatives)
    for name, ts in conditions.items():
        log.info("condition %-9s %d task(s)", name, len(ts.tasks))

    write_task_weight_csv(rows, out / TASK_WEIGHTS)
    write_conditions_json(conditions, out / CONDITIONS)
    _update_run_manifest(
        out, "select", cfg.seed, config_path,
        [out / CLUSTER_MODEL, out / ROW_LABELS, Path(cfg.paths.tasks)],
        [out / TASK_WEIGHTS, out / CONDITIONS],
    )


def cmd_train(cfg: RunConfig, config_path: Path, jobs: int) -> None:
    out = _out_dir(cfg)
    conditions_path = _require(out / CONDITIONS, "select")
    conditions = read_conditions_json(conditions_path)
    missing = [name for name in cfg.study.conditions if name not in conditions]
    if missing:
        raise DataFormatError(f"{conditions_path}: no condition(s) {missing}")
    kept_subjects = _read_kept_subjects(_require(out / INGEST_REPORT, "ingest"))
    manifest = TaskManifest.from_json(cfg.paths.tasks)
    samples, sensor_stats = load_sensor_samples(cfg.paths.sensors, manifest)
    kept = samples.isin("subject", kept_subjects)
    dropped, counts = np.unique(samples.subjects[~kept], return_counts=True)
    dropped_rows = dict(zip(dropped.tolist(), counts.tolist()))
    for subject, n in dropped_rows.items():
        log.info("dropping %d sensor row(s) of subject %s: not kept at ingest",
                 n, subject)
    samples = samples.subset(kept)
    selected = {name: conditions[name] for name in cfg.study.conditions}
    for name, task_set in selected.items():
        # With >= 2 such subjects, no fold's train pool is empty.
        n = len(samples.subset(samples.isin("task", task_set.tasks)).subject_set())
        if n < 2:
            raise DataFormatError(
                f"{cfg.paths.sensors}: condition {name!r} has sensor rows of its "
                f"tasks for {n} kept subject(s); leave-one-subject-out needs >= 2")
    log.info("training %d condition(s) x %d subject(s), jobs=%d",
             len(selected), len(samples.subject_set()), jobs)
    study = run_study(
        samples, selected, cfg.nn, seed=cfg.seed,
        val_fraction=cfg.study.val_fraction, jobs=jobs,
    )
    for cond, subject, reason in study.skipped:
        log.warning("skipped fold (%s, %s): %s", cond, subject, reason)

    write_fold_results_csv(study.folds, out / FOLD_RESULTS)
    hist_dir = out / "histories"
    hist_dir.mkdir(exist_ok=True)
    for (cond, subject), history in study.histories.items():
        history.write_csv(hist_dir / f"history_{_safe_name(cond)}_{_safe_name(subject)}.csv")
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    artifacts = [out / FOLD_RESULTS, out / TRAIN_REPORT]
    for (cond, subject), checkpoint in study.checkpoints.items():
        path = ckpt_dir / f"model_{_safe_name(cond)}_{_safe_name(subject)}.json"
        path.write_text(json.dumps(checkpoint, sort_keys=True) + "\n",
                        encoding="utf-8")
        artifacts.append(path)
    (out / TRAIN_REPORT).write_text(
        json.dumps(
            {
                "sensors": sensor_stats.to_dict(),
                "sensor_rows_dropped_subject": dropped_rows,
                "skipped_folds": [
                    {"condition": c, "subject": s, "reason": r}
                    for c, s, r in study.skipped
                ],
                "n_folds": len(study.folds),
            },
            indent=2, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    for f in study.folds:
        log.info("fold %-9s left_out=%s rmse=%.4f r2=%s",
                 f.condition, f.left_out, f.rmse,
                 "n/a" if f.r2 is None else f"{f.r2:.4f}")
    _update_run_manifest(
        out, "train", cfg.seed, config_path,
        [out / CONDITIONS, out / INGEST_REPORT, Path(cfg.paths.sensors)],
        artifacts,
    )


_ALPHA = 0.05


def _stats_payload(cfg: RunConfig, folds) -> dict:
    present = [c for c in cfg.study.conditions
               if any(f.condition == c for f in folds)]
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


def _write_bar_chart(out: Path, name: str, metric: str, summaries,
                     folds) -> list[Path]:
    labels = list(summaries)
    means = [getattr(summaries[c], f"{metric}_mean") for c in labels]
    stds = [getattr(summaries[c], f"{metric}_std") for c in labels]
    points = [
        [getattr(f, metric) for f in folds
         if f.condition == c and getattr(f, metric) is not None]
        for c in labels
    ]
    svg_path = out / f"{name}.svg"
    csv_path = out / f"{name}.csv"
    unit = " (Nm/kg)" if metric == "rmse" else ""
    bar_svg(svg_path, labels, means, stds, points,
            title=f"{metric.upper()} by condition", ylabel=metric + unit)
    _write_csv(csv_path, ["condition", "mean", "std", "n_folds"],
               ([c, repr(means[i]), repr(stds[i]), summaries[c].n_folds]
                for i, c in enumerate(labels)))
    return [svg_path, csv_path]


def _write_traces(cfg: RunConfig, out: Path, folds, manifest) -> list[Path]:
    """Predicted-vs-truth sample traces for a median-performance subject."""
    present = [c for c in cfg.study.conditions
               if any(f.condition == c for f in folds)]
    anchor = "optimized" if "optimized" in present else present[0]
    anchor_folds = sorted(
        (f for f in folds if f.condition == anchor), key=lambda f: f.rmse
    )
    subject = anchor_folds[len(anchor_folds) // 2].left_out

    samples, _ = load_sensor_samples(cfg.paths.sensors, manifest)
    samples = samples.subset(samples.isin("subject", [subject]))
    tasks = sorted(set(samples.tasks))
    cyclic = [t for t in tasks if manifest.is_cyclic(t)]
    non_cyclic = [t for t in tasks if not manifest.is_cyclic(t)]
    chosen = cyclic[:2] + non_cyclic[:2]

    models = {}
    for cond in present:
        path = out / "checkpoints" / \
            f"model_{_safe_name(cond)}_{_safe_name(subject)}.json"
        if path.exists():
            model = models[cond] = FcnnModel.load(path)
            if model.config.input_dim != samples.x.shape[1]:
                raise DataFormatError(f"{path}: input_dim {model.config.input_dim} "
                                      f"!= {samples.x.shape[1]} sensor columns")

    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    written = []
    for task in chosen:
        in_task = samples.tasks == task
        first_trial = min(samples.trials[in_task])
        trial = samples.subset(in_task & (samples.trials == first_trial))
        preds = [m.predict(trial.x).reshape(-1) for m in models.values()]
        path = trace_dir / f"trace_{_safe_name(task)}.csv"
        _write_csv(path, ["time_s", "truth"] + [f"pred_{c}" for c in models],
                   ([repr(float(v)) for v in cells]
                    for cells in zip(trial.times, trial.y, *preds)))
        written.append(path)
    log.info("traces for subject %s, tasks %s", subject, ", ".join(chosen))
    return written


def cmd_report(cfg: RunConfig, config_path: Path) -> None:
    out = _out_dir(cfg)
    folds = read_fold_results_csv(_require(out / FOLD_RESULTS, "train"))
    if not folds:
        raise TaskOptError("fold_results.csv contains no folds")
    manifest = TaskManifest.from_json(cfg.paths.tasks)

    present = [c for c in cfg.study.conditions
               if any(f.condition == c for f in folds)]
    summaries = {c: summarize_condition(c, folds) for c in present}
    write_summary_csv(summaries, out / SUMMARY)
    for c in present:
        s = summaries[c]
        log.info("%-9s rmse %.4f +/- %.4f  r2 %.4f +/- %.4f  (%d folds)",
                 c, s.rmse_mean, s.rmse_std, s.r2_mean, s.r2_std, s.n_folds)

    stats_payload = _stats_payload(cfg, folds)
    (out / STATS).write_text(
        json.dumps(stats_payload, indent=2, sort_keys=True, allow_nan=False)
        + "\n",
        encoding="utf-8",
    )
    if "note" in stats_payload:
        log.info("%s", stats_payload["note"])

    artifacts = [out / SUMMARY, out / STATS]
    artifacts += _write_bar_chart(out, "rmse_bars", "rmse", summaries, folds)
    artifacts += _write_bar_chart(out, "r2_bars", "r2", summaries, folds)
    artifacts += _write_traces(cfg, out, folds, manifest)
    _update_run_manifest(
        out, "report", cfg.seed, config_path,
        [out / FOLD_RESULTS, Path(cfg.paths.sensors), Path(cfg.paths.tasks)],
        artifacts,
    )


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

    for name, help_text in [
        ("ingest", "validate inputs and build the feature matrix"),
        ("cluster", "fit PCA and scan K by silhouette"),
        ("select", "score tasks per cluster and assemble conditions"),
        ("train", "run the leave-one-subject-out study"),
        ("report", "summaries, statistics, and figures"),
    ]:
        p = sub.add_parser(name, help=help_text)
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
        config_path = Path(args.config)
        cfg = load_run_config(config_path)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.command == "ingest":
            cmd_ingest(cfg, config_path)
        elif args.command == "cluster":
            cmd_cluster(cfg, config_path)
        elif args.command == "select":
            cmd_select(cfg, config_path)
        elif args.command == "train":
            cmd_train(cfg, config_path, jobs=max(1, args.jobs))
        elif args.command == "report":
            cmd_report(cfg, config_path)
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
