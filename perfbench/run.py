"""Benchmark of the taskopt pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 25] [--trace 0|1]

Run it from the repository root. Before each repetition it generates
the workload's synthetic dataset and config from --seed; then it runs
the pipeline stages through taskopt's CLI in a fresh process. It
repeats until at least --seconds have been measured, and at least
three times. It checks every repetition's outputs and prints one JSON
object as the last line of stdout: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The
metric names and units come from BENCHMARK.json.
perfbench/README.md describes the workloads and every metric.

Exit codes: 0 all checks passed; 1 a check failed (the result is still
printed, with "correct": false); 2 the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

STAGES = ("ingest", "cluster", "select", "train", "report")
MIN_REPS = 3  # repetitions, each after its own set-up, unless time runs out
EPOCHS = 1  # max_epochs == patience, so every fold trains exactly this many
RUN_LIMIT_S = 165.0  # the command must end within 180 s
CHECKS_PER_REP = 3  # planted K, one task per cluster, complete folds


@dataclass(frozen=True)
class Workload:
    spec: dict  # SynthSpec fields besides the seed
    parallel: bool  # train with --jobs nproc instead of --jobs 1


# Why each workload exists is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "study-default": Workload(spec={}, parallel=False),
    # 12 subjects at 10x trial length took 57 s to train on 2 cores; with
    # 4 subjects each fold still ships the whole sensor table.
    "study-10x-par": Workload(spec={"n_subjects": 4, "sensor_samples": 400},
                              parallel=True),
    # The tiny sensor set keeps training a small share of the time.
    "select-large": Workload(
        spec={"n_subjects": 20, "profile_trials": 6, "sensor_trials": 1,
              "sensor_samples": 2},
        parallel=False,
    ),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = {}
    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


def set_up(workload: Workload, seed: int, data_dir: Path) -> tuple[float, Path]:
    """Generate the dataset and config; returns (seconds, config path)."""
    from taskopt.config import PathSettings, default_config_dict
    from taskopt.synth import SynthSpec, generate

    shutil.rmtree(data_dir, ignore_errors=True)
    start = time.perf_counter()
    result = generate(SynthSpec(seed=seed, **workload.spec), data_dir)
    paths = PathSettings(
        profiles=str(result.profiles_path),
        sensors=str(result.sensors_path),
        tasks=str(result.tasks_path),
        out_dir=str(data_dir / "run"),
    )
    config = default_config_dict(paths, seed=seed)
    config["nn"].update(max_epochs=EPOCHS, patience=EPOCHS)
    config_path = data_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return time.perf_counter() - start, config_path


def run_pipeline(config_path: Path, jobs: int, trace: bool, rep_dir: Path,
                 deadline: float) -> dict | None:
    """One repetition in a fresh process; None if it did not finish."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    result_path = rep_dir / "result.json"
    log_path = rep_dir / "pipeline.log"
    cmd = [sys.executable, str(HERE / "pipeline.py"),
           "--config", str(config_path),
           "--jobs", str(jobs), "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    with log_path.open("w", encoding="utf-8") as log:
        # Own session, so a timeout can stop the pool workers too.
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"pipeline timed out; log in {log_path}", file=sys.stderr)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8").splitlines()[-20:]
        print("pipeline process failed:\n" + "\n".join(tail), file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _fold_rows(run_dir: Path) -> list[dict]:
    path = run_dir / "fold_results.csv"
    if not path.exists():
        return []
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Checker:
    """Correctness checks; every stage, fold and check is one operation."""

    def __init__(self, data_dir: Path, n_subjects: int):
        self.task_cluster = _read_json(data_dir / "ground_truth.json")["task_clusters"]
        self.n_clusters = len(set(self.task_cluster.values()))
        conditions = _read_json(data_dir / "config.json")["study"]["conditions"]
        self.expected_folds = len(conditions) * n_subjects
        self.run_dir = data_dir / "run"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def _check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def rep(self, rep: dict | None) -> None:
        self.attempted += len(STAGES) + self.expected_folds
        exit_codes = {s["name"]: s["exit_code"] for s in (rep or {}).get("stages", [])}
        bad_stages = [s for s in STAGES if exit_codes.get(s) != 0]
        for stage in bad_stages:
            self.problems.append(f"stage {stage} exit code {exit_codes.get(stage)}")
        folds = _fold_rows(self.run_dir) if not bad_stages else []
        self.failed += len(bad_stages) + self.expected_folds - min(
            len(folds), self.expected_folds)
        if bad_stages:
            self.attempted += CHECKS_PER_REP
            self.failed += CHECKS_PER_REP
            return

        best_k = _read_json(self.run_dir / "pca_selection.json")["best_k"]
        self._check(best_k == self.n_clusters,
                    f"K={best_k}, planted {self.n_clusters}")
        optimized = _read_json(self.run_dir / "conditions.json")["optimized"]["tasks"]
        clusters = {self.task_cluster[t] for t in optimized}
        self._check(len(optimized) == self.n_clusters == len(clusters),
                    f"optimized set {optimized} covers clusters {sorted(clusters)}")
        skipped = _read_json(self.run_dir / "train_report.json")["skipped_folds"]
        self._check(len(folds) == self.expected_folds and not skipped,
                    f"{len(folds)} folds, {len(skipped)} skipped; expected "
                    f"{self.expected_folds}")
        digest = hashlib.sha256(
            (self.run_dir / "fold_results.csv").read_bytes()).hexdigest()
        self.digests.add(digest)

    def finish(self) -> None:
        self._check(len(self.digests) == 1,
                    f"fold_results.csv differs between repetitions: {sorted(self.digests)}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def quality_metrics(run_dir: Path) -> dict[str, float]:
    """Silhouette of the chosen K and mean fold RMSEs of the last repetition."""
    silhouette = _read_json(run_dir / "pca_selection.json")["silhouette"]
    with (run_dir / "summary.csv").open(encoding="utf-8", newline="") as fh:
        rmse = {row["condition"]: float(row["rmse_mean"])
                for row in csv.DictReader(fh)}
    return {
        "silhouette_best": silhouette,
        "rmse_optimized": rmse["optimized"],
        "rmse_opt_over_all": rmse["optimized"] / rmse["all"],
    }


def _total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def layer_metrics(rep: dict) -> dict[str, float | int]:
    """Per-layer figures of one traced repetition (ints are counts)."""
    spans, counters = rep["spans"], rep["counters"]
    folds = [s for s in spans if s["name"] == "crossval.fold_train"]
    fold_s = sorted(s["end"] - s["start"] for s in folds)
    busy = sum(fold_s)
    run_study_s = _total(spans, "crossval.run_study")
    sensors_s = _total(spans, "dataset.load_sensor_samples")
    sensor_rows = counters.get("dataset.sensor_rows", 0)
    jobs = rep["jobs"]
    metrics = {f"cli.{stage}_s": _total(spans, f"cli.{stage}") for stage in STAGES}
    metrics.update({
        "dataset.load_profiles_s": _total(spans, "dataset.load_profiles"),
        "dataset.load_sensors_s": sensors_s,
        "dataset.sensor_us_per_row":
            sensors_s / sensor_rows * 1e6 if sensor_rows else 0.0,
        "dataset.sensor_rows": sensor_rows,
        "dataset.sensor_loads": counters.get("dataset.sensor_loads", 0),
        "pca.fit_s": _total(spans, "pca.fit"),
        "pca.n_components": counters.get("pca.n_components", 0),
        "cluster.select_k_s": _total(spans, "cluster.select_k"),
        "cluster.silhouette_s": _total(spans, "cluster.silhouette"),
        "cluster.kmeans_fits": counters.get("cluster.kmeans_fits", 0),
        "cluster.lloyd_iters": counters.get("cluster.lloyd_iters", 0),
        "crossval.run_study_s": run_study_s,
        "crossval.folds": len(folds),
        "crossval.fold_train_s_p50": statistics.median(fold_s) if fold_s else 0.0,
        "crossval.fold_train_s_max": fold_s[-1] if fold_s else 0.0,
        "crossval.fold_payload_mb": rep["payload_mb"],
        "crossval.pool_overhead_s": run_study_s - busy / jobs,
        "crossval.parallel_eff": busy / (jobs * run_study_s) if run_study_s else 0.0,
        "nn.steps": sum(s["steps"] for s in folds),
        "nn.epochs": sum(s["epochs"] for s in folds),
        "trace.pipeline_s": rep["pipeline_s"],
    })
    return metrics


def traced_metrics(traced: list[dict], untraced_s: list[float],
                   micro: dict[str, float]) -> dict[str, float | int]:
    """Medians of the traced repetitions; counts from the first one."""
    per_rep = [layer_metrics(rep) for rep in traced]
    metrics = {
        name: value if isinstance(value, int)
        else statistics.median(m[name] for m in per_rep)
        for name, value in per_rep[0].items()
    }
    metrics["trace.overhead_s"] = (metrics["trace.pipeline_s"]
                                   - statistics.median(untraced_s))
    return metrics | micro


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "taskopt" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"no taskopt sources under {SRC} or no {bench_file.name}; run "
              "from a taskopt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from taskopt.synth import SynthSpec

    bench = _read_json(bench_file)
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    jobs = nproc() if workload.parallel else 1
    work_dir = WORK / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    data_dir = work_dir / "data"
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    print("workload: " + json.dumps({"name": args.workload, "seed": args.seed,
                                     "jobs": jobs, "max_epochs": EPOCHS,
                                     "spec": workload.spec}, sort_keys=True))
    try:
        checker = None
        setup_times: list[float] = []
        reps: list[dict] = []
        durations: list[float] = []
        measure_start = time.monotonic()
        while True:
            # A fresh set-up before every repetition, so the set-up
            # samples spread over the run as the repetitions do, rather
            # than all falling into one slow or fast spell of the host.
            rep_start = time.monotonic()
            seconds, config_path = set_up(workload, args.seed, data_dir)
            setup_times.append(seconds)
            if checker is None:
                checker = Checker(data_dir, SynthSpec(**workload.spec).n_subjects)
            # A traced run alternates traced and untraced repetitions, so
            # the tracing overhead is measured under the same conditions.
            trace = bool(args.trace) and len(reps) % 2 == 0
            rep = run_pipeline(config_path, jobs, trace,
                               work_dir / f"rep{len(reps)}", deadline)
            durations.append(time.monotonic() - rep_start)
            checker.rep(rep)
            if rep is None:
                break
            rep["traced"] = trace
            reps.append(rep)
            now = time.monotonic()
            if now + statistics.median(durations) > deadline or (
                    len(reps) >= MIN_REPS and now - measure_start >= args.seconds):
                break
        checker.finish()

        if args.trace:
            traced = [r for r in reps if r["traced"]]
            untraced_s = [r["pipeline_s"] for r in reps if not r["traced"]]
            if traced and untraced_s:
                from micro import nn_metrics

                values = traced_metrics(traced, untraced_s, nn_metrics(args.seed))
                trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
                trace_path.parent.mkdir(parents=True, exist_ok=True)
                trace_path.write_text(json.dumps(
                    {"workload": args.workload, "seed": args.seed,
                     "repetitions": [{"spans": r["spans"], "counters": r["counters"]}
                                     for r in traced]}, indent=1), encoding="utf-8")
                print(f"spans: {trace_path.relative_to(ROOT)}")
            else:
                values = {}
        elif reps:
            values = {
                "setup_s": statistics.median(setup_times),
                "pipeline_s": statistics.median(r["pipeline_s"] for r in reps),
                "peak_rss_mb": statistics.median(
                    max(r["rss_self_mb"], r["rss_children_mb"]) for r in reps),
                "ops_ok_frac": 1.0 - checker.failed / checker.attempted,
            } | (quality_metrics(data_dir / "run") if checker.correct else {})
        else:
            values = {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"samples: {len(reps)} repetitions, {len(setup_times)} set-ups, "
          f"{time.monotonic() - started:.1f} s")
    print("set-up seconds: " + " ".join(f"{t:.3f}" for t in setup_times))
    print("repetition pipeline seconds: "
          + " ".join(f"{r['pipeline_s']:.3f}" for r in reps))
    print(f"fold_results.csv sha256: {' '.join(sorted(checker.digests))}")
    metrics = {}
    for name, unit in units.items():
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value} {unit}")
    for name in values.keys() - units.keys():
        print(f"{name} = {values[name]} (informational, not gated)")
    print(json.dumps({"correct": checker.correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
