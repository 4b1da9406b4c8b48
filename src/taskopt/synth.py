"""Deterministic synthetic dataset with planted cluster structure.

Tasks are assigned round-robin to latent clusters. Each cluster owns a
smooth sinusoid-mixture profile per channel plus a large constant
offset, so rows of same-cluster tasks sit far closer to each other than
to any other cluster's rows; the separation ratio is measured on the
emitted data and enforced at generation time.

Sensor streams occupy cluster-specific regions of the 14-dimensional
input space, and the target moment is a fixed smooth function of the
recorded inputs plus noise. A network trained on tasks covering every
cluster therefore generalizes to a held-out subject's full task set,
while one trained only on the (cluster-concentrated) cyclic tasks must
extrapolate and does measurably worse.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import PROFILE_COLUMNS, SENSOR_COLUMNS, TaskInfo, TaskManifest, resample_linear
from .errors import TaskOptError

# Native profile lengths cycle over tasks so ingestion has real
# resampling work to do.
_NATIVE_LENGTHS = (90, 100, 110, 125)
_W_TIERS = (1.0, 0.9, 0.8)


@dataclass(frozen=True)
class SynthSpec:
    """Shape and randomness of the generated dataset."""

    n_subjects: int = 12
    n_tasks: int = 20
    n_clusters: int = 8
    profile_trials: int = 3
    cycle_length: int = 100
    sensor_trials: int = 2
    sensor_samples: int = 40
    sensor_dt: float = 0.05
    cluster_offset_scale: float = 4.0
    task_offset_std: float = 0.15
    subject_effect_std: float = 0.1
    profile_noise_std: float = 0.05
    sensor_offset_scale: float = 2.5
    sensor_noise_std: float = 0.05
    target_noise_std: float = 0.12
    cyclic_clusters: int = 3
    min_separation: float = 5.5
    seed: int = 7

    def validate(self) -> None:
        problems = []
        if self.n_subjects < 1:
            problems.append("n_subjects must be >= 1")
        if self.n_clusters < 1:
            problems.append("n_clusters must be >= 1")
        if self.n_tasks < self.n_clusters:
            problems.append("need at least one task per cluster")
        if self.profile_trials < 1 or self.sensor_trials < 1:
            problems.append("trial counts must be >= 1")
        if self.cycle_length < 2 or self.sensor_samples < 2:
            problems.append("series lengths must be >= 2")
        if self.sensor_dt <= 0:
            problems.append("sensor_dt must be positive")
        if not (1 <= self.cyclic_clusters <= self.n_clusters):
            problems.append("cyclic_clusters must be in [1, n_clusters]")
        for name in ("task_offset_std", "subject_effect_std", "profile_noise_std",
                     "sensor_noise_std", "target_noise_std"):
            if getattr(self, name) < 0:
                problems.append(f"{name} must be >= 0")
        if problems:
            raise ValueError("invalid synth spec: " + "; ".join(problems))

    def subjects(self) -> list[str]:
        return [f"s{i + 1:02d}" for i in range(self.n_subjects)]

    def tasks(self) -> list[str]:
        return [f"task{i + 1:02d}" for i in range(self.n_tasks)]

    def task_cluster(self, task_index: int) -> int:
        return task_index % self.n_clusters

    def task_w(self, task_index: int) -> float:
        return _W_TIERS[min(task_index // self.n_clusters, len(_W_TIERS) - 1)]

    def task_cyclic(self, task_index: int) -> bool:
        return self.task_cluster(task_index) < self.cyclic_clusters

    def manifest(self) -> TaskManifest:
        return TaskManifest([
            TaskInfo(id=name, cyclic=self.task_cyclic(i), w=self.task_w(i))
            for i, name in enumerate(self.tasks())
        ])


@dataclass
class SynthResult:
    out_dir: Path
    profiles_path: Path
    sensors_path: Path
    tasks_path: Path
    ground_truth_path: Path
    task_clusters: dict[str, int]
    separation_ratio: float


def _moment_map(x: np.ndarray) -> np.ndarray:
    """Fixed smooth map from the 14 sensor channels to the target moment."""
    return (
        0.9 * np.sin(0.8 * x[:, 0])
        + 0.35 * x[:, 1] * np.cos(0.6 * x[:, 2])
        + 0.5 * np.tanh(0.8 * x[:, 3] + 0.5 * x[:, 6])
        - 0.4 * np.sin(0.7 * x[:, 9])
        + 0.3 * np.tanh(0.7 * x[:, 12])
        + 0.12 * x[:, 4]
        - 0.1 * x[:, 7]
    )


def _fourier_series(rng: np.random.Generator, offset_scale: float,
                    signature_freq: int):
    """Random smooth cycle shape: offset, low harmonics, and one strong
    cluster-specific harmonic.

    Distinct signature frequencies make cluster mean curves mutually
    near-orthogonal in function space, so the planted structure spans as
    many directions as there are clusters and survives the variance-
    threshold projection that precedes clustering.
    """
    c0 = rng.uniform(-offset_scale, offset_scale)
    amps = rng.uniform(0.2, 0.8, size=3)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    sig_amp = rng.uniform(2.0, 3.0)
    sig_phase = rng.uniform(0.0, 2.0 * np.pi)

    def evaluate(phase_grid: np.ndarray) -> np.ndarray:
        out = np.full_like(phase_grid, c0)
        for h in range(3):
            out += amps[h] * np.sin(2.0 * np.pi * (h + 1) * phase_grid + phases[h])
        out += sig_amp * np.sin(
            2.0 * np.pi * signature_freq * phase_grid + sig_phase
        )
        return out

    return evaluate


def _separation_ratio(rows: np.ndarray, clusters: np.ndarray) -> float:
    ids = np.unique(clusters)
    centroids = np.stack([rows[clusters == g].mean(axis=0) for g in ids])
    spread = max(
        float(np.linalg.norm(rows[clusters == g] - centroids[i], axis=1).mean())
        for i, g in enumerate(ids)
    )
    sep = min(
        float(np.linalg.norm(centroids[i] - centroids[j]))
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    )
    return sep / spread if spread > 0 else float("inf")


def _pipeline_separation_ratio(rows: np.ndarray, clusters: np.ndarray) -> float:
    """Separation measured where clustering actually happens: after
    z-scoring and projection onto the variance-threshold component count.

    Raw-space separation alone does not guarantee recovery, because the
    projection can collapse distinct clusters onto each other.
    """
    from .pca import pca_fit, pca_transform, select_components

    model = pca_fit(rows)
    p, _ = select_components(model, 0.70)
    scores = pca_transform(model, rows, p)
    return _separation_ratio(scores, clusters)


def _generate_profiles(spec: SynthSpec, attempt: int, offset_scale: float):
    """Profile rows for one attempt plus the resampled check matrix."""
    rng = np.random.default_rng([spec.seed, 10, attempt])
    channels = 3  # moment, angle, velocity
    cluster_curves = [
        [_fourier_series(rng, offset_scale, signature_freq=g + 4)
         for _ in range(channels)]
        for g in range(spec.n_clusters)
    ]
    task_offsets = rng.normal(0.0, spec.task_offset_std,
                              size=(spec.n_tasks, channels))
    subject_offsets = rng.normal(0.0, spec.subject_effect_std,
                                 size=(spec.n_subjects, channels))

    records = []  # (subject, task, trial, native array (L, 3))
    check_rows = []
    check_clusters = []
    for si, subject in enumerate(spec.subjects()):
        for ti, task in enumerate(spec.tasks()):
            g = spec.task_cluster(ti)
            native = _NATIVE_LENGTHS[ti % len(_NATIVE_LENGTHS)]
            phase = np.linspace(0.0, 1.0, native)
            for trial in range(spec.profile_trials):
                data = np.empty((native, channels))
                for ch in range(channels):
                    data[:, ch] = (
                        cluster_curves[g][ch](phase)
                        + task_offsets[ti, ch]
                        + subject_offsets[si, ch]
                        + rng.normal(0.0, spec.profile_noise_std, size=native)
                    )
                records.append((subject, task, f"t{trial + 1:02d}", data))
                check_rows.append(np.concatenate([
                    resample_linear(data[:, ch], spec.cycle_length)
                    for ch in range(channels)
                ]))
                check_clusters.append(g)
    if spec.n_clusters >= 2:
        stacked = np.stack(check_rows)
        groups = np.array(check_clusters)
        ratio = min(_separation_ratio(stacked, groups),
                    _pipeline_separation_ratio(stacked, groups))
    else:
        ratio = float("inf")
    return records, ratio


def generate(spec: SynthSpec, out_dir: str | Path) -> SynthResult:
    """Write profiles.csv, sensors.csv, tasks.json, and ground_truth.json.

    Deterministic for a given spec: the same spec produces byte-identical
    files. Raises if the requested cluster separation cannot be reached.
    """
    spec.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    records = None
    ratio = 0.0
    offset_scale = spec.cluster_offset_scale
    for attempt in range(10):
        records, ratio = _generate_profiles(spec, attempt, offset_scale)
        if ratio >= spec.min_separation:
            break
        offset_scale *= 1.3
    else:
        raise TaskOptError(
            f"could not reach separation ratio {spec.min_separation} "
            f"(best attempt: {ratio:.2f})"
        )

    profiles_path = out_dir / "profiles.csv"
    with profiles_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PROFILE_COLUMNS)
        for subject, task, trial, data in records:
            for idx in range(data.shape[0]):
                writer.writerow([
                    subject, task, trial, idx,
                    repr(float(data[idx, 0])),
                    repr(float(data[idx, 1])),
                    repr(float(data[idx, 2])),
                ])

    sensors_path = out_dir / "sensors.csv"
    _write_sensors(spec, sensors_path)

    tasks_path = out_dir / "tasks.json"
    spec.manifest().to_json(tasks_path)

    task_clusters = {
        name: spec.task_cluster(i) for i, name in enumerate(spec.tasks())
    }
    ground_truth_path = out_dir / "ground_truth.json"
    ground_truth_path.write_text(
        json.dumps(
            {
                "task_clusters": task_clusters,
                "cyclic_clusters": list(range(spec.cyclic_clusters)),
                "separation_ratio": ratio,
                "seed": spec.seed,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return SynthResult(
        out_dir=out_dir,
        profiles_path=profiles_path,
        sensors_path=sensors_path,
        tasks_path=tasks_path,
        ground_truth_path=ground_truth_path,
        task_clusters=task_clusters,
        separation_ratio=ratio,
    )


def _write_sensors(spec: SynthSpec, path: Path) -> None:
    rng = np.random.default_rng([spec.seed, 20])
    dim = 14
    cluster_offsets = rng.uniform(-spec.sensor_offset_scale,
                                  spec.sensor_offset_scale,
                                  size=(spec.n_clusters, dim))
    cluster_amps = rng.uniform(0.3, 0.8, size=(spec.n_clusters, dim, 2))
    cluster_freqs = rng.uniform(0.5, 2.0, size=(spec.n_clusters, dim, 2))
    task_offsets = rng.normal(0.0, 0.1, size=(spec.n_tasks, dim))
    subject_offsets = rng.normal(0.0, spec.subject_effect_std,
                                 size=(spec.n_subjects, dim))
    t = np.arange(spec.sensor_samples) * spec.sensor_dt

    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SENSOR_COLUMNS)
        for si, subject in enumerate(spec.subjects()):
            for ti, task in enumerate(spec.tasks()):
                g = spec.task_cluster(ti)
                for trial in range(spec.sensor_trials):
                    phases = rng.uniform(0.0, 2.0 * np.pi, size=(dim, 2))
                    x = np.empty((spec.sensor_samples, dim))
                    for j in range(dim):
                        signal = cluster_offsets[g, j] + task_offsets[ti, j] \
                            + subject_offsets[si, j]
                        wave = sum(
                            cluster_amps[g, j, h]
                            * np.sin(2.0 * np.pi * cluster_freqs[g, j, h] * t
                                     + phases[j, h])
                            for h in range(2)
                        )
                        x[:, j] = signal + wave
                    x += rng.normal(0.0, spec.sensor_noise_std, size=x.shape)
                    y = _moment_map(x) + rng.normal(0.0, spec.target_noise_std,
                                                    size=spec.sensor_samples)
                    trial_id = f"r{trial + 1:02d}"
                    for k in range(spec.sensor_samples):
                        writer.writerow(
                            [subject, task, trial_id, repr(float(t[k]))]
                            + [repr(float(v)) for v in x[k]]
                            + [repr(float(y[k]))]
                        )
