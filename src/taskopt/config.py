"""Run configuration: one JSON file drives every pipeline stage."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError
from .nn import FcnnConfig

CONDITION_NAMES = ("all", "optimized", "cyclic")


@dataclass
class PathSettings:
    profiles: str = ""
    sensors: str = ""
    tasks: str = ""
    out_dir: str = ""


@dataclass
class DatasetSettings:
    target_length: int = 100


@dataclass
class PcaSettings:
    standardize: bool = True
    variance_threshold: float = 0.70


@dataclass
class ClusterSettings:
    k_min: int = 2
    k_max: int = 12
    restarts: int = 10
    max_iter: int = 300


@dataclass
class StudySettings:
    conditions: tuple[str, ...] = CONDITION_NAMES
    min_cyclic_trials: int = 1
    val_fraction: float = 0.8


@dataclass
class RunConfig:
    paths: PathSettings = field(default_factory=PathSettings)
    dataset: DatasetSettings = field(default_factory=DatasetSettings)
    pca: PcaSettings = field(default_factory=PcaSettings)
    cluster: ClusterSettings = field(default_factory=ClusterSettings)
    nn: FcnnConfig = field(default_factory=FcnnConfig)
    study: StudySettings = field(default_factory=StudySettings)
    seed: int = 0

    def violations(self) -> list[str]:
        """Every violated field, so one failed run reports all problems."""
        problems = []
        for name in ("profiles", "sensors", "tasks", "out_dir"):
            if not getattr(self.paths, name):
                problems.append(f"paths.{name}: required")
        if self.dataset.target_length < 2:
            problems.append("dataset.target_length: must be >= 2")
        if not (0.0 < self.pca.variance_threshold <= 1.0):
            problems.append("pca.variance_threshold: must be in (0, 1]")
        if self.cluster.k_min < 2:
            problems.append("cluster.k_min: must be >= 2")
        if self.cluster.k_max < self.cluster.k_min:
            problems.append("cluster.k_max: must be >= k_min")
        if self.cluster.restarts < 1:
            problems.append("cluster.restarts: must be >= 1")
        if self.cluster.max_iter < 1:
            problems.append("cluster.max_iter: must be >= 1")
        if not self.study.conditions:
            problems.append("study.conditions: must not be empty")
        for cond in self.study.conditions:
            if cond not in CONDITION_NAMES:
                problems.append(
                    f"study.conditions: unknown condition {cond!r} "
                    f"(choose from {list(CONDITION_NAMES)})"
                )
        if self.study.min_cyclic_trials < 0:
            problems.append("study.min_cyclic_trials: must be >= 0")
        if not (0.0 < self.study.val_fraction < 1.0):
            problems.append("study.val_fraction: must be in (0, 1)")
        try:
            self.nn.validate()
        except ValueError as exc:
            problems.append(f"nn: {exc}")
        return problems

    def validated(self) -> "RunConfig":
        problems = self.violations()
        if problems:
            raise ConfigError("invalid config:\n  " + "\n  ".join(problems))
        return self


_SECTION_TYPES = {
    "paths": PathSettings,
    "dataset": DatasetSettings,
    "pca": PcaSettings,
    "cluster": ClusterSettings,
    "study": StudySettings,
    "nn": FcnnConfig,
}


# Set by the pipeline, not the config: the 14 sensor channels and each
# fold's training seed (derived from the run seed).
_FIXED_FIELDS = {"nn": {"input_dim", "seed"}}


def _build_section(name: str, cls, raw: dict, problems: list[str]):
    kwargs = {}
    fields = cls.__dataclass_fields__.keys() - _FIXED_FIELDS.get(name, set())
    for key, value in raw.items():
        if key not in fields:
            problems.append(f"{name}.{key}: unknown field")
            continue
        if key in ("conditions", "hidden") and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        problems.append(f"{name}: {exc}")
        return cls()


def parse_run_config(raw: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("invalid config: top level must be a JSON object")
    problems: list[str] = []
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        section_raw = raw.get(name, {})
        if not isinstance(section_raw, dict):
            problems.append(f"{name}: must be an object")
            section_raw = {}
        sections[name] = _build_section(name, cls, section_raw, problems)

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        problems.append("seed: must be an integer")
        seed = 0
    unknown = set(raw) - set(_SECTION_TYPES) - {"seed"}
    for key in sorted(unknown):
        problems.append(f"{key}: unknown section")
    if problems:
        raise ConfigError("invalid config:\n  " + "\n  ".join(problems))

    config = RunConfig(seed=seed, **sections)
    return config.validated()


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_run_config(raw)


def default_config_dict(paths: PathSettings, seed: int) -> dict:
    """A complete config document with library defaults filled in.

    Of ``nn`` it shows the fields a study tunes; the rest keep their
    defaults when left out.
    """
    nn = asdict(FcnnConfig())
    return {
        "paths": asdict(paths),
        "dataset": asdict(DatasetSettings()),
        "pca": asdict(PcaSettings()),
        "cluster": asdict(ClusterSettings()),
        "nn": {k: nn[k] for k in ("hidden", "dropout_rate", "learning_rate",
                                  "batch_size", "max_epochs", "patience")},
        "study": asdict(StudySettings()),
        "seed": seed,
    }
