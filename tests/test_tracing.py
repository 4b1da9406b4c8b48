"""The benchmark's tracer still fits the package it wraps.

``perfbench/tracing.py`` replaces functions of ``taskopt`` by name for
a traced run. A rename or deletion in the package fails here, rather
than in a traced benchmark run.
"""

import importlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import table_from_ids
from taskopt import cli, cluster, crossval, nn
from taskopt.nn import FcnnConfig
from taskopt.taskselect import TaskSet

MODULES = (cli, cluster, crossval, nn)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    return importlib.import_module("tracing")


def test_installed_wraps_and_restores_every_name(tracing):
    before = [dict(vars(m)) for m in MODULES]
    with tracing.installed(tracing.Tracer()):
        during = [dict(vars(m)) for m in MODULES]
    wrapped = {(m.__name__, name) for m, old, new in zip(MODULES, before, during)
               for name in old if new[name] is not old[name]}
    assert ("taskopt.cli", "load_profiles") in wrapped
    assert ("taskopt.cluster", "_lloyd") in wrapped
    assert ("taskopt.cli", "run_study") in wrapped
    for module, old in zip(MODULES, before):
        assert dict(vars(module)) == old, module.__name__


def test_payload_mb_still_finds_loso_folds(tracing):
    assert callable(crossval.loso_folds)
    tracer = tracing.Tracer()
    assert tracing.payload_mb(tracer) == 0.0
    n = 4
    tracer.study = {
        "samples": table_from_ids(np.zeros((n, 14)), np.zeros(n), np.arange(n),
                                  ["a", "a", "b", "b"], ["walk"] * n, ["t1"] * n),
        "conditions": {"all": TaskSet("all", ("walk",), "all tasks")},
        "nn_config": FcnnConfig(), "seed": 0, "val_fraction": 0.8,
    }
    assert tracing.payload_mb(tracer) > 0.0


def test_every_wrapped_cli_name_is_called(tracing, tmp_path, monkeypatch):
    """Each stage looks the wrapped names up in ``taskopt.cli`` when it runs.

    A stage that kept a reference taken at import time would bypass the
    tracer, and its spans would silently read 0.
    """
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data_dir), "--subjects", "4",
                     "--tasks", "6", "--clusters", "3"]) == 0
    config_path = data_dir / "config.json"
    raw = json.loads(config_path.read_text())
    raw["cluster"].update(k_max=4, restarts=2)
    raw["nn"].update(hidden=[8], max_epochs=1, patience=1)
    config_path.write_text(json.dumps(raw))

    before = dict(vars(cli))
    calls = Counter()

    def counting(name, wrapper):
        def counted(*args, **kwargs):
            calls[name] += 1
            return wrapper(*args, **kwargs)
        return counted

    tracer = tracing.Tracer()
    with tracing.installed(tracer), monkeypatch.context() as patch:
        wrapped = {name for name, value in vars(cli).items()
                   if before[name] is not value}
        for name in wrapped:
            patch.setattr(cli, name, counting(name, getattr(cli, name)))
        for stage in ("ingest", "cluster", "select", "train", "report"):
            assert cli.main([stage, "--config", str(config_path)]) == 0, stage
    assert wrapped >= {"load_profiles", "load_sensor_samples", "pca_fit",
                       "select_components", "select_k", "run_study"}
    assert {name for name in wrapped if not calls[name]} == set()
    # ingest parses each input CSV; later stages read its artifacts.
    assert calls["load_profiles"] == calls["load_sensor_samples"] == 1
    assert tracer.counters["dataset.sensor_loads"] == 1
    assert tracer.counters["cluster.kmeans_fits"] > 0
    assert vars(cli) == before
