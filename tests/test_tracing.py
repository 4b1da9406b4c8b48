"""The benchmark's tracer still fits the package it wraps.

``perfbench/tracing.py`` replaces functions of ``taskopt`` by name for
a traced run. A rename or deletion in the package fails here, rather
than in a traced benchmark run.
"""

import importlib
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
