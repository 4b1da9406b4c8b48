import logging
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import table_from_ids
from taskopt import crossval
from taskopt.cli import FOLD_COLUMNS, _fold_row, _read_fold_results, _write_csv
from taskopt.crossval import (
    aligned_fold_metric,
    fcnn_trainer,
    loso_folds,
    metrics,
    run_study,
    split_train_val,
    summarize_condition,
)
from taskopt.errors import InsufficientTrialsError
from taskopt.nn import FcnnConfig
from taskopt.taskselect import TaskSet

TARGET_WEIGHTS = np.linspace(-0.5, 0.5, 14)


def make_samples(subjects, tasks, trials_per=3, samples_per=4, seed=0):
    """A table whose target is an exact linear function of the inputs."""
    rng = np.random.default_rng(seed)
    keys = [(s, t, f"t{trial}") for s in subjects for t in tasks
            for trial in range(trials_per)]
    n = len(keys) * samples_per
    x = rng.normal(size=(n, 14))

    ids = [[k[i] for k in keys for _ in range(samples_per)] for i in range(3)]
    return table_from_ids(x, x @ TARGET_WEIGHTS,
                          np.tile(np.arange(samples_per) * 0.1, len(keys)), *ids)


class OracleModel:
    """Predicts the exact generating function; ignores training data."""

    def predict(self, x):
        return x @ TARGET_WEIGHTS


def oracle_trainer(train_xy, val_xy, config):
    return OracleModel(), None


def trial_keys(table):
    """The sorted distinct (subject, task, trial) keys of the table's rows."""
    return [tuple(k) for k in table.keys[np.unique(table.codes)].tolist()]


def oracle_trial_keys(subjects, tasks, trials):
    """Tuple-based ``trial_keys``: the sorted distinct id triples of the rows."""
    return sorted({(str(s), str(t), str(tr)) for s, t, tr in zip(subjects, tasks, trials)})


def oracle_train_mask(subjects, tasks, trials, fraction, seed):
    """Tuple-based ``split_train_val``: which rows go to the train side."""
    keys = oracle_trial_keys(subjects, tasks, trials)
    order = np.random.default_rng(seed).permutation(len(keys))
    n_train = min(max(int(math.floor(fraction * len(keys))), 1), len(keys) - 1)
    train_keys = {keys[i] for i in order[:n_train]}
    return np.array([k in train_keys for k in zip(subjects, tasks, trials)], dtype=bool)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def env_trainer(train_xy, val_xy, config):
    """The oracle model, with the BLAS thread variables of the process as history."""
    return OracleModel(), {name: os.environ.get(name) for name in BLAS_THREAD_VARS}


class TestLosoFolds:
    def test_eleven_subjects_eleven_folds(self):
        samples = make_samples([f"s{i}" for i in range(11)], ["walk"],
                               trials_per=1, samples_per=2)
        folds = loso_folds(samples)
        assert len(folds) == 11
        assert [f.left_out for f in folds] == sorted(f.left_out for f in folds)

    def test_two_subjects(self):
        samples = make_samples(["a", "b"], ["walk"], trials_per=1)
        folds = loso_folds(samples)
        assert len(folds) == 2
        assert folds[0].train_pool.subject_set() == {"b"}
        assert folds[1].train_pool.subject_set() == {"a"}

    def test_disjoint_partition(self):
        samples = make_samples(["a", "b", "c"], ["walk", "jump"])
        for fold in loso_folds(samples):
            assert fold.test.subject_set() == {fold.left_out}
            assert fold.left_out not in fold.train_pool.subject_set()
            assert fold.test.n + fold.train_pool.n == samples.n

    def test_needs_two_subjects(self):
        samples = make_samples(["solo"], ["walk"])
        with pytest.raises(ValueError, match=">= 2 subjects"):
            loso_folds(samples)


class TestSplitTrainVal:
    def _pool(self, n_trials):
        return make_samples(["a"], ["walk"], trials_per=n_trials, samples_per=3)

    def test_ten_trials_split_eight_two(self):
        train, val = split_train_val(self._pool(10), train_fraction=0.8, seed=1)
        assert len(trial_keys(train)) == 8
        assert len(trial_keys(val)) == 2

    def test_two_trials_split_one_one(self):
        train, val = split_train_val(self._pool(2), train_fraction=0.8, seed=1)
        assert len(trial_keys(train)) == 1
        assert len(trial_keys(val)) == 1

    def test_deterministic(self):
        a_train, a_val = split_train_val(self._pool(7), seed=9)
        b_train, b_val = split_train_val(self._pool(7), seed=9)
        assert trial_keys(a_train) == trial_keys(b_train)
        assert trial_keys(a_val) == trial_keys(b_val)

    def test_trial_granularity(self):
        train, val = split_train_val(self._pool(5), seed=3)
        assert set(trial_keys(train)).isdisjoint(trial_keys(val))
        # every sample of a trial stays on one side
        assert train.n % 3 == 0 and val.n % 3 == 0

    def test_single_trial_raises(self):
        with pytest.raises(InsufficientTrialsError):
            split_train_val(self._pool(1))

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="fraction"):
            split_train_val(self._pool(4), train_fraction=1.0)


class TestTrialCodes:
    """Code-based split and keys against the tuple-based oracles."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_split_and_keys_match_tuple_oracle(self, data):
        trials = data.draw(st.lists(
            st.tuples(st.sampled_from(["a", "b,1", 'c"2', "d#3", " e ", "a,"]),
                      st.sampled_from(["walk", "j,ump"]),
                      st.sampled_from(["t1", 't"2', "#3"])),
            min_size=1, max_size=8, unique=True))
        counts = data.draw(st.lists(st.integers(1, 3), min_size=len(trials),
                                    max_size=len(trials)))
        # Rows of different trials interleave, in shuffled order.
        labels = data.draw(st.permutations(
            [t for t, c in enumerate(counts) for _ in range(c)]))
        ids = [[trials[t][i] for t in labels] for i in range(3)]
        n = len(labels)
        table = table_from_ids(np.zeros((n, 14)), np.arange(n), np.zeros(n), *ids)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        pool = table.subset(keep)  # shares the keys, some now without rows
        pool_ids = [[v for v, k in zip(column, keep) if k] for column in ids]
        fraction = data.draw(st.sampled_from([0.34, 0.5, 0.8]))
        seed = data.draw(st.integers(0, 2**16))

        assert trial_keys(table) == oracle_trial_keys(*ids)
        assert trial_keys(pool) == oracle_trial_keys(*pool_ids)
        if len(trial_keys(pool)) < 2:
            with pytest.raises(InsufficientTrialsError):
                split_train_val(pool, fraction, seed)
            return
        train, val = split_train_val(pool, fraction, seed)
        mask = oracle_train_mask(*pool_ids, fraction, seed)
        rows = np.flatnonzero(keep)
        assert train.y.tolist() == rows[mask].tolist()
        assert val.y.tolist() == rows[~mask].tolist()
        for side, side_mask in ((train, mask), (val, ~mask)):
            side_ids = [np.array(column, dtype=object)[side_mask] for column in pool_ids]
            assert trial_keys(side) == oracle_trial_keys(*side_ids)


class TestMetrics:
    def test_perfect_prediction(self):
        m = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m.rmse == 0.0
        assert m.r2 == 1.0

    def test_mean_predictor_scores_zero(self):
        truth = np.array([1.0, 2.0, 3.0, 6.0])
        m = metrics(np.full(4, truth.mean()), truth)
        assert m.r2 == pytest.approx(0.0, abs=1e-15)

    def test_two_term_hand_example(self):
        m = metrics([0.0, 0.0], [1.0, -1.0])
        assert m.rmse == pytest.approx(1.0)
        assert m.r2 == pytest.approx(0.0)

    def test_constant_truth_flagged(self):
        m = metrics([1.0, 2.0], [3.0, 3.0])
        assert m.r2 is None

    def test_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            metrics([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="empty"):
            metrics([], [])


class TestRunStudy:
    def _conditions(self, tasks):
        return {"all": TaskSet("all", tuple(tasks), "test")}

    def test_oracle_predictor_gives_perfect_metrics(self):
        samples = make_samples(["a", "b"], ["walk"], trials_per=3)
        study = run_study(samples, self._conditions(["walk"]), FcnnConfig(),
                          seed=0, trainer=oracle_trainer)
        assert len(study.folds) == 2
        for fold in study.folds:
            assert fold.rmse == pytest.approx(0.0, abs=1e-12)
            assert fold.r2 == pytest.approx(1.0, abs=1e-12)

    def test_fold_seeds_xor_of_global_seed(self):
        samples = make_samples(["a", "b", "c"], ["walk"])
        study = run_study(samples, self._conditions(["walk"]), FcnnConfig(),
                          seed=12, trainer=oracle_trainer)
        assert [f.seed for f in study.folds] == [12 ^ 0, 12 ^ 1, 12 ^ 2]

    def test_condition_filter_and_unfiltered_test(self):
        samples = make_samples(["a", "b"], ["walk", "jump"], trials_per=2)
        study = run_study(samples, self._conditions(["walk"]), FcnnConfig(),
                          seed=0, trainer=oracle_trainer)
        for fold in study.folds:
            # test set keeps both tasks; training pool was walk-only
            n_per_subject = samples.n // 2
            assert fold.n_test == n_per_subject
            assert fold.n_train + fold.n_val == n_per_subject // 2

    def test_summary_recomputable(self):
        samples = make_samples(["a", "b", "c"], ["walk"], seed=3)
        study = run_study(samples, self._conditions(["walk"]), FcnnConfig(),
                          seed=1, trainer=oracle_trainer)
        rmses = [f.rmse for f in study.folds]
        summary = summarize_condition("all", study.folds)
        assert summary.rmse_mean == pytest.approx(float(np.mean(rmses)))
        assert summary.rmse_std == pytest.approx(float(np.std(rmses, ddof=1)))

    def test_insufficient_trials_fold_skipped(self):
        # subject c has a single walk trial: the folds leaving out a or b
        # still train, folds over c's pool are fine, but the walk-only
        # condition for left-out a/b keeps both of the others' trials, so
        # to force a skip subject pools must shrink to one trial.
        samples = make_samples(["a", "b"], ["walk"], trials_per=1)
        study = run_study(samples, self._conditions(["walk"]), FcnnConfig(),
                          seed=0, trainer=oracle_trainer)
        assert study.folds == []
        assert len(study.skipped) == 2
        for cond, subject, reason in study.skipped:
            assert cond == "all"
            assert "2 trials" in reason

    def test_empty_condition_pool_raises(self):
        samples = make_samples(["a", "b"], ["walk"])
        with pytest.raises(ValueError, match="no training samples"):
            run_study(samples, self._conditions(["sprint"]), FcnnConfig(),
                      seed=0, trainer=oracle_trainer)

    def test_parallel_matches_serial(self):
        samples = make_samples(["a", "b", "c"], ["walk", "jump"], seed=5)
        conditions = {
            "all": TaskSet("all", ("jump", "walk"), "test"),
            "cyclic": TaskSet("cyclic", ("walk",), "test"),
        }
        serial = run_study(samples, conditions, FcnnConfig(), seed=4,
                           trainer=oracle_trainer, jobs=1)
        parallel = run_study(samples, conditions, FcnnConfig(), seed=4,
                             trainer=oracle_trainer, jobs=2)
        assert serial.folds == parallel.folds

    def test_parallel_matches_serial_real_network(self):
        config = FcnnConfig(input_dim=14, hidden=(8, 8), batch_size=16,
                            max_epochs=2, patience=2, seed=0)
        samples = make_samples(["a", "b", "c"], ["walk", "jump"], samples_per=6,
                               seed=5)
        conditions = {
            "all": TaskSet("all", ("jump", "walk"), "test"),
            "cyclic": TaskSet("cyclic", ("walk",), "test"),
        }
        serial = run_study(samples, conditions, config, seed=4,
                           trainer=fcnn_trainer, jobs=1)
        parallel = run_study(samples, conditions, config, seed=4,
                             trainer=fcnn_trainer, jobs=2)
        assert len(serial.folds) == 6
        assert serial.folds == parallel.folds
        assert serial.checkpoints == parallel.checkpoints

    def test_real_trainer_smoke(self):
        # Tiny end-to-end training run through the default trainer.
        config = FcnnConfig(input_dim=14, hidden=(8,), dropout_rate=0.1,
                            batch_size=16, max_epochs=3, patience=3, seed=0)
        samples = make_samples(["a", "b"], ["walk"], trials_per=4,
                               samples_per=6, seed=7)
        study = run_study(samples, self._conditions(["walk"]), config, seed=2)
        assert len(study.folds) == 2
        assert set(study.checkpoints) == {("all", "a"), ("all", "b")}
        assert set(study.histories) == {("all", "a"), ("all", "b")}
        for fold in study.folds:
            assert np.isfinite(fold.rmse)


class TestPool:
    CONDITIONS = {
        "all": TaskSet("all", ("jump", "stairs", "toss", "walk"), "test"),
        "optimized": TaskSet("optimized", ("stairs", "toss"), "test"),
        "cyclic": TaskSet("cyclic", ("stairs", "walk"), "test"),
    }

    def test_select_large_shape_same_at_one_and_two_jobs(self):
        # 20 subjects x 4 tasks x 1 trial x 2 samples: 60 folds.
        samples = make_samples([f"s{i:02d}" for i in range(20)],
                               ["walk", "stairs", "jump", "toss"],
                               trials_per=1, samples_per=2, seed=11)
        config = FcnnConfig(input_dim=14, hidden=(8, 8), batch_size=16,
                            max_epochs=1, patience=1, seed=0)
        serial = run_study(samples, self.CONDITIONS, config, seed=7, jobs=1)
        parallel = run_study(samples, self.CONDITIONS, config, seed=7, jobs=2)
        assert len(serial.folds) == 60 and not serial.skipped
        assert serial.folds == parallel.folds
        assert serial.checkpoints == parallel.checkpoints

    def test_workers_pinned_parent_env_restored(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        before = dict(os.environ)
        samples = make_samples(["a", "b", "c"], ["walk"])
        conditions = {"all": TaskSet("all", ("walk",), "test")}
        parallel = run_study(samples, conditions, FcnnConfig(), jobs=2,
                             trainer=env_trainer)
        assert dict(os.environ) == before
        assert list(parallel.histories.values()) == [
            dict.fromkeys(BLAS_THREAD_VARS, "1")] * 3
        serial = run_study(samples, conditions, FcnnConfig(), jobs=1,
                           trainer=env_trainer)
        assert dict(os.environ) == before
        assert [env["OPENBLAS_NUM_THREADS"] for env in serial.histories.values()] \
            == ["3"] * 3

    def test_pool_capped_at_job_count(self, monkeypatch):
        seen = []

        class NoPool(Exception):
            pass

        class RecordingExecutor:
            def __init__(self, max_workers, mp_context, **kwargs):
                seen.append((max_workers, mp_context.get_start_method()))
                raise NoPool

        monkeypatch.setattr(crossval, "ProcessPoolExecutor", RecordingExecutor)
        before = dict(os.environ)
        samples = make_samples(["a", "b", "c"], ["walk"])
        conditions = {"all": TaskSet("all", ("walk",), "test")}
        for jobs in (64, 2):
            with pytest.raises(NoPool):
                run_study(samples, conditions, FcnnConfig(), jobs=jobs,
                          trainer=oracle_trainer)
        assert seen == [(3, "spawn"), (2, "spawn")]
        assert dict(os.environ) == before

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_logs_fold_progress(self, caplog, jobs):
        samples = make_samples(["a", "b", "c"], ["walk", "jump"])
        conditions = {
            "all": TaskSet("all", ("jump", "walk"), "test"),
            "cyclic": TaskSet("cyclic", ("walk",), "test"),
        }
        with caplog.at_level(logging.INFO, logger="taskopt"):
            study = run_study(samples, conditions, FcnnConfig(), jobs=jobs,
                              trainer=oracle_trainer)
        lines = [r.getMessage().split() for r in caplog.records
                 if r.getMessage().startswith("fold ")]
        assert [line[1] for line in lines] == [f"{i}/6" for i in range(1, 7)]
        assert sorted((line[2], line[3]) for line in lines) == \
            sorted((f.condition, f.left_out) for f in study.folds)
        for line in lines:
            assert line[4].startswith("rmse=") and line[5].startswith("elapsed=")
        assert [(f.condition, f.left_out) for f in study.folds] == [
            (c, s) for c in ("all", "cyclic") for s in ("a", "b", "c")]


class TestAlignment:
    def test_aligned_vectors_share_subjects(self):
        samples = make_samples(["a", "b", "c"], ["walk", "jump"])
        conditions = {
            "all": TaskSet("all", ("jump", "walk"), "test"),
            "cyclic": TaskSet("cyclic", ("walk",), "test"),
        }
        study = run_study(samples, conditions, FcnnConfig(), seed=0,
                          trainer=oracle_trainer)
        subjects, vectors = aligned_fold_metric(study.folds, ["all", "cyclic"])
        assert subjects == ["a", "b", "c"]
        assert vectors["all"].shape == (3,)
        assert vectors["cyclic"].shape == (3,)


class TestFoldResultsCsv:
    def test_round_trip(self, tmp_path):
        samples = make_samples(["a", "b"], ["walk"])
        study = run_study(samples, {"all": TaskSet("all", ("walk",), "t")},
                          FcnnConfig(), seed=0, trainer=oracle_trainer)
        path = tmp_path / "folds.csv"
        _write_csv(path, FOLD_COLUMNS, map(_fold_row, study.folds))
        back = _read_fold_results(path)
        assert back == study.folds
