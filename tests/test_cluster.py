import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import brute_force_min_inertia, silhouette_by_hand
from taskopt.cluster import (
    ClusterModel,
    adjusted_rand_index,
    kmeans,
    select_k,
    silhouette_score,
)


def _blobs(rng, centers, spread, per_blob):
    points = []
    labels = []
    for i, center in enumerate(centers):
        points.append(center + rng.normal(0, spread, size=(per_blob, len(center))))
        labels += [i] * per_blob
    return np.vstack(points), np.array(labels)


def _comembership(labels):
    labels = np.asarray(labels)
    return labels[:, None] == labels[None, :]


class TestKmeans:
    def test_two_points_exact_fit(self):
        points = np.array([[0.0, 0.0], [5.0, 5.0]])
        model = kmeans(points, 2, seed=1)
        assert model.inertia == 0.0
        assert set(model.assignments) == {0, 1}
        assert model.silhouette is None  # undefined below 3 points
        assert sorted(map(tuple, model.centroids)) == [(0, 0), (5, 5)]

    def test_matches_brute_force_on_planted_blobs(self):
        rng = np.random.default_rng(4)
        points, planted = _blobs(rng, [np.zeros(2), np.full(2, 10.0)], 0.3, 4)
        model = kmeans(points, 2, seed=0, restarts=10)
        assert model.inertia == pytest.approx(
            brute_force_min_inertia(points, 2), rel=1e-9
        )
        assert np.array_equal(_comembership(model.assignments),
                              _comembership(planted))

    def test_duplicate_points_are_fine(self):
        points = np.zeros((6, 2))
        model = kmeans(points, 2, seed=0)
        assert model.inertia == 0.0
        assert set(model.assignments) == {0, 1}  # empty cluster repaired

    def test_centroids_are_member_means(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(40, 3))
        model = kmeans(points, 4, seed=2)
        for c in range(4):
            members = points[model.assignments == c]
            assert len(members) > 0
            assert np.allclose(model.centroids[c], members.mean(axis=0),
                               atol=1e-9)

    def test_inertia_history_monotone(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(60, 2))
        model = kmeans(points, 3, seed=3)
        history = np.array(model.inertia_history)
        assert np.all(np.diff(history) <= 1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(30, 2))
        a = kmeans(points, 3, seed=5)
        b = kmeans(points, 3, seed=5)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.centroids.tobytes() == b.centroids.tobytes()

    def test_permutation_changes_only_labels(self):
        rng = np.random.default_rng(13)
        points, _ = _blobs(rng, [np.zeros(2), np.full(2, 8.0), np.array([8.0, -8.0])],
                           0.4, 7)
        perm = rng.permutation(points.shape[0])
        a = kmeans(points, 3, seed=5)
        b = kmeans(points[perm], 3, seed=5)
        co_a = _comembership(a.assignments)[np.ix_(perm, perm)]
        co_b = _comembership(b.assignments)
        assert np.array_equal(co_a, co_b)

    def test_errors(self):
        points = np.zeros((3, 2))
        with pytest.raises(ValueError, match="k must be >= 2"):
            kmeans(points, 1, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            kmeans(points, 4, seed=0)
        bad = points.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            kmeans(bad, 2, seed=0)


class TestSilhouette:
    def test_two_tight_pairs(self):
        # By hand: each point has a = 0.1; the b values are 10.05, 9.95,
        # 9.95, 10.05, giving a mean silhouette of exactly 0.99.
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        labels = [0, 0, 1, 1]
        score = silhouette_score(points, labels)
        assert score == pytest.approx(0.990, abs=1e-3)
        assert score == pytest.approx(silhouette_by_hand(points, labels), abs=1e-12)

    def test_fully_overlapping_clusters(self):
        points = np.array([[0.0], [0.0], [1.0], [1.0]])
        labels = [0, 1, 0, 1]  # each cluster spans both locations
        assert silhouette_score(points, labels) <= 0.0

    def test_singletons_contribute_zero(self):
        # Equilateral triangle, each point its own cluster.
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        assert silhouette_score(points, [0, 1, 2]) == 0.0

    def test_matches_hand_evaluation_random(self):
        rng = np.random.default_rng(17)
        points = rng.normal(size=(12, 2))
        labels = rng.integers(0, 3, size=12)
        labels[:3] = [0, 1, 2]  # every cluster non-empty
        assert silhouette_score(points, labels) == pytest.approx(
            silhouette_by_hand(points, labels), abs=1e-12
        )

    def test_tight_clusters_far_from_origin(self):
        # The Gram form of the distance leaves ~1e-6 on the diagonal at
        # this scale; the diagonal must be exactly zero, since a sums it.
        rng = np.random.default_rng(9)
        points, labels = _blobs(rng, rng.normal(0, 30, size=(3, 3)), 0.05, 4)
        assert silhouette_score(points, labels) == pytest.approx(
            silhouette_by_hand(points, labels), abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 9).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                 min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
    )))
    @example(([(0, 0)] * 4, [0, 0, 1, 1]))  # a == b == 0 everywhere
    @example(([(0, 0), (0, 0), (1, 0), (5, 5)], [0, 0, 1, 2]))  # singletons
    def test_matches_hand_evaluation_property(self, case):
        # Integer grid points give duplicates; few labels give singletons.
        points, labels = np.array(case[0], dtype=float), case[1]
        assume(len(set(labels)) >= 2)
        assert silhouette_score(points, labels) == pytest.approx(
            silhouette_by_hand(points, labels), abs=1e-12
        )

    @pytest.mark.parametrize("transform", ["translate", "rotate", "scale"])
    def test_invariances(self, transform):
        rng = np.random.default_rng(19)
        points, labels = _blobs(rng, [np.zeros(3), np.full(3, 4.0)], 0.5, 6)
        base = silhouette_score(points, labels)
        if transform == "translate":
            moved = points + np.array([100.0, -7.0, 3.0])
        elif transform == "rotate":
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            moved = points @ q
        else:
            moved = points * 3.7
        assert silhouette_score(moved, labels) == pytest.approx(base, abs=1e-9)

    def test_errors(self):
        points = np.zeros((4, 1))
        with pytest.raises(ValueError, match="2 clusters"):
            silhouette_score(points, [0, 0, 0, 0])
        with pytest.raises(ValueError, match="at least 3"):
            silhouette_score(points[:2], [0, 1])


class TestSelectK:
    def test_recovers_planted_three_blobs(self):
        rng = np.random.default_rng(23)
        centers = [np.zeros(2), np.array([12.0, 0.0]), np.array([0.0, 12.0])]
        points, _ = _blobs(rng, centers, 0.5, 10)
        scan = select_k(points, range(2, 9), seed=1)
        assert scan.best_k == 3
        peak = max(scan.table, key=lambda row: row[1])
        assert peak[0] == 3

    def test_single_k_range(self):
        rng = np.random.default_rng(29)
        points = rng.normal(size=(10, 2))
        scan = select_k(points, [4], seed=0)
        assert scan.best_k == 4
        assert scan.model.k == 4
        assert len(scan.table) == 1

    def test_tie_breaks_toward_smaller_k(self):
        # Coincident points score exactly 0 (a == b == 0) at every K.
        scan = select_k(np.zeros((6, 2)), [4, 2, 3], seed=0)
        assert scan.table == [(2, 0.0), (3, 0.0), (4, 0.0)]
        assert scan.best_k == 2 and scan.model.k == 2
        # Equal score must not displace the earlier K.
        points = np.array([[0.0], [0.0], [10.0], [10.0], [20.0], [20.0]])
        scan = select_k(points, range(2, 4), seed=0)
        assert scan.table[0][1] <= 1.0
        assert scan.best_k == min(
            k for k, s in scan.table
            if s == max(v for _, v in scan.table)
        )

    def test_empty_range(self):
        with pytest.raises(ValueError, match="empty"):
            select_k(np.zeros((5, 1)), [], seed=0)

    def test_range_validation(self):
        points = np.zeros((5, 1))
        with pytest.raises(ValueError, match="outside"):
            select_k(points, [5], seed=0)

    def test_csv_output(self, tmp_path):
        rng = np.random.default_rng(31)
        points, _ = _blobs(rng, [np.zeros(2), np.full(2, 9.0)], 0.4, 6)
        scan = select_k(points, range(2, 5), seed=1)
        scan.write_csv(tmp_path / "scan.csv")
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == "k,silhouette"
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        assert [(int(k), float(s)) for k, s in rows] == scan.table

    def test_table_matches_separate_fits(self):
        rng = np.random.default_rng(43)
        centers = [np.zeros(3), np.full(3, 6.0), np.array([6.0, -6.0, 0.0])]
        points, _ = _blobs(rng, centers, 1.5, 15)
        scan = select_k(points, range(2, 8), seed=3, restarts=4)
        separate = {}
        for k, sil in scan.table:
            model = kmeans(points, k, seed=3, restarts=4)
            assert model.silhouette is None  # only select_k scores
            separate[k] = silhouette_score(points, model.assignments)
            assert sil == pytest.approx(separate[k], abs=1e-12)
            if k == scan.best_k:
                assert np.array_equal(model.assignments, scan.model.assignments)
        assert scan.best_k == max(separate, key=separate.get)
        assert scan.model.silhouette == dict(scan.table)[scan.best_k]


class TestAri:
    def test_perfect_recovery_at_strong_separation(self):
        rng = np.random.default_rng(37)
        spread = 0.5
        centers = [np.zeros(2), np.array([10 * spread * 10, 0.0]),
                   np.array([0.0, 10 * spread * 10])]
        points, planted = _blobs(rng, centers, spread, 15)
        model = kmeans(points, 3, seed=0)
        assert adjusted_rand_index(planted, model.assignments) == pytest.approx(1.0)

    def test_label_permutation_invariant(self):
        a = [0, 0, 1, 1, 2, 2]
        b = [5, 5, 9, 9, 7, 7]
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_disagreement_lowers_score(self):
        a = [0, 0, 0, 1, 1, 1]
        b = [0, 0, 1, 1, 0, 1]
        assert adjusted_rand_index(a, b) < 0.5


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        points = rng.normal(size=(12, 2))
        model = kmeans(points, 3, seed=1)
        model.to_json(tmp_path / "cluster.json")
        back = ClusterModel.from_json(tmp_path / "cluster.json")
        assert back.k == model.k
        assert np.array_equal(back.assignments, model.assignments)
        assert np.array_equal(back.centroids, model.centroids)
        assert back.inertia == model.inertia
        assert back.silhouette == model.silhouette
