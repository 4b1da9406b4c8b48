import numpy as np
import pytest

from oracles import jacobi_eigh
from taskopt.pca import PcaModel, pca_fit, pca_transform, select_components


def _random_matrix(seed, n, d):
    return np.random.default_rng(seed).normal(size=(n, d))


def _dummy_model(ratios):
    p = len(ratios)
    return PcaModel(
        mean=np.zeros(p),
        scale=np.ones(p),
        components=np.eye(p),
        explained_variance_ratio=np.array(ratios),
    )


class TestFit:
    def test_single_axis_variance(self):
        rows = np.tile([1.0, 2.0, 3.0, 4.0], (6, 1))
        rows[:, 3] = np.arange(6, dtype=float)
        model = pca_fit(rows)
        axis = np.zeros(4)
        axis[3] = 1.0
        assert np.allclose(np.abs(model.components[0]), axis, atol=1e-12)
        assert model.components[0, 3] > 0  # sign convention
        assert model.explained_variance_ratio[0] == pytest.approx(1.0)

    def test_diagonal_line_by_hand(self):
        # Points on y = x centered at 0 stay on y = x once both columns are
        # divided by their standard deviation sqrt(2.5): covariance is
        # s*[[1,1],[1,1]], whose eigenpairs are 2s with (1,1)/sqrt(2) and
        # 0 with (1,-1)/sqrt(2).
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        rows = np.column_stack([x, x])
        model = pca_fit(rows)
        assert np.allclose(model.scale, [np.sqrt(2.5)] * 2, atol=1e-12)
        assert np.allclose(model.components[0],
                           [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
        assert model.explained_variance_ratio[0] == pytest.approx(1.0)

    def test_scores_on_diagonal_line(self):
        # The standardised point (x, x) / sqrt(2.5) projects onto
        # (1,1)/sqrt(2) as sqrt(2) * x / sqrt(2.5) = sqrt(0.8) * x.
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        rows = np.column_stack([x, x])
        model = pca_fit(rows)
        scores = pca_transform(model, rows, 1)
        assert np.allclose(scores[:, 0], np.sqrt(0.8) * x, atol=1e-12)

    def test_zero_variance_column_scale(self):
        rows = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        model = pca_fit(rows)
        assert model.scale[1] == 1.0

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="at least 2"):
            pca_fit(np.ones((1, 3)))

    def test_rejects_non_finite(self):
        rows = np.ones((3, 2))
        rows[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pca_fit(rows)

    def test_deterministic(self):
        rows = _random_matrix(3, 8, 5)
        a = pca_fit(rows)
        b = pca_fit(rows)
        assert a.components.tobytes() == b.components.tobytes()
        assert a.explained_variance_ratio.tobytes() == \
            b.explained_variance_ratio.tobytes()


class TestInvariants:
    @pytest.mark.parametrize("n,d", [(10, 4), (4, 10), (20, 20), (5, 4)])
    def test_orthonormal_components(self, n, d):
        model = pca_fit(_random_matrix(7, n, d))
        p = model.n_components
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(p))) < 1e-8

    @pytest.mark.parametrize("n,d", [(10, 4), (4, 10), (12, 6)])
    def test_ratios_monotone_and_bounded(self, n, d):
        model = pca_fit(_random_matrix(11, n, d))
        ratios = model.explained_variance_ratio
        assert np.all(np.diff(ratios) <= 1e-15)
        assert ratios.sum() <= 1 + 1e-12
        assert model.n_components <= min(n - 1, d)

    def test_round_trip_reconstruction(self):
        rows = _random_matrix(5, 20, 8)
        model = pca_fit(rows)
        scores = pca_transform(model, rows)
        standardized = (rows - model.mean) / model.scale
        recon = scores @ model.components
        assert np.max(np.abs(recon - standardized)) < 1e-8

    def test_round_trip_wide_matrix(self):
        rows = _random_matrix(9, 5, 12)  # Gram-matrix route
        model = pca_fit(rows)
        scores = pca_transform(model, rows)
        standardized = (rows - model.mean) / model.scale
        recon = scores @ model.components
        assert np.max(np.abs(recon - standardized)) < 1e-6

    def test_transform_of_mean_row_is_zero(self):
        rows = _random_matrix(13, 9, 4)
        model = pca_fit(rows)
        scores = pca_transform(model, rows.mean(axis=0, keepdims=True))
        assert np.max(np.abs(scores)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_eigen_oracle_tall(self, seed):
        rows = _random_matrix(seed, 5, 4)
        self._check_against_jacobi(rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_eigen_oracle_wide(self, seed):
        rows = _random_matrix(100 + seed, 4, 6)
        self._check_against_jacobi(rows)

    @staticmethod
    def _check_against_jacobi(rows):
        model = pca_fit(rows)
        x = (rows - rows.mean(axis=0)) / model.scale
        cov = x.T @ x / (rows.shape[0] - 1)
        eigvals, _ = jacobi_eigh(cov)
        eigvals = np.clip(eigvals, 0.0, None)
        expected = eigvals / eigvals.sum()
        got = model.explained_variance_ratio
        ref = expected[: len(got)]
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-12)) < 1e-8


class TestSelectComponents:
    def test_published_variance_shares(self):
        # First three shares sum to just over the 0.70 threshold.
        model = _dummy_model([0.4179, 0.1804, 0.1021, 0.05, 0.02])
        p, cumulative = select_components(model, 0.70)
        assert p == 3
        assert cumulative == pytest.approx(0.7004, abs=1e-12)

    def test_single_ratio(self):
        p, cumulative = select_components(_dummy_model([1.0]), 0.9)
        assert p == 1
        assert cumulative == pytest.approx(1.0)

    def test_boundary_inclusive(self):
        p, _ = select_components(_dummy_model([0.5, 0.5]), 0.5)
        assert p == 1

    def test_threshold_validation(self):
        model = _dummy_model([1.0])
        with pytest.raises(ValueError):
            select_components(model, 0.0)
        with pytest.raises(ValueError):
            select_components(model, 1.5)

    def test_unreachable_threshold_returns_all(self):
        model = _dummy_model([0.6, 0.3])
        p, cumulative = select_components(model, 0.99)
        assert p == 2
        assert cumulative == pytest.approx(0.9)


class TestTransform:
    def test_dimension_mismatch(self):
        model = pca_fit(_random_matrix(1, 6, 4))
        with pytest.raises(ValueError, match="columns"):
            pca_transform(model, np.ones((2, 5)))

    def test_p_out_of_range(self):
        model = pca_fit(_random_matrix(1, 6, 4))
        with pytest.raises(ValueError, match="out of range"):
            pca_transform(model, np.ones((2, 4)), p=99)
