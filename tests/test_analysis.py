"""Correlation statistics and their CSV artifacts."""

import numpy as np
import pytest

from conftest import synthetic_table
from hyperts.analysis import (all_pair_lag_curves, correlation_matrix,
                              lagged_correlation, pearson, write_lag_csv,
                              write_matrix_csv)


class TestPearson:
    def test_self_correlation_is_one(self, rng):
        x = rng.normal(size=100)
        assert pearson(x, x) == pytest.approx(1.0)

    def test_negated_is_minus_one(self, rng):
        x = rng.normal(size=100)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_symmetry(self, rng):
        x, y = rng.normal(size=(2, 200))
        assert pearson(x, y) == pytest.approx(pearson(y, x))

    def test_shift_scale_invariance(self, rng):
        x, y = rng.normal(size=(2, 200))
        r = pearson(x, y)
        assert pearson(3.5 * x + 2.0, y) == pytest.approx(r)
        assert pearson(-2.0 * x + 1.0, y) == pytest.approx(-r)

    def test_zero_variance_rejected(self, rng):
        with pytest.raises(ValueError):
            pearson(np.ones(10), rng.normal(size=10))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            pearson(np.array([1.0]), np.array([2.0]))


class TestCorrelationMatrix:
    def test_diagonal_symmetry_bounds(self):
        table = synthetic_table(n=300)
        m = correlation_matrix(table)
        np.testing.assert_allclose(np.diag(m.r), 1.0)
        np.testing.assert_allclose(m.r, m.r.T)
        assert np.all(np.abs(m.r) <= 1.0 + 1e-12)

    def test_positive_semidefinite(self):
        table = synthetic_table(n=500)
        m = correlation_matrix(table)
        eigvals = np.linalg.eigvalsh(m.r)
        assert eigvals.min() > -1e-10

    def test_correlated_channels_detected(self):
        # channel 0 is built from channels 1-3, so correlations are strong
        table = synthetic_table(n=500)
        m = correlation_matrix(table)
        assert abs(m.r[0, 1]) > 0.3 or abs(m.r[0, 3]) > 0.3


class TestLaggedCorrelation:
    def test_lag_zero_self_is_one(self, rng):
        x = rng.normal(size=200)
        curve = lagged_correlation(x, x, max_lag=10)
        assert curve.values[0] == pytest.approx(1.0)
        assert len(curve.values) == 11

    def test_white_noise_stays_small(self):
        rng = np.random.default_rng(1234)
        a, b = rng.normal(size=(2, 10_000))
        curve = lagged_correlation(a, b, max_lag=20)
        assert np.all(np.abs(curve.values) < 0.1)

    def test_shifted_copy_peaks_at_shift(self, rng):
        x = rng.normal(size=505)
        a = x[5:]   # b[t] = a[t-5]: a leads b by 5 steps
        b = x[:-5]
        curve = lagged_correlation(a, b, max_lag=10)
        assert curve.values[5] == pytest.approx(1.0)
        assert np.argmax(curve.values) == 5

    def test_too_short_rejected(self, rng):
        with pytest.raises(ValueError):
            lagged_correlation(rng.normal(size=10), rng.normal(size=10),
                               max_lag=9)

    def test_negative_max_lag_rejected(self, rng):
        x = rng.normal(size=20)
        with pytest.raises(ValueError, match="max_lag must be >= 0, got -1"):
            lagged_correlation(x, x, max_lag=-1)


class TestArtifacts:
    def test_pair_count(self):
        table = synthetic_table(n=100)
        curves = all_pair_lag_curves(table, max_lag=5)
        assert len(curves) == 10  # C(4,2) + 4 self-pairs

    def test_matrix_csv_round_trip(self, tmp_path):
        table = synthetic_table(n=100)
        m = correlation_matrix(table)
        path = tmp_path / "matrix.csv"
        write_matrix_csv(m, path, header_lines=["meta: x"])
        lines = [l for l in path.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "," + ",".join(table.order)
        got = np.array([[float(v) for v in line.split(",")[1:]]
                        for line in lines[1:]])
        np.testing.assert_array_equal(got, m.r)

    def test_lag_csv_format(self, tmp_path):
        table = synthetic_table(n=100)
        curve = all_pair_lag_curves(table, max_lag=3)[0]
        path = tmp_path / "lag.csv"
        write_lag_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lag,r"
        assert len(lines) == 5
        assert [line.split(",")[0] for line in lines[1:]] == \
            ["0", "1", "2", "3"]
        assert float(lines[1].split(",")[1]) == pytest.approx(curve.values[0])
