"""Generator geometry, standardization, and CSV round-trip tests."""

import math
import re

import numpy as np
import pytest

from cooptile.datasets import (
    Dataset,
    gen_circles,
    gen_linear,
    gen_moons,
    load_csv,
    save_csv,
    standardize,
)

TOL = 1e-9


class TestMoons:
    def test_noiseless_outer_arc_on_unit_circle(self):
        ds = gen_moons(100, noise=0.0)
        outer = ds.X[ds.Y == 0]
        assert np.allclose(outer[:, 0] ** 2 + outer[:, 1] ** 2, 1.0, atol=TOL)
        assert np.all(outer[:, 1] >= -TOL)  # upper half

    def test_noiseless_inner_arc_on_shifted_circle(self):
        ds = gen_moons(100, noise=0.0)
        inner = ds.X[ds.Y == 1]
        radii = (inner[:, 0] - 1.0) ** 2 + (inner[:, 1] - 0.5) ** 2
        assert np.allclose(radii, 1.0, atol=TOL)

    def test_deterministic(self):
        a = gen_moons(100, noise=0.3, seed=42)
        b = gen_moons(100, noise=0.3, seed=42)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
        c = gen_moons(100, noise=0.3, seed=43)
        assert not np.array_equal(a.X, c.X)

    def test_balanced_classes(self):
        ds = gen_moons(100, noise=0.3, seed=0)
        assert int((ds.Y == 0).sum()) == 50 and int((ds.Y == 1).sum()) == 50

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            gen_moons(1)

    @pytest.mark.parametrize("noise,seed", [(-1.0, 0), (math.nan, 0), (math.inf, 0), (0.0, -1)])
    def test_rejects_invalid_noise_or_seed(self, noise, seed):
        # a negative or NaN noise used to give the noise-free points; at noise 0 a seed of -1 reached the manifest
        message = "seed must be a non-negative integer, got -1" if seed else "noise must be non-negative and finite"
        with pytest.raises(ValueError, match=message):
            gen_moons(100, noise=noise, seed=seed)


class TestCircles:
    def test_noiseless_radii(self):
        ds = gen_circles(100, noise=0.0, factor=0.5)
        radii = np.linalg.norm(ds.X, axis=1)
        assert np.allclose(radii[ds.Y == 0], 1.0, atol=TOL)
        assert np.allclose(radii[ds.Y == 1], 0.5, atol=TOL)

    def test_noiseless_radius_threshold_separates_perfectly(self):
        ds = gen_circles(100, noise=0.0, factor=0.5)
        predicted = (np.linalg.norm(ds.X, axis=1) < 0.75).astype(int)
        assert float(np.mean(predicted == ds.Y)) == 1.0

    def test_noise_makes_radii_overlap(self):
        ds = gen_circles(100, noise=0.2, factor=0.5, seed=0)
        radii = np.linalg.norm(ds.X, axis=1)
        assert radii[ds.Y == 0].min() < radii[ds.Y == 1].max()

    @pytest.mark.parametrize("noise", [-0.5, math.nan, math.inf])
    def test_rejects_invalid_noise(self, noise):
        # a negative or NaN noise used to give the noise-free points
        with pytest.raises(ValueError, match="noise"):
            gen_circles(100, noise=noise)

    def test_factor_bounds(self):
        with pytest.raises(ValueError):
            gen_circles(100, factor=1.0)
        with pytest.raises(ValueError):
            gen_circles(100, factor=0.0)

    def test_deterministic(self):
        a = gen_circles(100, seed=5)
        b = gen_circles(100, seed=5)
        assert np.array_equal(a.X, b.X)


class TestLinear:
    def test_first_axis_threshold_near_gaussian_limit(self):
        ds = gen_linear(20000, seed=1)
        accuracy = float(np.mean((ds.X[:, 0] > 0).astype(int) == ds.Y))
        assert accuracy == pytest.approx(0.5 * (1 + math.erf(1.5 / math.sqrt(2))), abs=0.02)

    def test_second_axis_is_uninformative(self):
        ds = gen_linear(100, seed=0)
        x2 = np.sort(ds.X[:, 1])
        cuts = (x2[:-1] + x2[1:]) / 2.0
        best = max(
            max(float(np.mean((ds.X[:, 1] > t).astype(int) == ds.Y)) for t in cuts),
            max(float(np.mean((ds.X[:, 1] <= t).astype(int) == ds.Y)) for t in cuts),
        )
        assert 0.4 <= best <= 0.6

    def test_deterministic(self):
        assert np.array_equal(gen_linear(50, seed=3).X, gen_linear(50, seed=3).X)


class TestStandardize:
    def test_zero_mean_unit_std(self):
        ds = standardize(gen_moons(100, noise=0.3, seed=2))
        assert np.allclose(ds.X.mean(axis=0), 0.0, atol=TOL)
        assert np.allclose(ds.X.std(axis=0), 1.0, atol=TOL)
        assert ds.scaler is not None

    def test_two_point_column(self):
        ds = Dataset(np.array([[0.0, 5.0], [2.0, 7.0]]), np.array([0, 1]))
        z = standardize(ds)
        assert np.allclose(z.X, [[-1.0, -1.0], [1.0, 1.0]], atol=TOL)

    def test_idempotent(self):
        once = standardize(gen_circles(100, seed=1))
        twice = standardize(once)
        assert np.allclose(once.X, twice.X, atol=TOL)

    def test_labels_untouched(self):
        ds = gen_linear(100, seed=0)
        assert np.array_equal(standardize(ds).Y, ds.Y)

    def test_zero_variance_column_rejected(self):
        ds = Dataset(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
        with pytest.raises(ValueError):
            standardize(ds)


class TestCsv:
    def test_roundtrip_is_lossless(self, tmp_path):
        ds = standardize(gen_moons(100, noise=0.3, seed=7))
        path = tmp_path / "moons.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.X, ds.X)
        assert np.array_equal(loaded.Y, ds.Y)

    def test_file_has_header_plus_n_lines(self, tmp_path):
        ds = gen_circles(100, seed=0)
        path = tmp_path / "circles.csv"
        save_csv(ds, path)
        assert len(path.read_text().splitlines()) == 101

    def test_sidecar_manifest_roundtrip(self, tmp_path):
        ds = gen_linear(60, seed=9)
        path = tmp_path / "linear.csv"
        save_csv(ds, path)
        assert (tmp_path / "linear.csv.json").exists()
        assert load_csv(path).meta == ds.meta

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n0.5,0.25,1\n0.5,0.25\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,0,1\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n0.5,oops,1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate(self, tmp_path, value):
        # once loaded, for a later "input holds a non-finite value" naming neither the file nor the line
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,y\n0.5,{value},1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: coordinates must be finite"):
            load_csv(path)

    def test_a_file_that_is_not_utf8_is_named(self, tmp_path):
        # once a bare UnicodeDecodeError naming no file
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x1,x2,y\n0.5,\xff,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode"):
            load_csv(path)

    @pytest.mark.parametrize("rows,message", [("", "holds no points"),
                                              ("0.5,0.25,1\n1.5,0.25,1\n", "both classes must be present")])
    def test_an_unusable_dataset_is_named(self, tmp_path, rows, message):
        # once "X must be a 2-d matrix" for a file without rows, and for one class a message naming no file
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n" + rows)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            load_csv(path)

    @pytest.mark.parametrize("label", ["2", "-1"])
    def test_a_label_other_than_0_or_1_names_its_line(self, tmp_path, label):
        # once "labels must be 0/1, got [1, 2]", naming neither the file nor the line
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,y\n0.5,0.25,{label}\n1.5,0.25,0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: label must be 0 or 1, got '{label}'$"):
            load_csv(path)


class TestDatasetInvariants:
    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([1, 1, 1]))

    def test_rejects_foreign_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 2]))

    def test_rejects_fractional_labels(self):
        with pytest.raises(ValueError, match="labels must be 0/1"):
            Dataset([[0.0, 0.0], [1.0, 1.0]], [0.5, 1.7])

    def test_accepts_integral_float_labels(self):
        assert Dataset([[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0]).Y.tolist() == [0, 1]
