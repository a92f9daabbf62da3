"""Generator checks: GP sample statistics, the labeling rule against hand
evaluation, static-transform shapes and algebra, and file round-trips."""

import json

import numpy as np
import pytest

from featgroups.metrics import ari
from featgroups.serialization import write_tensors
from featgroups.synthdata import (
    GpSpec,
    LabeledDataset,
    assign_labels,
    export_csv,
    generate_dataset,
    load_dataset,
    lower_median,
    sample_gp,
    save_dataset,
    static_kmeans_baseline,
    static_transform,
)


SMALL_SPEC = GpSpec(samples=3000, seed=5)


class TestSampleGp:
    def test_marginal_variance_matches_amplitude(self):
        series = sample_gp(GpSpec(samples=10000, seed=5))
        for f, amp in enumerate(SMALL_SPEC.amplitudes):
            observed = series[:, :, f].var(axis=0)
            np.testing.assert_allclose(observed, amp**2, rtol=0.05)

    def test_longer_length_scale_higher_lag1_autocorrelation(self):
        series = sample_gp(SMALL_SPEC)

        def lag1(f):
            x = series[:, :, f]
            a = x[:, :-1].ravel()
            b = x[:, 1:].ravel()
            return np.corrcoef(a, b)[0, 1]

        # feature 3 has the longest scale (8), feature 0 the shortest (1)
        assert lag1(3) > lag1(0)

    def test_seeded_determinism(self):
        spec = GpSpec(samples=50, seed=9)
        np.testing.assert_array_equal(sample_gp(spec), sample_gp(spec))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GpSpec(length_scales=(1, 2, 4, 8, 1, -2))
        with pytest.raises(ValueError, match="per feature"):
            GpSpec(length_scales=(1, 2))


class TestLabels:
    def test_hand_evaluated_rule(self):
        # T=1 series engineered so the product sums are (1, 3) and (5, 2)
        series = np.array([[[1.0, 1.0, 5.0, 1.0]], [[3.0, 1.0, 2.0, 1.0]]])
        dataset = assign_labels(series)
        assert dataset.thresholds == (1.0, 2.0)  # lower medians
        np.testing.assert_array_equal(dataset.labels, [0, 0])

    def test_lower_median_convention(self):
        assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0
        assert lower_median([3.0, 1.0, 2.0]) == 2.0

    def test_each_indicator_splits_exactly_in_half(self):
        dataset = generate_dataset(GpSpec(samples=1000, seed=3))
        s12 = (dataset.series[:, :, 0] * dataset.series[:, :, 1]).sum(axis=1)
        s34 = (dataset.series[:, :, 2] * dataset.series[:, :, 3]).sum(axis=1)
        assert (s12 > dataset.thresholds[0]).sum() == 500
        assert (s34 > dataset.thresholds[1]).sum() == 500

    def test_positive_rate_in_expected_band(self):
        rates = [generate_dataset(GpSpec(samples=2000, seed=s)).labels.mean() for s in range(3)]
        for rate in rates:
            assert 0.2 <= rate <= 0.35

    def test_labels_invariant_to_rescaling_uninformative_features(self):
        dataset = generate_dataset(GpSpec(samples=500, seed=7))
        scaled = dataset.series.copy()
        scaled[:, :, 4] *= 13.0
        scaled[:, :, 5] *= 0.01
        np.testing.assert_array_equal(assign_labels(scaled).labels, dataset.labels)

    def test_truth_labels_vector(self):
        dataset = generate_dataset(GpSpec(samples=10, seed=0))
        np.testing.assert_array_equal(dataset.truth_labels, [0, 0, 1, 1, 2, 2])

    @pytest.mark.parametrize(
        "features, truth", [(4, [0, 0, 1, 1]), (5, [0, 0, 1, 1, 2]), (8, [0, 0, 1, 1, 2, 2, 2, 2])]
    )
    def test_distractors_form_one_truth_group(self, features, truth):
        spec = GpSpec(
            samples=10, features=features, length=4, length_scales=[1.0] * features, amplitudes=[1.0] * features
        )
        np.testing.assert_array_equal(generate_dataset(spec).truth_labels, truth)

    def test_truth_labels_name_missing_and_repeated_features(self):
        dataset = generate_dataset(GpSpec(samples=10, seed=0))
        dataset.truth_groups = [[0, 1], [1, 2, 3], [5]]
        with pytest.raises(ValueError, match=r"missing \[4\], repeated \[1\]"):
            dataset.truth_labels


class TestStaticTransforms:
    def setup_method(self):
        self.dataset = generate_dataset(GpSpec(samples=40, seed=11))

    def test_shapes(self):
        n, t, f = self.dataset.series.shape
        assert static_transform(self.dataset, "flat").shape == (f, n * (t + 1))
        assert static_transform(self.dataset, "time_mean").shape == (f, 2 * n)
        assert static_transform(self.dataset, "sample_mean").shape == (f, t + 1)
        assert static_transform(self.dataset, "full_mean").shape == (f, 2)

    def test_modes_are_c_contiguous_with_reference_values(self):
        x, y = self.dataset.series, self.dataset.labels.astype(float)
        n, t, f = x.shape
        expected = {
            "flat": [np.concatenate([np.append(x[i, :, j], y[i]) for i in range(n)]) for j in range(f)],
            "time_mean": [np.concatenate([[x[i, :, j].mean(), y[i]] for i in range(n)]) for j in range(f)],
            "sample_mean": [np.append(x[:, :, j].mean(axis=0), y.mean()) for j in range(f)],
            "full_mean": [[x[:, :, j].mean(), y.mean()] for j in range(f)],
        }
        for mode, rows in expected.items():
            out = static_transform(self.dataset, mode)
            assert out.flags.c_contiguous, mode
            np.testing.assert_allclose(out, np.array(rows), rtol=1e-12, atol=1e-12, err_msg=mode)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="static transform"):
            static_transform(self.dataset, "median")

    def test_full_mean_is_time_mean_then_sample_average(self):
        n = self.dataset.series.shape[0]
        tm = static_transform(self.dataset, "time_mean").reshape(-1, n, 2)
        collapsed = tm.mean(axis=1)
        np.testing.assert_allclose(collapsed, static_transform(self.dataset, "full_mean"), atol=1e-12)

    def test_constant_feature_full_mean_statistic(self):
        series = self.dataset.series.copy()
        series[:, :, 5] = 3.25
        dataset = assign_labels(series)
        out = static_transform(dataset, "full_mean")
        assert out[5, 0] == pytest.approx(3.25)

    def test_flat_blocks_carry_per_sample_labels(self):
        out = static_transform(self.dataset, "flat")
        t = self.dataset.series.shape[1]
        # label sits after each sample's T values, identical across features
        labels = out[:, t :: t + 1]
        np.testing.assert_array_equal(labels, np.tile(self.dataset.labels, (6, 1)))


class TestStaticBaseline:
    def test_duplicate_feature_vectors_share_cluster(self):
        dataset = generate_dataset(GpSpec(samples=60, seed=13))
        dataset.series[:, :, 5] = dataset.series[:, :, 4]  # exact duplicate
        member = static_kmeans_baseline(dataset, "time_mean", 3, seed=1)
        assert member[4].argmax() == member[5].argmax()

    def test_k_above_truth_group_count_rejected(self):
        dataset = generate_dataset(GpSpec(samples=30, seed=14))
        with pytest.raises(ValueError, match="ground-truth"):
            static_kmeans_baseline(dataset, "flat", 4, seed=0)

    def test_partition_has_k_nonempty_clusters_or_fewer(self):
        dataset = generate_dataset(GpSpec(samples=50, seed=15))
        member = static_kmeans_baseline(dataset, "sample_mean", 3, seed=2)
        assert member.shape == (6, 3)
        np.testing.assert_array_equal(member.sum(axis=1), np.ones(6))

    def test_static_ari_stays_low_on_default_data(self):
        # the headline failure mode the benchmark demonstrates: aggregated
        # views of the raw series do not encode the interaction structure
        dataset = generate_dataset(GpSpec(samples=4000, seed=0))
        for mode in ("flat", "time_mean", "sample_mean", "full_mean"):
            values = [
                ari(dataset.truth_labels, static_kmeans_baseline(dataset, mode, 3, seed).argmax(axis=1))
                for seed in range(5)
            ]
            assert np.mean(values) <= 0.35


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        dataset = generate_dataset(GpSpec(samples=25, seed=21))
        save_dataset(dataset, tmp_path / "d.bin", tmp_path / "d.json")
        loaded = load_dataset(tmp_path / "d.bin", tmp_path / "d.json")
        np.testing.assert_array_equal(loaded.series, dataset.series)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        assert loaded.thresholds == dataset.thresholds
        assert loaded.truth_groups == dataset.truth_groups
        assert loaded.spec.seed == 21

    def test_byte_identical_files_for_same_seed(self, tmp_path):
        for tag in ("a", "b"):
            ds = generate_dataset(GpSpec(samples=25, seed=4))
            save_dataset(ds, tmp_path / f"{tag}.bin", tmp_path / f"{tag}.json")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_csv_export_row_count(self, tmp_path):
        dataset = generate_dataset(GpSpec(samples=5, seed=2))
        export_csv(dataset, tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 5 * 20  # schema line + header + N*T rows


class TestLoadValidation:
    """A dataset whose tensors or sidecar are wrong fails on load, naming the
    file and the sample, step or feature."""

    def _saved(self, tmp_path, series=None, labels=None, **sidecar):
        dataset = generate_dataset(GpSpec(samples=25, length=5, seed=3))
        binary, side = tmp_path / "d.bin", tmp_path / "d.json"
        save_dataset(dataset, binary, side)
        series = dataset.series if series is None else series(dataset.series.copy())
        labels = dataset.labels.astype(np.float64) if labels is None else labels(dataset.labels.astype(np.float64))
        write_tensors(binary, {"series": series, "labels": labels})
        if sidecar:
            body = json.loads(side.read_text())
            body.update(sidecar)
            side.write_text(json.dumps(body))
        return binary, side

    def test_series_must_be_three_dimensional(self, tmp_path):
        binary, side = self._saved(tmp_path, series=lambda s: s[:, :, 0])
        with pytest.raises(ValueError, match=r"d\.bin: series must be \(samples, length, features\)"):
            load_dataset(binary, side)

    def test_non_finite_value_named_by_sample_step_feature(self, tmp_path):
        def poke(series):
            series[12, 3, 2] = np.nan
            series[20, 0, 0] = np.inf
            return series

        binary, side = self._saved(tmp_path, series=poke)
        with pytest.raises(ValueError, match=r"d\.bin: series\[12, 3, 2\] is nan"):
            load_dataset(binary, side)

    def test_labels_one_per_sample(self, tmp_path):
        binary, side = self._saved(tmp_path, labels=lambda y: y[:-1])
        with pytest.raises(ValueError, match=r"d\.bin: labels has shape \(24,\), expected \(25,\)"):
            load_dataset(binary, side)

    def test_labels_zero_or_one(self, tmp_path):
        def poke(labels):
            labels[7] = 2.0
            return labels

        binary, side = self._saved(tmp_path, labels=poke)
        with pytest.raises(ValueError, match=r"d\.bin: labels\[7\] is 2\.0, expected 0 or 1"):
            load_dataset(binary, side)

    @pytest.mark.parametrize("key, value", [("samples", 26), ("length", 4), ("features", 7)])
    def test_sidecar_sizes_match_the_series(self, tmp_path, key, value):
        binary, side = self._saved(tmp_path, **{key: value})
        with pytest.raises(ValueError, match=rf"d\.json: {key} is {value}, but .*d\.bin holds series of shape"):
            load_dataset(binary, side)

    @pytest.mark.parametrize("key", ["thresholds", "truth_groups"])
    def test_sidecar_without_thresholds_or_truth_groups_is_named(self, tmp_path, key):
        binary, side = self._saved(tmp_path)
        body = json.loads(side.read_text())
        del body[key]
        side.write_text(json.dumps(body))
        with pytest.raises(ValueError, match=rf"d\.json: {key} must .*, got None"):
            load_dataset(binary, side)

    @pytest.mark.parametrize(
        "groups, problem",
        [
            ([[0, 1], [2, 3], [4, 5, 6]], r"missing \[\], repeated \[\], out of range \[6\]"),
            ([[0, 1], [1, 2, 3], [5]], r"missing \[4\], repeated \[1\], out of range \[\]"),
            ([[0, 1], [2, 3], [4, "5"]], r"truth_groups must list features by int id"),
        ],
    )
    def test_sidecar_truth_groups_must_partition_the_features(self, tmp_path, groups, problem):
        binary, side = self._saved(tmp_path, truth_groups=groups)
        with pytest.raises(ValueError, match=rf"d\.json: .*{problem}"):
            load_dataset(binary, side)

    def test_sidecar_without_truth_groups_is_taken(self, tmp_path):
        binary, side = self._saved(tmp_path, truth_groups=[])
        assert load_dataset(binary, side).truth_groups == []
