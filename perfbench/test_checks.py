"""Each correctness check accepts a real output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from featgroups import cli, clustering, metrics, synthdata, trainer  # noqa: E402
from featgroups.serialization import read_tensors, write_tensors  # noqa: E402


def blobs(seed=0, per=8, dim=4):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0] * dim, [5.0] * dim, [-5.0, 5.0] * (dim // 2)])
    return np.concatenate([c + rng.standard_normal((per, dim)) for c in centers])


def one_hot(assign, k):
    out = np.zeros((len(assign), k))
    out[np.arange(len(assign)), assign] = 1.0
    return out


class TestLloydFixedPoint:
    def converged(self):
        points = blobs()
        state = clustering.converge(points, clustering.init_kmeanspp(points, 3, np.random.default_rng(1)))
        return points, state.centroids, clustering.score_points(points, state)

    def test_accepts_converged_partition(self):
        assert checks.lloyd_fixed_point(*self.converged()) == []

    def test_rejects_centroid_moved_off_the_mean(self):
        points, centroids, member = self.converged()
        centroids = centroids.copy()
        centroids[1, 0] += 1e-3
        assert any("mean of its members" in p for p in checks.lloyd_fixed_point(points, centroids, member))

    def test_rejects_feature_in_the_wrong_cluster(self):
        points, centroids, member = self.converged()
        assign = member.argmax(axis=1)
        assign[0] = (assign[0] + 1) % 3
        problems = checks.lloyd_fixed_point(points, centroids, one_hot(assign, 3))
        assert any("nearer another centroid" in p for p in problems)


class TestGmmState:
    def fitted(self):
        points = blobs(per=10)
        state = clustering.init_kmeanspp(points, 3, np.random.default_rng(2), kind="gmm")
        state = clustering.converge(points, state)
        member = clustering.hard_membership(clustering.score_points(points, state))
        return points, state.centroids, state.covariances, state.weights, member

    def test_accepts_fitted_mixture(self):
        assert checks.gmm_state(*self.fitted()) == []

    def test_rejects_membership_off_the_argmax(self):
        points, means, covs, weights, member = self.fitted()
        assign = member.argmax(axis=1)
        assign[3] = (assign[3] + 1) % 3
        problems = checks.gmm_state(points, means, covs, weights, one_hot(assign, 3))
        assert any("most responsible" in p for p in problems)

    def test_rejects_weights_not_summing_to_one(self):
        points, means, covs, weights, member = self.fitted()
        assert checks.gmm_state(points, means, covs, weights * 1.01, member)

    def test_rejects_asymmetric_covariance(self):
        points, means, covs, weights, member = self.fitted()
        covs = covs.copy()
        covs[0, 0, 1] += 1e-3
        assert any("not symmetric" in p for p in checks.gmm_state(points, means, covs, weights, member))

    def test_rejects_indefinite_covariance(self):
        points, means, covs, weights, member = self.fitted()
        covs = covs.copy()
        covs[2] = -covs[2]
        assert any("positive definite" in p for p in checks.gmm_state(points, means, covs, weights, member))

    def test_log_density_matches_the_closed_form(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        x = np.array([[0.5, -1.0]])
        diff = x[0] - np.array([0.1, 0.2])
        want = -0.5 * (diff @ np.linalg.inv(cov) @ diff + np.log(np.linalg.det(cov)) + 2 * np.log(2 * np.pi))
        assert checks.gaussian_log_density(x, np.array([0.1, 0.2]), cov)[0] == pytest.approx(want, rel=1e-12)


class TestLosses:
    def test_rejects_a_non_finite_loss(self):
        record = trainer.EpochRecord(0, float("nan"), 0.0, 0.5, [], [], None, None, None)
        assert checks.finite_losses([record])

    def test_rejects_a_loss_worse_than_the_prior(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(1000) < 0.25).astype(float)
        train, val = checks.validation_labels(labels, seed=4, val_fraction=0.1)
        loss, stderr = checks.prior_loss(train, val)
        assert checks.no_worse_than_prior(loss + 0.5 * stderr, train, val) == []
        assert checks.no_worse_than_prior(loss - 3.0 * stderr, train, val) == []
        assert checks.no_worse_than_prior(loss + 1.5 * stderr, train, val)

    def test_prior_loss_is_the_constant_predictors(self):
        train = np.array([1.0, 0.0, 0.0, 0.0])
        val = np.array([1.0, 0.0])
        per_sample = np.array([-np.log(0.25), -np.log(0.75)])
        assert checks.prior_loss(train, val) == pytest.approx((per_sample.mean(), per_sample.std() / np.sqrt(2)))

    def test_split_rule_is_the_trainers(self):
        labels = np.arange(50)
        train, val = checks.validation_labels(labels, seed=7, val_fraction=0.2)
        train_idx, val_idx = trainer._split_indices(50, 0.2, np.random.default_rng([7, 3]))
        assert np.array_equal(train, train_idx) and np.array_equal(val, val_idx)


def test_pair_counting_ari_agrees_with_the_contingency_formula():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.integers(0, 3, size=6), rng.integers(0, 4, size=6)
        assert checks.pair_counting_ari(a, b) == pytest.approx(metrics.ari(a, b), abs=1e-12)


# ----------------------------------------------------------------------
# the `benchmark` command's outputs
# ----------------------------------------------------------------------

SEEDS = [0, 1]


@pytest.fixture(scope="module")
def table_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("table")
    config = out / "config.json"
    config.write_text(json.dumps({"dataset": {"samples": 60, "length": 5}, "train": {"epochs": 1}}))
    argv = ["benchmark", "--config", str(config), "--out", str(out / "run"), "--seeds", "0,1"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return out / "run"


@pytest.fixture
def table(table_run, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(table_run, copy)
    return copy


def outputs_problems(out):
    truth = np.array([0, 0, 1, 1, 2, 2])
    return checks.benchmark_outputs(out, truth, SEEDS, 3, cli.BENCHMARK_VARIANTS)


def edit_row(out, variant, column, value):
    path = out / "benchmark.csv"
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == variant:
            cells[header.index(column)] = value
            lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class TestBenchmarkOutputs:
    def test_accepts_the_commands_output(self, table):
        assert outputs_problems(table) == []

    def test_rejects_a_perturbed_random_ari(self, table):
        row = checks.read_table(table / "benchmark.csv")["random"]
        edit_row(table, "random", "ari_mean", f"{float(row['ari_mean']) + 1e-5:.6f}")
        assert any("random ari_mean" in p for p in outputs_problems(table))

    def test_rejects_a_random_cell_with_another_ari(self, table):
        path = table / "random" / "seed_1" / "results.json"
        results = json.loads(path.read_text())
        results["metrics"]["ari"] += 1e-9
        path.write_text(json.dumps(results))
        assert any("pair count" in p for p in outputs_problems(table))

    def test_rejects_an_inexact_oracle(self, table):
        edit_row(table, "oracle", "nmi_mean", "0.999999")
        assert any("oracle nmi_mean" in p for p in outputs_problems(table))

    def test_rejects_a_failed_row(self, table):
        edit_row(table, "static_flat", "status", "FAILED")
        assert any("row static_flat" in p for p in outputs_problems(table))

    def test_rejects_a_cell_error(self, table):
        path = table / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["runs"][3]["error"] = "ValueError: boom"
        path.write_text(json.dumps(manifest))
        assert any("boom" in p for p in outputs_problems(table))


class TestCheckpoint:
    def dataset(self, out):
        return synthdata.load_dataset(out / "dataset.bin", out / "dataset.json")

    @pytest.mark.parametrize("variant", ["random", "oracle", "dynamic"])
    def test_accepts_every_trained_cell(self, table, variant):
        for seed in SEEDS:
            assert checks.checkpoint_reproduces(table / variant / f"seed_{seed}", self.dataset(table)) == []

    def test_rejects_an_altered_tensor(self, table):
        path = table / "dynamic" / "seed_0" / "checkpoint.bin"
        tensors = read_tensors(path)
        tensors["model/seq/out_b"] = tensors["model/seq/out_b"] + 1e-6
        write_tensors(path, tensors)
        problems = checks.checkpoint_reproduces(path.parent, self.dataset(table))
        assert any("val_loss" in p for p in problems)
