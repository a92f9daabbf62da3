"""End-to-end command checks on a miniature corpus: artifact layout, schema
headers, determinism, exit codes, and the history conversion."""

import json
from pathlib import Path

import numpy as np
import pytest

from featgroups import cli
from featgroups.cli import main
from featgroups.model import GroupedStepwiseModel, ModelConfig
from featgroups.serialization import read_checkpoint
from featgroups.synthdata import GpSpec, generate_dataset, load_dataset, save_dataset
from featgroups.trainer import ExperimentConfig, evaluate


TINY = {
    "schema": "featgroups-config-v1",
    "dataset": {"samples": 60, "length": 5, "seed": 0},
    "train": {
        "epochs": 3,
        "batch_size": 30,
        "hidden": 3,
        "seq_width": 4,
        "lr": 0.01,
    },
}


def write_config(tmp_path, body=None) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body if body is not None else TINY))
    return str(path)


def run(args):
    return main(args)


class TestGenerate:
    def test_writes_dataset_files(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert run(["generate", "--config", config, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "dataset.bin").exists()
        sidecar = json.loads((tmp_path / "out" / "dataset.json").read_text())
        assert sidecar["schema"] == "featgroups-dataset-v1"
        assert sidecar["samples"] == 60

    def test_same_seed_twice_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        for sub in ("a", "b"):
            assert run(["generate", "--config", config, "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "a" / "dataset.bin").read_bytes() == (tmp_path / "b" / "dataset.bin").read_bytes()
        assert (tmp_path / "a" / "dataset.json").read_bytes() == (tmp_path / "b" / "dataset.json").read_bytes()

    def test_csv_flag(self, tmp_path):
        config = write_config(tmp_path)
        assert run(["generate", "--config", config, "--out", str(tmp_path / "o"), "--csv"]) == 0
        assert (tmp_path / "o" / "dataset.csv").exists()

    def test_unknown_field_exits_2_naming_it(self, tmp_path, capsys):
        body = {"schema": "featgroups-config-v1", "dataset": {"nsamples": 10}}
        config = write_config(tmp_path, body)
        assert run(["generate", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "nsamples" in capsys.readouterr().err

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "o"
        assert run(["generate", "--config", config, "--out", str(out), "--override", "dataset.seed=-1"]) == 2
        assert "dataset config invalid: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (out / "dataset.bin").exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ("dataset.samples=0", "samples must be >= 1, got 0"),
            ('dataset.samples="5"', "samples must be of type int, got '5'"),
            ("dataset.samples=true", "samples must be of type int, got True"),
            ("dataset.length=0", "length must be >= 1, got 0"),
            ("dataset.features=6.0", "features must be of type int, got 6.0"),
        ],
    )
    def test_bad_size_exits_2_naming_it(self, tmp_path, capsys, override, message):
        out = tmp_path / "o"
        assert run(["generate", "--config", write_config(tmp_path), "--out", str(out), "--override", override]) == 2
        assert f"dataset config invalid: {message}" in capsys.readouterr().err
        assert not (out / "dataset.bin").exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ("dataset.length_scales=5", "length_scales must be a list of numbers, got 5"),
            (
                'dataset.length_scales=[1,2,4,8,1,"a"]',
                "length_scales must be a list of numbers, got [1, 2, 4, 8, 1, 'a']",
            ),
            ('dataset.amplitudes="0.5"', "amplitudes must be a list of numbers, got '0.5'"),
            ("dataset.amplitudes=[0.5,1,3.5,0.5,0.5,true]", "amplitudes must be a list of numbers"),
        ],
    )
    def test_bad_scales_exit_2_naming_them(self, tmp_path, capsys, override, message):
        out = tmp_path / "o"
        assert run(["generate", "--config", write_config(tmp_path), "--out", str(out), "--override", override]) == 2
        assert f"dataset config invalid: {message}" in capsys.readouterr().err
        assert not (out / "dataset.bin").exists()

    def test_non_string_output_dir_exits_2_naming_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.OUTPUT_ROOT_ENV, raising=False)
        assert run(["generate", "--config", write_config(tmp_path), "--override", "output_dir=null"]) == 2
        assert "output_dir must be a string, got None" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_malformed_json_exits_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "train": {,}\n}')
        assert run(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_invalid_value_exits_2_naming_field(self, tmp_path, capsys):
        body = dict(TINY, train=dict(TINY["train"], reg_weight=2.0))
        config = write_config(tmp_path, body)
        assert run(["generate", "--config", config, "--out", str(tmp_path / "o")]) == 0
        # the dataset section parses, but training commands validate reg_weight
        assert run(["train", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "reg_weight" in capsys.readouterr().err


class TestConfigSources:
    """The config file and each `--override` merge by one rule; a bad one
    exits 2 naming the file or the override, before any output."""

    @pytest.mark.parametrize(
        "text",
        [
            None,
            "[1, 2]",
            '{"schema": "featgroups-config-v2"}',
            '{"dataset": [1]}',
            '{"train": 5}',
            '{"dataset": {}, "outputdir": "runs"}',
        ],
        ids=["missing", "not_an_object", "schema", "dataset_section", "train_section", "top_level_field"],
    )
    def test_bad_file_exits_2_naming_it(self, tmp_path, capsys, text):
        path = tmp_path / "bad_config.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "o"
        assert run(["generate", "--config", str(path), "--out", str(out)]) == 2
        assert "bad_config.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "item, name",
        [
            ("seed", "seed"),
            ("bogus=1", "bogus"),
            ("train.bogus=1", "train.bogus"),
            ("dataset.bogus=1", "dataset.bogus"),
            ("train.seed.x=1", "train.seed.x"),
            ("output_dir.x=1", "output_dir.x"),
            ("schema.x=1", "schema.x"),
            ("schema=1", "schema"),
        ],
    )
    def test_bad_override_exits_2_naming_it(self, tmp_path, capsys, item, name):
        out = tmp_path / "o"
        assert run(["generate", "--config", write_config(tmp_path), "--out", str(out), "--override", item]) == 2
        assert f"override '{name}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "environment", "override", "config"])
    def test_output_dir_resolution(self, tmp_path, monkeypatch, source):
        # --out, else FEATGROUPS_OUT, else the config's output_dir
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.OUTPUT_ROOT_ENV, raising=False)
        config = write_config(tmp_path, dict(TINY, output_dir="from_config"))
        argv = ["generate", "--config", config]
        if source == "flag":
            argv += ["--out", "from_flag"]
        if source in ("flag", "environment"):
            monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, "from_environment")
        if source == "override":
            argv += ["--override", "output_dir=from_override"]
        assert run(argv) == 0
        written = sorted(path.parent.name for path in tmp_path.glob("*/dataset.bin"))
        assert written == [f"from_{source}"]


class TestTrain:
    def _generate(self, tmp_path, config):
        assert run(["generate", "--config", config, "--out", str(tmp_path / "run")]) == 0
        return str(tmp_path / "run")

    def test_requires_dataset(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert run(["train", "--config", config, "--out", str(tmp_path / "empty")]) == 2
        assert "generate" in capsys.readouterr().err

    def test_writes_results_history_checkpoint(self, tmp_path):
        config = write_config(tmp_path)
        out = self._generate(tmp_path, config)
        assert run(["train", "--config", config, "--out", out]) == 0
        results = json.loads(Path(out, "results.json").read_text())
        assert results["schema"] == "featgroups-results-v1"
        assert results["status"] == "ok"
        history = Path(out, "history.jsonl").read_text().strip().splitlines()
        assert len(history) == results["epochs_ran"]
        assert all(json.loads(line)["schema"] == "featgroups-history-v1" for line in history)
        model_state, cluster_state = read_checkpoint(Path(out, "checkpoint.bin"))
        assert "feature/0/weight" in model_state
        assert cluster_state.membership is not None

    def test_override_changes_only_seed(self, tmp_path):
        config = write_config(tmp_path)
        out_a = self._generate(tmp_path, config)
        assert run(["train", "--config", config, "--out", out_a]) == 0
        base = json.loads(Path(out_a, "results.json").read_text())["config"]
        out_b = str(tmp_path / "runb")
        assert run(["generate", "--config", config, "--out", out_b]) == 0
        assert run(["train", "--config", config, "--out", out_b, "--override", "seed=3"]) == 0
        override = json.loads(Path(out_b, "results.json").read_text())["config"]
        assert override["seed"] == 3
        assert {k: v for k, v in base.items() if k != "seed"} == {
            k: v for k, v in override.items() if k != "seed"
        }

    def test_rerun_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out = self._generate(tmp_path, config)
        assert run(["train", "--config", config, "--out", out]) == 0
        first = {
            name: Path(out, name).read_bytes()
            for name in ("results.json", "history.jsonl", "checkpoint.bin")
        }
        assert run(["train", "--config", config, "--out", out]) == 0
        for name, blob in first.items():
            assert Path(out, name).read_bytes() == blob, name

    @pytest.mark.parametrize(
        "extra", [{}, {"algorithm": "gmm", "covariance_type": "diagonal"}], ids=["default", "gmm_diagonal"]
    )
    def test_checkpoint_reevaluates_to_the_results(self, tmp_path, extra):
        # the criterion-9 run; a GMM re-scores with the covariances read back
        body = {
            "schema": "featgroups-config-v1",
            "dataset": {"samples": 70, "length": 5, "seed": 1},
            "train": {"epochs": 3, "batch_size": 35, "hidden": 3, "seq_width": 4, **extra},
        }
        config = write_config(tmp_path, body)
        out = self._generate(tmp_path, config)
        assert run(["train", "--config", config, "--out", out]) == 0
        results = json.loads(Path(out, "results.json").read_text())
        exp = ExperimentConfig.from_dict(results["config"])
        dataset = load_dataset(Path(out, "dataset.bin"), Path(out, "dataset.json"))
        model_state, cluster_state = read_checkpoint(Path(out, "checkpoint.bin"))
        model = GroupedStepwiseModel(
            ModelConfig(
                feature_cards=[1] * dataset.series.shape[2],
                hidden=exp.hidden,
                groups=exp.groups,
                agg_mode=exp.agg_mode,
                psi=exp.psi,
                seq_width=exp.seq_width,
                seq_heads=exp.seq_heads,
                positional_encoding=exp.positional_encoding,
                feature_init=exp.feature_init,
            ),
            np.random.default_rng(0),
        )
        model.load_state_dict(model_state)
        metrics = evaluate(
            model,
            cluster_state,
            cluster_state.membership,
            dataset,
            exp,
            model_state["input_norm/mean"],
            model_state["input_norm/std"],
        )
        assert cluster_state.kind == exp.algorithm
        assert metrics.pop("partition") == results["partition"]
        assert metrics == results["metrics"]

    def test_stale_dataset_exits_2_naming_the_field(self, tmp_path, capsys):
        out = self._generate(tmp_path, write_config(tmp_path))
        (tmp_path / "longer").mkdir()
        stale = write_config(tmp_path / "longer", dict(TINY, dataset=dict(TINY["dataset"], length=6)))
        assert run(["train", "--config", stale, "--out", out]) == 2
        assert "generated with length 5, the config asks for 6" in capsys.readouterr().err
        assert not Path(out, "results.json").exists()

    def test_dataset_without_generator_settings_is_taken_as_it_is(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        dataset = generate_dataset(GpSpec(samples=60, length=5, seed=7))
        dataset.spec = None
        save_dataset(dataset, out / "dataset.bin", out / "dataset.json")
        assert run(["train", "--config", write_config(tmp_path), "--out", str(out)]) == 0

    @pytest.mark.parametrize("text", ["not json", "[1, 2]"])
    def test_sidecar_that_is_not_a_json_object_exits_1_naming_it(self, tmp_path, capsys, text):
        config = write_config(tmp_path)
        out = self._generate(tmp_path, config)
        Path(out, "dataset.json").write_text(text)
        assert run(["train", "--config", config, "--out", out]) == 1
        assert "dataset.json" in capsys.readouterr().err
        assert not Path(out, "results.json").exists()

    def test_seed_sweep(self, tmp_path):
        config = write_config(tmp_path)
        out = self._generate(tmp_path, config)
        assert run(["train", "--config", config, "--out", out, "--seeds", "0,1"]) == 0
        assert (Path(out) / "seed_0" / "results.json").exists()
        assert (Path(out) / "seed_1" / "results.json").exists()

    @pytest.mark.parametrize(
        "override, field", [("membership=sofft", "membership"), ("combine_mode=bias_avg_linear", "combine_mode")]
    )
    def test_unknown_enumerated_value_exits_2_naming_field(self, tmp_path, capsys, override, field):
        config = write_config(tmp_path)
        out = self._generate(tmp_path, config)
        assert run(["train", "--config", config, "--out", out, "--override", override]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (["batch_size=0"], "batch_size"),
            (["epochs=0"], "epochs"),
            (["groups=0"], "groups"),
            (["lr=-1"], "lr"),
            (["patience=-1"], "patience"),
            (["algorithm=fuzzy", "fuzzifier=1.0"], "fuzzifier"),
            (["hidden=0"], "hidden"),
            (["seq_width=0"], "seq_width"),
            (["seq_heads=0"], "seq_heads"),
            (["seq_width=5"], "seq_heads"),
            (["groups=7"], "groups 7 exceeds the dataset's 6 features"),
            (["seed=-1"], "train config invalid: seed must be >= 0, got -1"),
            (['batch_size="5"'], "batch_size must be of type int, got '5'"),
            (['seed="x"'], "train config invalid: seed must be of type int, got 'x'"),
            (
                ["grouping=fixed", "fixed_groups=[0,1,2]"],
                "fixed_groups must list one group id for each of the dataset's 6 features, got [0, 1, 2]",
            ),
            (
                ["grouping=fixed", 'fixed_groups=[0,1,2,0,1,"a"]'],
                "fixed_groups must be a list of ints in [0, 3), got [0, 1, 2, 0, 1, 'a']",
            ),
            (
                ["grouping=fixed", "fixed_groups=[0,1,2,0,1,5]"],
                "fixed_groups must be a list of ints in [0, 3), got [0, 1, 2, 0, 1, 5]",
            ),
            (
                ["init=prior", "prior_groups=[0,1]"],
                "prior_groups must use every group id in [0, 3), got [0, 1]",
            ),
            (
                ["init=prior", "prior_groups=[0,0,1,1,0,1]"],
                "prior_groups must use every group id in [0, 3), got [0, 0, 1, 1, 0, 1]",
            ),
            (
                ["init=prior", "prior_groups=[0,0,1,1,2,true]"],
                "prior_groups must be a list of ints in [0, 3), got [0, 0, 1, 1, 2, True]",
            ),
            (
                ["init=prior", "prior_groups=[0,1,2,0,1,2,0]"],
                "prior_groups must list one group id for each of the dataset's 6 features",
            ),
            (
                ['positional_encoding="false"'],
                "train config invalid: positional_encoding must be of type bool, got 'false'",
            ),
            (["standardize=0"], "train config invalid: standardize must be of type bool, got 0"),
        ],
    )
    def test_out_of_range_value_exits_2_naming_field(self, tmp_path, capsys, overrides, field):
        config = write_config(tmp_path)
        out = self._generate(tmp_path, config)
        argv = ["train", "--config", config, "--out", out]
        for item in overrides:
            argv += ["--override", item]
        assert run(argv) == 2
        assert field in capsys.readouterr().err
        assert not (Path(out) / "results.json").exists()

    def test_fixed_grouping_may_ask_for_more_groups_than_features(self, tmp_path):
        config = write_config(tmp_path)
        out = self._generate(tmp_path, config)
        argv = ["train", "--config", config, "--out", out, "--override", "groups=7"]
        argv += ["--override", "grouping=fixed", "--override", "fixed_groups=[0,1,2,3,4,6]"]
        assert run(argv) == 0
        assert (Path(out) / "results.json").exists()

    def test_diverged_run_exits_1_with_its_diagnostic(self, tmp_path, capsys, monkeypatch):
        info = {"epoch": 2, "step": 5, "train_loss": float("inf"), "reg_loss": 0.0}

        def diverging_train(exp, dataset):
            raise cli.TrainingDiverged("non-finite loss at epoch 2 step 5", info)

        config = write_config(tmp_path)
        out = self._generate(tmp_path, config)
        monkeypatch.setattr(cli, "train", diverging_train)
        assert run(["train", "--config", config, "--out", out]) == 1
        results = json.loads((Path(out) / "results.json").read_text())
        assert results["status"] == "diverged"
        assert results["seed"] == 0
        assert results["divergence"] == info
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "non-finite loss at epoch 2 step 5", "info": info}
        assert not (Path(out) / "checkpoint.bin").exists()

    def test_bad_seeds_flag(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = self._generate(tmp_path, config)
        assert run(["train", "--config", config, "--out", out, "--seeds", "a,b"]) == 2

    @pytest.mark.parametrize("seeds", [",", " ", "1,0,1", "0,-1"])
    def test_seeds_listing_no_seed_or_a_repeat_exit_2(self, tmp_path, capsys, seeds):
        config = write_config(tmp_path)
        out = self._generate(tmp_path, config)
        assert run(["train", "--config", config, "--out", out, "--seeds", seeds]) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not any(Path(out).glob("seed_*"))


def fail_static_baselines(monkeypatch):
    """Make every static-baseline cell of a benchmark fail."""

    def static_kmeans_baseline(*args):
        raise ValueError("static baseline failed")

    monkeypatch.setattr(cli, "static_kmeans_baseline", static_kmeans_baseline)


class TestBenchmark:
    @pytest.mark.parametrize("seeds", [",", "0,0"])
    def test_seeds_listing_no_seed_or_a_repeat_exit_2(self, tmp_path, capsys, seeds):
        out = tmp_path / "bench"
        assert run(["benchmark", "--config", write_config(tmp_path), "--out", str(out), "--seeds", seeds]) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not (out / "benchmark.csv").exists()

    def test_table_layout_and_oracle_row(self, tmp_path):
        config = write_config(tmp_path)
        out = str(tmp_path / "bench")
        assert run(["benchmark", "--config", config, "--out", out, "--seeds", "0,1"]) == 0
        lines = Path(out, "benchmark.csv").read_text().strip().splitlines()
        assert lines[0] == "# schema: featgroups-benchmark-v1"
        header = lines[1].split(",")
        assert header[:2] == ["variant", "seeds"]
        rows = {line.split(",")[0]: line.split(",") for line in lines[2:]}
        assert set(rows) == {
            "random",
            "oracle",
            "static_flat",
            "static_time_mean",
            "static_sample_mean",
            "static_full_mean",
            "dynamic",
        }
        oracle = rows["oracle"]
        assert float(oracle[2]) == pytest.approx(1.0)  # ari mean
        assert float(oracle[3]) == pytest.approx(0.0)  # ari std
        assert float(oracle[4]) == pytest.approx(1.0)  # nmi mean
        # silhouette is reported for every non-failed row
        for name, row in rows.items():
            assert row[-1] == "OK", name
            assert row[6] != "", name
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["seeds"] == [0, 1]
        assert all("wall_seconds" in run_info for run_info in manifest["runs"])

    def test_fewer_groups_than_truth_groups_keeps_the_oracle_row(self, tmp_path):
        # the oracle cell trains the 3 truth groups whatever K the others use
        out = tmp_path / "bench"
        argv = ["benchmark", "--config", write_config(tmp_path), "--out", str(out), "--seeds", "0"]
        assert run(argv + ["--override", "groups=2"]) == 0
        rows = {line.split(",")[0]: line.split(",") for line in (out / "benchmark.csv").read_text().splitlines()[2:]}
        assert all(row[-1] == "OK" for row in rows.values()), rows
        assert float(rows["oracle"][2]) == pytest.approx(1.0)

    def test_bad_field_exits_2_before_any_cell(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "bench"
        argv = ["benchmark", "--config", config, "--out", str(out), "--seeds", "0", "--override", "psi=foo"]
        assert run(argv) == 2
        assert "psi" in capsys.readouterr().err
        assert not (out / "benchmark.csv").exists()
        assert not (out / "dataset.bin").exists()

    def test_more_groups_than_features_exits_2_before_any_cell(self, tmp_path, capsys):
        out = tmp_path / "bench"
        argv = ["benchmark", "--config", write_config(tmp_path), "--out", str(out), "--seeds", "0"]
        assert run(argv + ["--override", "groups=7"]) == 2
        assert "groups 7 exceeds the dataset's 6 features" in capsys.readouterr().err
        assert not (out / "benchmark.csv").exists()
        assert not any(out.glob("*/seed_0"))

    def test_more_groups_than_truth_groups_exits_2_before_any_cell(self, tmp_path, capsys):
        out = tmp_path / "bench"
        argv = ["benchmark", "--config", write_config(tmp_path), "--out", str(out), "--seeds", "0"]
        assert run(argv + ["--override", "groups=4"]) == 2
        assert "groups 4 exceeds the dataset's 3 ground-truth groups" in capsys.readouterr().err
        assert not (out / "benchmark.csv").exists()
        assert not any(out.glob("*/seed_0"))

    def test_prior_groups_of_another_length_exit_2_before_any_cell(self, tmp_path, capsys):
        out = tmp_path / "bench"
        argv = ["benchmark", "--config", write_config(tmp_path), "--out", str(out), "--seeds", "0"]
        assert run(argv + ["--override", "init=prior", "--override", "prior_groups=[0,1,2]"]) == 2
        assert "prior_groups must list one group id for each of the dataset's 6 features" in capsys.readouterr().err
        assert not (out / "benchmark.csv").exists()
        assert not any(out.glob("*/seed_0"))

    def test_prior_groups_the_dynamic_cells_read_exit_2_before_any_cell(self, tmp_path, capsys):
        # a fixed grouping of its own does not exempt the prior the dynamic cells start from
        out = tmp_path / "bench"
        argv = ["benchmark", "--config", write_config(tmp_path), "--out", str(out), "--seeds", "0"]
        for item in ("grouping=fixed", "fixed_groups=[0,0,1,1,2,2]", "init=prior", 'prior_groups=[0,0,1,1,2,"a"]'):
            argv += ["--override", item]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "train config invalid: prior_groups must be a list of ints in [0, 3), got [0, 0, 1, 1, 2, 'a']" in err
        assert not (out / "benchmark.csv").exists()
        assert not any(out.glob("*/seed_0"))

    def test_negative_seed_exits_2_before_any_cell(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run(["benchmark", "--config", write_config(tmp_path), "--out", str(out), "--seeds", "-1"]) == 2
        assert "--seeds must list at least one non-negative seed, each once, got '-1'" in capsys.readouterr().err
        assert not (out / "benchmark.csv").exists()
        assert not (out / "dataset.bin").exists()

    def test_stale_dataset_exits_2_before_any_cell(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run(["generate", "--config", write_config(tmp_path), "--out", str(out)]) == 0
        (tmp_path / "seed1").mkdir()
        stale = write_config(tmp_path / "seed1", dict(TINY, dataset=dict(TINY["dataset"], seed=1)))
        assert run(["benchmark", "--config", stale, "--out", str(out), "--seeds", "0"]) == 2
        err = capsys.readouterr().err
        assert "dataset.json is stale: it was generated with seed 0, the config asks for 1" in err
        assert not (out / "benchmark.csv").exists()

    def test_config_hash_ignores_where_the_outputs_go(self, tmp_path, monkeypatch):
        # output_dir from the file, an override, --out or FEATGROUPS_OUT: one experiment, one hash
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.OUTPUT_ROOT_ENV, raising=False)
        hashes = set()
        for source in ("config", "override", "flag", "environment"):
            body = dict(TINY, output_dir="from_config") if source == "config" else TINY
            argv = ["benchmark", "--config", write_config(tmp_path, body), "--seeds", "0"]
            if source == "override":
                argv += ["--override", "output_dir=from_override"]
            if source == "flag":
                argv += ["--out", "from_flag"]
            if source == "environment":
                monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, "from_environment")
            assert run(argv) == 0
            hashes.add(json.loads((tmp_path / f"from_{source}" / "manifest.json").read_text())["config_hash"])
        assert len(hashes) == 1

    def test_config_hash_changes_with_every_dataset_and_train_field(self):
        base = cli.default_config()
        digest = cli.config_hash(base)
        for section in ("dataset", "train"):
            for field in base[section]:
                changed = json.loads(json.dumps(base))
                changed[section][field] = "changed"
                assert cli.config_hash(changed) != digest, f"{section}.{field}"

    def test_partial_failure_marks_row_failed(self, tmp_path, monkeypatch):
        fail_static_baselines(monkeypatch)
        config = write_config(tmp_path)
        out = str(tmp_path / "bench")
        # the static baselines fail; trained rows proceed
        assert run(["benchmark", "--config", config, "--out", out, "--seeds", "0"]) == 0
        lines = Path(out, "benchmark.csv").read_text().strip().splitlines()
        rows = {line.split(",")[0]: line.split(",") for line in lines[2:]}
        assert rows["static_flat"][-1] == "FAILED"
        assert rows["dynamic"][-1] == "OK"

    def test_manifest_traces_the_dataset_and_each_failed_cell(self, tmp_path, monkeypatch):
        fail_static_baselines(monkeypatch)
        out = tmp_path / "bench"
        assert run(["benchmark", "--config", write_config(tmp_path), "--out", str(out), "--seeds", "0"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset"] == {
            "features": 6,
            "length": 5,
            "samples": 60,
            "length_scales": [1.0, 2.0, 4.0, 8.0, 1.0, 2.0],
            "amplitudes": [0.5, 1.0, 3.5, 0.5, 0.5, 0.5],
            "seed": 0,
        }
        failed = {run_info["variant"]: run_info for run_info in manifest["runs"] if run_info["error"]}
        assert set(failed) == {"static_flat", "static_time_mean", "static_sample_mean", "static_full_mean"}
        for variant, run_info in failed.items():
            error = out / variant / "seed_0" / "error.txt"
            assert run_info["out"] == str(error.parent)
            text = error.read_text()
            assert text.startswith("Traceback (most recent call last):")
            assert "static_kmeans_baseline" in text
            assert text.rstrip().endswith(run_info["error"])
        assert not (out / "dynamic" / "seed_0" / "error.txt").exists()
        # a later run in which the cells pass leaves no stale traceback
        monkeypatch.undo()
        assert run(["benchmark", "--config", write_config(tmp_path), "--out", str(out), "--seeds", "0"]) == 0
        assert not list(out.glob("*/seed_0/error.txt"))


class TestHistory:
    def _history_file(self, tmp_path, memberships):
        path = tmp_path / "history.jsonl"
        with open(path, "w") as fh:
            for epoch, member in enumerate(memberships):
                record = {
                    "schema": "featgroups-history-v1",
                    "epoch": epoch,
                    "membership": member,
                }
                fh.write(json.dumps(record) + "\n")
        return path

    def test_flow_row_count_epochs_times_features(self, tmp_path):
        member = [[1, 0], [1, 0], [0, 1]]
        path = self._history_file(tmp_path, [member] * 4)
        assert run(["history", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "cluster_flow.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 4 * 3
        assert lines[0] == "# schema: featgroups-clusterflow-v1"

    def test_constant_membership_single_pair_per_feature(self, tmp_path):
        member = [[1, 0], [0, 1], [1, 0]]
        path = self._history_file(tmp_path, [member] * 5)
        assert run(["history", str(path), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "cluster_flow.csv").read_text().strip().splitlines()[2:]
        pairs = {(r.split(",")[1], r.split(",")[2]) for r in rows}
        assert len(pairs) == 3

    def test_collapse_shows_single_nonempty_cluster(self, tmp_path):
        spread = [[1, 0], [0, 1], [1, 0]]
        collapsed = [[1, 0], [1, 0], [1, 0]]
        path = self._history_file(tmp_path, [spread, collapsed])
        assert run(["history", str(path), "--out", str(tmp_path)]) == 0
        sizes = (tmp_path / "cluster_sizes.csv").read_text().strip().splitlines()[2:]
        final = [row.split(",") for row in sizes if row.split(",")[0] == "1"]
        nonempty = [row for row in final if int(row[2]) > 0]
        assert len(nonempty) == 1 and nonempty[0][2] == "3"

    def test_malformed_line_exits_2_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        path.write_text('{"schema": "featgroups-history-v1", "epoch": 0, "membership": [[1]]}\nnot json\n')
        assert run(["history", str(path), "--out", str(tmp_path)]) == 2
        assert ":2:" in capsys.readouterr().err
        # a membership that is not a (features, clusters) matrix
        for member in ([1, 0], 5, [[]]):
            record = {"schema": "featgroups-history-v1", "epoch": 1, "membership": member}
            path.write_text('{"epoch": 0, "membership": [[1]]}\n' + json.dumps(record) + "\n")
            assert run(["history", str(path), "--out", str(tmp_path)]) == 2
            assert "history.jsonl:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("epoch", ["x", None, True, -1, 1.5])
    def test_epoch_not_a_non_negative_int_exits_2_with_line_number(self, tmp_path, capsys, epoch):
        path = tmp_path / "history.jsonl"
        record = json.dumps({"epoch": epoch, "membership": [[1]]})
        path.write_text('{"epoch": 0, "membership": [[1]]}\n' + record + "\n")
        out = tmp_path / "csv"
        assert run(["history", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "history.jsonl:2:" in err and "epoch" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "member",
        [[[0, 0], [1, 0]], [[3, -1], [1, 0]], [[0.5, 0.5]]],
        ids=["feature_in_no_cluster", "entries_out_of_range", "fractional_entries"],
    )
    def test_membership_not_a_0_1_matrix_covering_every_feature_exits_2(self, tmp_path, capsys, member):
        path = tmp_path / "history.jsonl"
        record = json.dumps({"epoch": 1, "membership": member})
        path.write_text('{"epoch": 0, "membership": [[1]]}\n' + record + "\n")
        out = tmp_path / "csv"
        assert run(["history", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "history.jsonl:2:" in err and "membership" in err
        assert not out.exists()

    def test_membership_shape_differing_from_the_first_record_exits_2(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        record = json.dumps({"epoch": 1, "membership": [[1, 0], [0, 1], [1, 0]]})
        path.write_text('{"epoch": 0, "membership": [[1]]}\n' + record + "\n")
        out = tmp_path / "csv"
        assert run(["history", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "history.jsonl:2:" in err and "membership" in err
        assert "(3, 2)" in err and "(1, 1)" in err
        assert not out.exists()

    @pytest.mark.parametrize("epochs", [[0, 1, 1], [0, 2, 1]], ids=["repeated", "falling"])
    def test_epoch_not_above_the_previous_exits_2_with_line_number(self, tmp_path, capsys, epochs):
        path = tmp_path / "history.jsonl"
        path.write_text("".join(json.dumps({"epoch": e, "membership": [[1]]}) + "\n" for e in epochs))
        out = tmp_path / "csv"
        assert run(["history", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "history.jsonl:3:" in err and "epoch" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_file_without_records_exits_2_naming_it(self, tmp_path, capsys, text):
        path = tmp_path / "history.jsonl"
        path.write_text(text)
        out = tmp_path / "csv"
        assert run(["history", str(path), "--out", str(out)]) == 2
        assert "history.jsonl" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run(["history", str(tmp_path / "nope.jsonl")]) == 2


def test_readme_config_block_is_the_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block)
    config = cli.load_config(str(path), [])
    assert cli.gp_spec(config) == GpSpec()
    assert cli.experiment_config(config) == ExperimentConfig()
