"""Named-tensor container round-trips, including cluster states of each kind."""

import numpy as np
import pytest

from featgroups.clustering import ClusterState, init_kmeanspp
from featgroups.serialization import (
    atomic_write,
    cluster_state_from_tensors,
    cluster_state_tensors,
    read_checkpoint,
    read_tensors,
    write_checkpoint,
    write_tensors,
)


class TestTensorFile:
    def test_roundtrip_preserves_values_shapes_order(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a/weight": rng.normal(size=(3, 4)),
            "b": rng.normal(size=(5,)),
            "scalar": np.array([2.5]),
            "cube": rng.normal(size=(2, 2, 2)),
        }
        path = tmp_path / "t.bin"
        write_tensors(path, tensors)
        loaded = read_tensors(path)
        assert list(loaded) == list(tensors)
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_tensors(path)

    @pytest.mark.parametrize("cut", [6, 14, 25, 80])
    def test_truncated_file_names_path_and_tensor(self, tmp_path, cut):
        # cut inside: the tensor count, the first name, the first shape, the
        # second tensor's data
        path = tmp_path / "t.bin"
        write_tensors(path, {"first": np.ones(2), "second": np.ones(3)})
        path.write_bytes(path.read_bytes()[:cut])
        expected = {6: "tensor count", 14: "tensor 0", 25: "'first'", 80: "'second'"}[cut]
        with pytest.raises(ValueError, match="file ends inside") as info:
            read_tensors(path)
        assert str(path) in str(info.value) and expected in str(info.value)

    def test_corrupt_shape_rejected_before_reading(self, tmp_path):
        # a dimension of 2**40 would ask for 8 TiB of data
        path = tmp_path / "t.bin"
        write_tensors(path, {"x": np.ones(2)})
        blob = bytearray(path.read_bytes())
        blob[17:25] = (2**40).to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="file ends inside tensor 'x'"):
            read_tensors(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensors(path, {"x": np.ones(2)})
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing bytes") as info:
            read_tensors(path)
        assert str(path) in str(info.value)

    def test_deterministic_bytes(self, tmp_path):
        tensors = {"x": np.arange(6.0).reshape(2, 3)}
        write_tensors(tmp_path / "a.bin", tensors)
        write_tensors(tmp_path / "b.bin", tensors)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_failed_write_keeps_the_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensors(path, {"x": np.ones(2)})
        old = path.read_bytes()
        # the second tensor fails to convert after the first has been written
        with pytest.raises(TypeError):
            write_tensors(path, {"y": np.zeros(4), "z": object()})
        assert path.read_bytes() == old
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_write(path) as fh:
                fh.write("partial")
                raise RuntimeError("midway")
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]


class TestClusterState:
    @pytest.mark.parametrize("cov_type", ["spherical", "diagonal", "full", "tied"])
    def test_gmm_roundtrip(self, cov_type):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(10, 3))
        state = init_kmeanspp(points, 2, np.random.default_rng(2), kind="gmm", covariance_type=cov_type)
        state.membership = np.eye(2)[rng.integers(0, 2, size=10)]
        clone = cluster_state_from_tensors(cluster_state_tensors(state))
        assert clone.kind == "gmm" and clone.covariance_type == cov_type
        np.testing.assert_array_equal(clone.centroids, state.centroids)
        np.testing.assert_array_equal(clone.covariances, state.covariances)
        np.testing.assert_array_equal(clone.weights, state.weights)
        np.testing.assert_array_equal(clone.membership, state.membership)

    def test_checkpoint_with_per_component_diagonals_rejected(self, tmp_path):
        # the (K, D) layout older checkpoints stored for a diagonal GMM
        path = tmp_path / "ckpt.bin"
        write_tensors(
            path,
            {
                "cluster/kind_code": np.array([2.0]),
                "cluster/centroids": np.zeros((2, 3)),
                "cluster/covtype_code": np.array([1.0]),
                "cluster/covariances": np.ones((2, 3)),
                "cluster/weights": np.full(2, 0.5),
            },
        )
        with pytest.raises(ValueError, match="covariances"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"cluster/kind_code": np.array([7.0])}, r"'cluster/kind_code' holds \[7.0\], expected one code of 0 \("),
            ({"cluster/kind_code": None}, r"no tensor 'cluster/kind_code'"),
            ({"cluster/covtype_code": None}, r"no tensor 'cluster/covtype_code'"),
            ({"cluster/centroids": np.zeros((1, 2, 3))}, r"'cluster/centroids' must be \(K, D\), got shape \(1, 2, 3"),
        ],
        ids=["unknown_kind", "no_kind", "no_covtype", "stacked_centroids"],
    )
    def test_malformed_cluster_tensors_name_the_file_and_tensor(self, tmp_path, change, message):
        points = np.random.default_rng(3).normal(size=(6, 3))
        state = init_kmeanspp(points, 2, np.random.default_rng(4), kind="gmm")
        tensors = {"model/w": np.ones(2), **cluster_state_tensors(state)}
        for name, value in change.items():
            if value is None:
                del tensors[name]
            else:
                tensors[name] = value
        path = tmp_path / "ckpt.bin"
        write_tensors(path, tensors)
        with pytest.raises(ValueError, match=message) as info:
            read_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "fields, kind_code, covtype_code",
        [
            (dict(kind="kmeans"), 0, None),
            (dict(kind="fuzzy", fuzzifier=2.0), 1, None),
            (dict(kind="gmm", covariance_type="spherical"), 2, 0),
            (dict(kind="gmm", covariance_type="diagonal"), 2, 1),
            (dict(kind="gmm", covariance_type="full"), 2, 2),
            (dict(kind="gmm", covariance_type="tied"), 2, 3),
        ],
        ids=["kmeans", "fuzzy", "gmm-spherical", "gmm-diagonal", "gmm-full", "gmm-tied"],
    )
    def test_on_disk_codes_are_fixed(self, fields, kind_code, covtype_code):
        # the codes are the file format: reordering the name tuples must fail here
        if fields["kind"] == "gmm":
            fields.update(covariances=np.broadcast_to(np.eye(2), (2, 2, 2)).copy(), weights=np.full(2, 0.5))
        tensors = cluster_state_tensors(ClusterState(centroids=np.zeros((2, 2)), **fields))
        np.testing.assert_array_equal(tensors["cluster/kind_code"], [kind_code])
        if covtype_code is None:
            assert "cluster/covtype_code" not in tensors
        else:
            np.testing.assert_array_equal(tensors["cluster/covtype_code"], [covtype_code])

    def test_fuzzy_roundtrip(self):
        state = ClusterState(kind="fuzzy", centroids=np.zeros((2, 2)), fuzzifier=2.5)
        clone = cluster_state_from_tensors(cluster_state_tensors(state))
        assert clone.kind == "fuzzy" and clone.fuzzifier == 2.5

    def test_checkpoint_separates_model_and_cluster(self, tmp_path):
        state = ClusterState(kind="kmeans", centroids=np.ones((2, 4)))
        model_state = {"layer/w": np.full((2, 2), 3.0)}
        write_checkpoint(tmp_path / "c.bin", model_state, state)
        loaded_model, loaded_state = read_checkpoint(tmp_path / "c.bin")
        np.testing.assert_array_equal(loaded_model["layer/w"], model_state["layer/w"])
        assert loaded_state.kind == "kmeans"
        np.testing.assert_array_equal(loaded_state.centroids, state.centroids)
