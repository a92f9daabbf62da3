"""Flat named-tensor files for checkpoints and datasets.

Binary layout (all integers and floats little-endian):

    magic   4 bytes  b"FGT1"
    count   uint32
    per tensor, in order:
        name_len  uint32
        name      utf-8 bytes
        ndim      uint32
        shape     ndim x uint64
        data      float64 x prod(shape), C order

Checkpoints store model parameters under ``model/<name>`` and the clustering
state under ``cluster/<field>``; non-numeric state fields (algorithm kind,
covariance type) travel as single-element code tensors, each code the name's
index in ``clustering.ALGORITHMS`` or ``clustering.COVARIANCE_TYPES``. A GMM's
``cluster/covariances`` is (K, D, D) for every covariance type.

Every artifact is written through :func:`atomic_write`, so a reader sees the
old file or the new one, never half of one.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .clustering import ALGORITHMS, COVARIANCE_TYPES, ClusterState

MAGIC = b"FGT1"


@contextmanager
def atomic_write(path, mode: str = "w", **open_args):
    """Open a temporary file beside ``path`` for writing. A clean exit
    replaces ``path`` with it in one step; an exception removes it and leaves
    ``path`` as it was."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, mode, **open_args) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def write_tensors(path, tensors: dict[str, np.ndarray]):
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(tensors)))
        for name, array in tensors.items():
            array = np.ascontiguousarray(array, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", array.ndim))
            for dim in array.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(array.tobytes(order="C"))


def _read_exactly(fh, size: int, end: int, path: Path, what: str) -> bytes:
    # checked against the file size before reading, so that a corrupt length
    # fails here instead of allocating its size
    if fh.tell() + size > end:
        raise ValueError(f"{path}: file ends inside {what} ({end - fh.tell()} of {size} bytes left)")
    return fh.read(size)


def read_tensors(path) -> dict[str, np.ndarray]:
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path}: not a named-tensor file (bad magic)")
        end = os.fstat(fh.fileno()).st_size
        (count,) = struct.unpack("<I", _read_exactly(fh, 4, end, path, "the tensor count"))
        out: dict[str, np.ndarray] = {}
        for index in range(count):
            what = f"the name of tensor {index}"
            (name_len,) = struct.unpack("<I", _read_exactly(fh, 4, end, path, what))
            name = _read_exactly(fh, name_len, end, path, what).decode("utf-8")
            what = f"tensor {name!r}"
            (ndim,) = struct.unpack("<I", _read_exactly(fh, 4, end, path, what))
            shape = struct.unpack(f"<{ndim}Q", _read_exactly(fh, 8 * ndim, end, path, what))
            n_values = int(np.prod(shape)) if shape else 1
            data = _read_exactly(fh, 8 * n_values, end, path, what)
            out[name] = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
        if fh.tell() != end:
            raise ValueError(f"{path}: {end - fh.tell()} trailing bytes after the last of its {count} tensors")
        return out


def cluster_state_tensors(state: ClusterState) -> dict[str, np.ndarray]:
    out = {
        "cluster/kind_code": np.array([ALGORITHMS.index(state.kind)], dtype=np.float64),
        "cluster/centroids": state.centroids,
    }
    if state.kind == "gmm":
        out["cluster/covtype_code"] = np.array([COVARIANCE_TYPES.index(state.covariance_type)], dtype=np.float64)
        out["cluster/covariances"] = state.covariances
        out["cluster/weights"] = state.weights
    if state.kind == "fuzzy":
        out["cluster/fuzzifier"] = np.array([state.fuzzifier], dtype=np.float64)
    if state.membership is not None:
        out["cluster/membership"] = state.membership
    return out


def _required(tensors: dict[str, np.ndarray], name: str, source) -> np.ndarray:
    if name not in tensors:
        raise ValueError(f"{source}: no tensor {name!r}")
    return tensors[name]


def _decoded(tensors: dict[str, np.ndarray], name: str, names: tuple[str, ...], source) -> str:
    code = _required(tensors, name, source).ravel()
    if code.size != 1 or code[0] not in range(len(names)):
        known = ", ".join(f"{c} ({n})" for c, n in enumerate(names))
        raise ValueError(f"{source}: tensor {name!r} holds {code.tolist()}, expected one code of {known}")
    return names[int(code[0])]


def cluster_state_from_tensors(tensors: dict[str, np.ndarray], source="tensors") -> ClusterState:
    """The single-run clustering state stored in ``tensors``; a missing
    tensor, an unknown code or a malformed array raises ValueError naming
    ``source`` and the tensor."""
    kind = _decoded(tensors, "cluster/kind_code", ALGORITHMS, source)
    centroids = _required(tensors, "cluster/centroids", source)
    if centroids.ndim != 2:
        raise ValueError(f"{source}: tensor 'cluster/centroids' must be (K, D), got shape {centroids.shape}")
    fields = {}
    if kind == "gmm":
        fields["covariances"] = _required(tensors, "cluster/covariances", source)
        fields["weights"] = _required(tensors, "cluster/weights", source)
        fields["covariance_type"] = _decoded(tensors, "cluster/covtype_code", COVARIANCE_TYPES, source)
    if kind == "fuzzy":
        fields["fuzzifier"] = float(_required(tensors, "cluster/fuzzifier", source)[0])
    try:
        state = ClusterState(kind=kind, centroids=centroids, **fields)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    if "cluster/membership" in tensors:
        state.membership = tensors["cluster/membership"].copy()
    return state


def write_checkpoint(path, model_state: dict[str, np.ndarray], cluster_state: ClusterState):
    tensors = {f"model/{name}": value for name, value in model_state.items()}
    tensors.update(cluster_state_tensors(cluster_state))
    write_tensors(path, tensors)


def read_checkpoint(path):
    tensors = read_tensors(path)
    model_state = {
        name[len("model/") :]: value for name, value in tensors.items() if name.startswith("model/")
    }
    return model_state, cluster_state_from_tensors(tensors, path)
