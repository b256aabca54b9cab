"""Binary checkpoint format: magic "CXAL", version, stage, step, config
digest, then a named table of little-endian float32 arrays. Round trips are
bit-exact."""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"CXAL"
VERSION = 1


class CheckpointError(IOError):
    pass


@dataclass
class Checkpoint:
    stage: str
    step: int
    config_digest: str
    arrays: dict  # name -> np.float32 ndarray, each its own writable array


def params_to_arrays(params: dict) -> dict:
    return {n: p.data for n, p in params.items()}


def _write_str(fh, s: str) -> None:
    raw = s.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)


def _read(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise CheckpointError("truncated checkpoint file")
    return raw


def _read_str(fh) -> str:
    (n,) = struct.unpack("<H", _read(fh, 2))
    return _read(fh, n).decode("utf-8")


@contextlib.contextmanager
def replacing(path, mode: str = "wb", encoding: str | None = None):
    """A file open for writing on a temp file beside `path`, which replaces
    `path` in one `os.replace` when the block ends. A write that fails
    leaves `path` as it was and removes the temp file."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(path, stage: str, step: int, config_digest: str, arrays: dict) -> None:
    with replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        _write_str(fh, stage)
        fh.write(struct.pack("<Q", step))
        _write_str(fh, config_digest)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f4")
            _write_str(fh, name)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        if _read(fh, 4) != MAGIC:
            raise CheckpointError(f"{path}: not a CXAL checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read(fh, 4))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        stage = _read_str(fh)
        (step,) = struct.unpack("<Q", _read(fh, 8))
        digest = _read_str(fh)
        (count,) = struct.unpack("<I", _read(fh, 4))
        arrays = {}
        for _ in range(count):
            name = _read_str(fh)
            (ndim,) = struct.unpack("<B", _read(fh, 1))
            shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim))
            # exact integer size: a corrupt shape can overflow np.prod's int64
            nbytes = 4 * math.prod(shape)
            if nbytes > file_size - fh.tell():
                raise CheckpointError(f"{path}: array {name!r} of shape {shape} exceeds the file")
            data = np.frombuffer(_read(fh, nbytes), dtype="<f4").reshape(shape)
            arrays[name] = data.astype(np.float32)
    return Checkpoint(stage=stage, step=step, config_digest=digest, arrays=arrays)
