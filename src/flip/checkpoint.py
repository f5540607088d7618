"""Binary checkpoint container.

Layout (little-endian): magic "FLIPCKPT", version u32, tensor count u32,
then per tensor: name length u16 + UTF-8 name, ndim u8, dims u32 each,
raw float32 data in row-major order.

Training state rides on top as named tensors: parameters under
``param/``, Adam moments under ``m/`` and ``v/``, and integer counters /
encoder geometry packed into ``meta/`` entries. Counters are stored as
24-bit lo/hi float pairs so values survive the float32 container
exactly.

Checkpoints, datasets and a run directory's config.txt and flops.json
are written through ``atomic_write``.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .errors import DataFormatError

MAGIC = b"FLIPCKPT"
VERSION = 1

_U24 = 1 << 24
_ZERO = np.zeros((), dtype="<f4")  # a skipped entry's shape is checked as a view of it


def _split_u48(x: int) -> tuple[float, float]:
    if not 0 <= x < _U24 * _U24:
        raise ValueError(f"counter out of range: {x}")
    return float(x % _U24), float(x // _U24)


def _join_u48(lo: float, hi: float) -> int:
    return int(round(lo)) + _U24 * int(round(hi))


@contextlib.contextmanager
def atomic_write(path):
    """A temp file beside ``path`` that replaces it when the block ends,
    or is removed if the block raises. Not fsynced: this survives a
    crashed process, not a power loss."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    finally:  # gone already once the replace has run
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named arrays in checkpoint format (values cast to float32)."""
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_tensors(path, keep: tuple[str, ...] | None = None) -> dict[str, np.ndarray]:
    """The named arrays stored at ``path``, in file order.

    Every entry is parsed and checked against the file's size and
    numpy's limits, but only those whose names start with one of the
    ``keep`` prefixes (all of them when ``keep`` is None) are read into
    arrays of their own; the rest are skipped unread. A damaged file is
    a ``DataFormatError``."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def take(fmt):
            n = struct.calcsize(fmt)
            buf = f.read(n)
            if len(buf) < n:
                raise DataFormatError(f"{path}: truncated checkpoint")
            return struct.unpack(fmt, buf)

        if f.read(len(MAGIC)) != MAGIC:
            raise DataFormatError(f"{path}: not a checkpoint (bad magic)")
        version, count = take("<II")
        if version != VERSION:
            raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = take("<H")
            try:
                name = f.read(name_len).decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataFormatError(f"{path}: tensor name is not UTF-8") from e
            (ndim,) = take("<B")
            shape = take(f"<{ndim}I") if ndim else ()
            nbytes = 4 * math.prod(shape)  # Python ints: u32 dims must not wrap
            if f.tell() + nbytes > size:
                raise DataFormatError(f"{path}: truncated tensor data for {name!r}")
            skip = keep is not None and not name.startswith(keep)
            try:  # an empty tensor can still claim too many or too large dims
                arr = np.broadcast_to(_ZERO, shape) if skip else np.empty(shape, _ZERO.dtype)
            except ValueError as e:
                raise DataFormatError(f"{path}: numpy cannot hold tensor {name!r} "
                                      f"of shape {shape}") from e
            if skip:
                f.seek(nbytes, os.SEEK_CUR)
                continue
            if f.readinto(arr) != nbytes:
                raise DataFormatError(f"{path}: truncated tensor data for {name!r}")
            tensors[name] = arr
        if f.tell() != size:
            raise DataFormatError(f"{path}: {size - f.tell()} trailing bytes")
    return tensors
