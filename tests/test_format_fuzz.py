"""Damaged dataset and checkpoint files: each reader either refuses the
file with ``DataFormatError`` or returns a well-formed object, and never
ends in any other exception.

The files are cut at drawn offsets, and single bytes of their headers
(and of the checkpoint's ``meta/`` entries) are XOR-ed with a drawn
nonzero value. Runs are derandomized, so every session draws the same
cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flip.checkpoint import load_tensors
from flip.data import Dataset, read_dataset, write_dataset
from flip.encoders import (
    EncoderConfig,
    ImageTowerConfig,
    TextTowerConfig,
    init_params,
    param_shapes,
)
from flip.errors import DataFormatError
from flip.trainer import TrainConfig, TrainState, load_encoder, save_state

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)
DATASET_HEADER = 17  # magic, count u32, height u16, width u16, channels u8


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    images = np.arange(2 * 4 * 4 * 3, dtype=np.uint8).reshape(2, 4, 4, 3)
    write_dataset(root / "ds.flipds", Dataset(images=images, captions=["a red circle", "é"]))
    # a small geometry keeps each load cheap
    geometry = EncoderConfig(ImageTowerConfig(1, 8, 2, 4, 8), TextTowerConfig(1, 8, 2), 8)
    params = init_params(geometry, seed=0, with_decoder=True)
    save_state(root / "ck.ckpt", TrainState(
        config=TrainConfig(batch_size=2, warmup_samples=0, total_samples=2),
        encoder_config=geometry,
        params=params,
        adam_m={k: np.zeros_like(p.data) for k, p in params.items()},
        adam_v={k: np.zeros_like(p.data) for k, p in params.items()},
    ))
    return root, (root / "ds.flipds").read_bytes(), (root / "ck.ckpt").read_bytes()


def damaged(data, raw: bytes, header_end: int) -> bytes:
    """``raw`` cut at a drawn offset, or with one byte before
    ``header_end`` XOR-ed with a drawn nonzero value."""
    if data.draw(st.booleans(), label="truncate"):
        return raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
    at = data.draw(st.integers(0, header_end - 1), label="at")
    flip = data.draw(st.integers(1, 255), label="xor")
    return raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1 :]


def read_or_refuse(read, path):
    try:
        return read(path)
    except DataFormatError:
        return None


@FUZZ
@given(data=st.data())
def test_damaged_dataset(files, data):
    root, raw, _ = files
    path = root / "damaged.flipds"
    path.write_bytes(damaged(data, raw, DATASET_HEADER))
    ds = read_or_refuse(read_dataset, path)
    if ds is not None:
        assert len(ds) >= 1 and ds.images.dtype == np.uint8 and ds.images.ndim == 4
        assert len(ds.captions) == len(ds) and all(ds.captions)


@FUZZ
@given(data=st.data())
def test_damaged_checkpoint(files, data):
    root, _, raw = files
    meta_end = raw.index(b"param/") - 2  # header and meta/ entries come first
    path = root / "damaged.ckpt"
    path.write_bytes(damaged(data, raw, meta_end))
    tensors = read_or_refuse(load_tensors, path)
    if tensors is not None:
        assert all(isinstance(k, str) and a.dtype == np.float32 for k, a in tensors.items())
    loaded = read_or_refuse(load_encoder, path)
    if loaded is not None:
        params, enc_cfg = loaded
        expected = dict(param_shapes(enc_cfg, "dec/out/w" in params))
        assert {name: p.data.shape for name, p in params.items()} == expected
