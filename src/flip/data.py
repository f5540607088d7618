"""Synthetic shapes-and-colors dataset plus its binary container.

Each record is a 32x32 RGB image of one colored shape (4 colors x 4
shapes = 16 classes) at a random position and size on a noisy gray
background, captioned from a small template pool that shares its
vocabulary with the zero-shot prompts. Records are deterministic per
(seed, index): class cycles through all 16, everything else is drawn
from a counter-seeded generator, so generation order never changes the
bytes.

File layout (little-endian): magic "FLIPDS01", count u32, height u16,
width u16, channels u8, then per record the raw u8 RGB image in
row-major order, a caption byte length u16, and the UTF-8 caption.
``write_dataset`` checks every caption before it writes through
``checkpoint.atomic_write``, so a refused write leaves the old file.
``read_dataset`` streams: it checks the header's record count against
the file size before it allocates, then reads each image straight into
its row of the result, so it never holds a copy of the file. The images
live in an anonymous mapping of their own, not the malloc heap, so a
dataset read again and again returns its pages when dropped and leaves
no hole that later arrays fragment around.
"""

from __future__ import annotations

import functools
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write
from .errors import ConfigError, DataFormatError
from .masking import TAG_DATA, per_sample_rng

MAGIC = b"FLIPDS01"
_HEADER = struct.Struct("<IHHB")  # count, height, width, channels
IMAGE_SIZE = 32
COLORS = ("red", "green", "blue", "yellow")
SHAPES = ("circle", "square", "triangle", "cross")
CLASS_NAMES = tuple(f"{c} {s}" for c in COLORS for s in SHAPES)

_RGB = {
    "red": (220, 45, 40),
    "green": (50, 200, 70),
    "blue": (50, 90, 220),
    "yellow": (230, 215, 50),
}
_BACKGROUND = 128
_NOISE_STD = 5.0

CAPTION_TEMPLATES = (
    "a photo of a {}",
    "an image of a {}",
    "a picture of a {}",
    "a drawing of a {}",
    "a {}",
    "the {}",
    "a photo of the {}",
)


@dataclass
class Dataset:
    images: np.ndarray  # u8 [n, h, w, 3]
    captions: list[str]

    def __len__(self):
        return self.images.shape[0]

    @functools.cached_property
    def labels(self) -> np.ndarray:
        """Class index of every caption, parsed on first access (read-only)."""
        labels = np.asarray([class_of_caption(c) for c in self.captions], dtype=np.int64)
        labels.flags.writeable = False
        return labels


def class_of_caption(caption: str) -> int:
    """Class index recovered from the color and shape words of a caption."""
    words = set(caption.lower().split())
    color = next((i for i, c in enumerate(COLORS) if c in words), None)
    shape = next((i for i, s in enumerate(SHAPES) if s in words), None)
    if color is None or shape is None:
        raise DataFormatError(f"caption does not name a color and shape: {caption!r}")
    return color * len(SHAPES) + shape


def _shape_mask(shape: str, cx: float, cy: float, r: float) -> np.ndarray:
    yy, xx = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE]
    dx, dy = xx - cx, yy - cy
    if shape == "circle":
        return dx * dx + dy * dy <= r * r
    if shape == "square":
        return (np.abs(dx) <= r) & (np.abs(dy) <= r)
    if shape == "triangle":
        # upward triangle: apex (cx, cy-r), base corners (cx +- r, cy + r)
        inside = (dy >= -r) & (dy <= r)
        half_width = (dy + r) / 2.0
        return inside & (np.abs(dx) <= half_width)
    if shape == "cross":
        w = r / 3.0
        return ((np.abs(dx) <= w) & (np.abs(dy) <= r)) | (
            (np.abs(dy) <= w) & (np.abs(dx) <= r)
        )
    raise ConfigError(f"unknown shape {shape!r}")


def make_record(seed: int, index: int) -> tuple[np.ndarray, str]:
    """One (image, caption) pair, deterministic in (seed, index)."""
    rng = per_sample_rng(seed, TAG_DATA, 0, index)
    label = index % len(CLASS_NAMES)
    color = COLORS[label // len(SHAPES)]
    shape = SHAPES[label % len(SHAPES)]

    r = rng.uniform(7.0, 12.0)
    lo, hi = r + 1.0, IMAGE_SIZE - 1.0 - r
    cx, cy = rng.uniform(lo, hi), rng.uniform(lo, hi)

    img = np.full((IMAGE_SIZE, IMAGE_SIZE, 3), _BACKGROUND, dtype=np.float64)
    img[_shape_mask(shape, cx, cy, r)] = _RGB[color]
    img += rng.normal(0.0, _NOISE_STD, img.shape)
    img = np.clip(img, 0, 255).astype(np.uint8)

    name = f"{color} {shape}"
    if rng.random() < 0.5:
        size_word = "big" if r >= 10.5 else "small" if r <= 8.5 else ""
        if size_word:
            name = f"{size_word} {name}"
    caption = CAPTION_TEMPLATES[rng.integers(len(CAPTION_TEMPLATES))].format(name)
    return img, caption


def generate_dataset(n: int, seed: int, out_path) -> Dataset:
    """Generate n records and write them to disk."""
    if n <= 0:
        raise ConfigError(f"dataset size must be positive, got {n}")
    images = np.empty((n, IMAGE_SIZE, IMAGE_SIZE, 3), dtype=np.uint8)
    captions: list[str] = [""] * n
    for i in range(n):
        images[i], captions[i] = make_record(seed, i)
    ds = Dataset(images=images, captions=captions)
    write_dataset(out_path, ds)
    return ds


def write_dataset(path, ds: Dataset) -> None:
    n, h, w, c = ds.images.shape
    if len(ds.captions) != n:
        raise DataFormatError(f"{n} images but {len(ds.captions)} captions")
    if n == 0:
        raise DataFormatError("a dataset needs at least one record")
    raws = []
    for i, caption in enumerate(ds.captions):
        try:
            raw = caption.encode("utf-8")
        except UnicodeEncodeError as e:
            raise DataFormatError(f"caption {i} is not valid UTF-8: {e.reason}") from e
        if not 0 < len(raw) <= 0xFFFF:
            raise DataFormatError(f"caption {i} is {len(raw)} bytes; it must be 1 to 65535")
        raws.append(raw)
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(_HEADER.pack(n, h, w, c))
        for img, raw in zip(ds.images, raws):
            f.write(np.ascontiguousarray(img, dtype=np.uint8).tobytes())
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)


def read_dataset(path) -> Dataset:
    """Stream the records of a dataset file: each image is read straight
    into its row of the result, so no copy of the file is ever held."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(len(MAGIC) + _HEADER.size)
        if head[: len(MAGIC)] != MAGIC:
            raise DataFormatError(f"{path}: not a dataset file (bad magic)")
        try:
            n, h, w, c = _HEADER.unpack_from(head, len(MAGIC))
        except struct.error as e:
            raise DataFormatError(f"{path}: truncated header") from e
        if n == 0:
            raise DataFormatError(f"{path}: holds no records")
        img_bytes = h * w * c
        if n * (img_bytes + 2) > size - len(head):
            raise DataFormatError(f"{path}: header claims {n} records of {h}x{w}x{c}, "
                                  f"but only {size - len(head)} bytes follow")
        mapping = mmap.mmap(-1, max(1, n * img_bytes))  # a mapping cannot be empty
        images = np.frombuffer(mapping, np.uint8, n * img_bytes).reshape(n, h, w, c)
        captions: list[str] = []
        for i in range(n):
            length = f.read(2) if f.readinto(images[i]) == img_bytes else b""
            if len(length) != 2:
                raise DataFormatError(f"{path}: truncated at record {i}")
            (cap_len,) = struct.unpack("<H", length)
            raw = f.read(cap_len)
            if len(raw) != cap_len:
                raise DataFormatError(f"{path}: truncated caption in record {i}")
            try:
                caption = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataFormatError(f"{path}: caption of record {i} is not UTF-8") from e
            if not caption:
                raise DataFormatError(f"{path}: empty caption in record {i}")
            captions.append(caption)
        trailing = size - f.tell()
        if trailing:
            raise DataFormatError(f"{path}: {trailing} trailing bytes")
    return Dataset(images=images, captions=captions)
