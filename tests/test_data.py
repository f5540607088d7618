"""Generator determinism, class structure, and the binary container."""

import struct

import numpy as np
import pytest

from flip.data import (
    CLASS_NAMES,
    COLORS,
    MAGIC,
    Dataset,
    SHAPES,
    class_of_caption,
    generate_dataset,
    make_record,
    read_dataset,
    write_dataset,
)
from flip.errors import ConfigError, DataFormatError


class TestGenerator:
    def test_record_deterministic(self):
        a_img, a_cap = make_record(7, 42)
        b_img, b_cap = make_record(7, 42)
        assert a_cap == b_cap
        assert a_img.tobytes() == b_img.tobytes()

    def test_different_index_different_record(self):
        a_img, _ = make_record(7, 0)
        b_img, _ = make_record(7, 16)  # same class, different draw
        assert a_img.tobytes() != b_img.tobytes()

    def test_sixteen_records_cover_all_classes(self, tmp_path):
        ds = generate_dataset(16, 0, tmp_path / "x.flipds")
        assert sorted(ds.labels) == list(range(16))

    def test_images_are_u8_rgb_32(self, tmp_path):
        ds = generate_dataset(8, 0, tmp_path / "x.flipds")
        assert ds.images.shape == (8, 32, 32, 3)
        assert ds.images.dtype == np.uint8

    def test_class_histogram_uniform(self, tmp_path):
        ds = generate_dataset(16000, 3, tmp_path / "x.flipds")
        counts = np.bincount(ds.labels, minlength=16)
        # cyclic assignment should land within any multinomial 3-sigma band
        expected = 1000
        sigma = np.sqrt(16000 * (1 / 16) * (15 / 16))
        assert (np.abs(counts - expected) <= 3 * sigma).all()

    def test_captions_name_their_class(self, tmp_path):
        ds = generate_dataset(64, 5, tmp_path / "x.flipds")
        for caption, label in zip(ds.captions, ds.labels):
            color, shape = CLASS_NAMES[label].split()
            assert color in caption and shape in caption

    def test_labels_parsed_once_and_read_only(self, monkeypatch):
        import flip.data

        calls = []

        def counting(caption):
            calls.append(caption)
            return class_of_caption(caption)

        monkeypatch.setattr(flip.data, "class_of_caption", counting)
        captions = ["a red circle", "a blue cross", "the green square"]
        ds = Dataset(np.zeros((3, 32, 32, 3), np.uint8), captions)
        first, second = ds.labels, ds.labels
        assert len(calls) == 3 and second is first
        assert list(first) == [class_of_caption(c) for c in ds.captions]
        with pytest.raises(ValueError):
            first[0] = 0

    def test_shape_pixels_present(self):
        # the drawn shape must be visibly distinct from the background
        img, caption = make_record(0, 3)
        label = class_of_caption(caption)
        rgb = np.array([[220, 45, 40], [50, 200, 70], [50, 90, 220], [230, 215, 50]])
        target = rgb[label // 4]
        dist = np.linalg.norm(img.astype(float) - target, axis=-1)
        assert (dist < 40).sum() > 40  # a solid blob of the class color

    def test_n_zero_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_dataset(0, 0, tmp_path / "x.flipds")

    def test_class_of_caption_errors(self):
        with pytest.raises(DataFormatError):
            class_of_caption("a photo of a dog")


class TestContainer:
    def test_round_trip_byte_identical(self, tmp_path):
        ds = generate_dataset(20, 1, tmp_path / "a.flipds")
        loaded = read_dataset(tmp_path / "a.flipds")
        assert loaded.captions == ds.captions
        assert loaded.images.tobytes() == ds.images.tobytes()
        write_dataset(tmp_path / "b.flipds", loaded)
        assert (tmp_path / "a.flipds").read_bytes() == (tmp_path / "b.flipds").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.flipds"
        path.write_bytes(b"NOTADATA" + b"\x00" * 32)
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_truncated_file(self, tmp_path):
        ds = generate_dataset(4, 0, tmp_path / "x.flipds")
        raw = (tmp_path / "x.flipds").read_bytes()
        (tmp_path / "cut.flipds").write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DataFormatError):
            read_dataset(tmp_path / "cut.flipds")

    @staticmethod
    def refuse_second_caption(tmp_path, bad):
        """Overwrite a 4-record file with a dataset whose second caption is
        ``bad``: the write is refused and the old file stays whole."""
        path = tmp_path / "x.flipds"
        ds = generate_dataset(4, 0, path)
        before = path.read_bytes()
        with pytest.raises(DataFormatError, match="caption 1 is"):
            write_dataset(path, Dataset(ds.images, [ds.captions[0], bad, *ds.captions[2:]]))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.flipds"]  # no temp file left

    def test_empty_caption_rejected_on_write(self, tmp_path):
        self.refuse_second_caption(tmp_path, "")

    def test_caption_over_64k_rejected_on_write(self, tmp_path):
        self.refuse_second_caption(tmp_path, "a red circle " * 6000)

    def test_caption_not_encodable_as_utf8_rejected_on_write(self, tmp_path):
        self.refuse_second_caption(tmp_path, "a red \ud800 circle")  # lone surrogate

    def test_empty_dataset_rejected_on_write(self, tmp_path):
        ds = Dataset(images=np.zeros((0, 32, 32, 3), dtype=np.uint8), captions=[])
        with pytest.raises(DataFormatError, match="at least one record"):
            write_dataset(tmp_path / "x.flipds", ds)
        assert not (tmp_path / "x.flipds").exists()

    def test_caption_count_mismatch_rejected_on_write(self, tmp_path):
        ds = Dataset(images=np.zeros((2, 32, 32, 3), dtype=np.uint8), captions=["a red circle"])
        with pytest.raises(DataFormatError, match="2 images but 1 captions"):
            write_dataset(tmp_path / "x.flipds", ds)
        assert not (tmp_path / "x.flipds").exists()

    def test_zero_records_rejected_on_read(self, tmp_path):
        path = tmp_path / "empty.flipds"
        path.write_bytes(MAGIC + struct.pack("<IHHB", 0, 32, 32, 3))
        with pytest.raises(DataFormatError, match="no records"):
            read_dataset(path)

    def test_unwritable_path(self):
        ds = Dataset(images=np.zeros((1, 32, 32, 3), dtype=np.uint8), captions=["a red circle"])
        with pytest.raises(OSError):
            write_dataset("/nonexistent-dir/x.flipds", ds)

    def test_non_utf8_caption_rejected(self, tmp_path):
        path = tmp_path / "x.flipds"
        write_dataset(path, Dataset(images=np.zeros((1, 2, 2, 3), dtype=np.uint8),
                                    captions=["a red circle"]))
        path.write_bytes(path.read_bytes().replace(b"circle", b"\xff\xfercle"))
        with pytest.raises(DataFormatError, match="UTF-8"):
            read_dataset(path)

    @pytest.mark.parametrize("header", [(2**32 - 1, 2**16 - 1, 2**16 - 1, 255),
                                        (4_000_000, 32, 32, 3)])
    def test_header_beyond_file_length_rejected_before_allocating(self, tmp_path, header):
        path = tmp_path / "huge.flipds"
        path.write_bytes(MAGIC + struct.pack("<IHHB", *header) + b"\x00" * 3074)
        with pytest.raises(DataFormatError, match="header claims"):
            read_dataset(path)

    def test_reader_holds_no_copy_of_the_file(self, tmp_path):
        import tracemalloc

        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(1024, 32, 32, 3), dtype=np.uint8)
        path = tmp_path / "x.flipds"
        write_dataset(path, Dataset(images=images, captions=[f"a red circle {i}" for i in range(1024)]))
        tracemalloc.start()
        try:
            loaded = read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.images, images)
        assert peak < images.nbytes + 2**20  # the file is 3.1 MB; no copy of it is kept

    def test_zero_size_images_read_back(self, tmp_path):
        # the images' own mapping cannot be empty, but a 0x0 image can be
        path = tmp_path / "x.flipds"
        write_dataset(path, Dataset(images=np.zeros((2, 0, 0, 3), dtype=np.uint8),
                                    captions=["a red circle", "a blue cross"]))
        loaded = read_dataset(path)
        assert loaded.images.shape == (2, 0, 0, 3)
        assert loaded.captions == ["a red circle", "a blue cross"]

    def test_read_images_are_writable(self, tmp_path):
        path = tmp_path / "x.flipds"
        write_dataset(path, Dataset(images=np.zeros((1, 2, 2, 3), dtype=np.uint8),
                                    captions=["a red circle"]))
        loaded = read_dataset(path)
        loaded.images[0, 0, 0] = 255
        assert loaded.images.sum() == 3 * 255
