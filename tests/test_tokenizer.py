"""Tokenizer behavior against the shipped vocabulary."""

import numpy as np
from hypothesis import given, strategies as st

from flip.encoders import PRESET_NAMES, param_shapes, preset
from flip.tokenizer import (
    PAD_ID,
    SEQ_LEN,
    UNK_ID,
    default_vocab,
    tokenize,
    tokenize_batch,
)


def test_empty_caption_is_all_padding():
    ids = tokenize("")
    assert ids.shape == (32,)
    assert (ids == PAD_ID).all()


def test_known_words_map_to_vocab_lines():
    vocab = default_vocab()
    ids = tokenize("a red circle")
    expected = [vocab.index["a"], vocab.index["red"], vocab.index["circle"]]
    assert list(ids[:3]) == expected
    assert (ids[3:] == PAD_ID).all()


def test_long_caption_cut_to_32():
    caption = " ".join(["red"] * 40)
    ids = tokenize(caption)
    assert ids.shape == (32,)
    assert (ids != PAD_ID).all()


def test_packaged_vocabulary_is_the_presets():
    vocab = default_vocab()
    assert vocab.tokens[PAD_ID] == "<pad>" and vocab.tokens[UNK_ID] == "<unk>"
    assert all(vocab.index[t] == i for i, t in enumerate(vocab.tokens))
    assert len(vocab) == 230
    for name in PRESET_NAMES:  # every text tower takes the tokenizer's tables
        shapes, width = dict(param_shapes(preset(name))), preset(name).text.width
        assert shapes["txt/tok_emb"] == (len(vocab), width)
        assert shapes["txt/pos"] == (SEQ_LEN, width)


def test_greedy_longest_match_splits_unknown_words():
    vocab = default_vocab()
    # each piece is the longest prefix of the rest that the vocabulary holds
    for word, pieces in (("reddish", ["red", "d", "is", "h"]),
                         ("rendering", ["render", "in", "g"])):
        ids = tokenize(word)
        assert list(ids[: len(pieces)]) == [vocab.index[p] for p in pieces]
        assert (ids[len(pieces):] == PAD_ID).all()


def test_repeated_word_maps_to_the_same_ids():
    vocab = default_vocab()
    ids = tokenize("red circle red")
    assert list(ids[:4]) == [vocab.index["red"], vocab.index["circle"], vocab.index["red"], PAD_ID]

def test_punctuation_splits_off():
    vocab = default_vocab()
    ids = tokenize("a photo of a circle.")
    assert ids[4] == vocab.index["circle"]
    assert ids[5] == vocab.index["."]


def test_unmatchable_character_becomes_unk():
    ids = tokenize("éclair")  # leading non-ascii char has no vocab entry
    assert ids[0] == UNK_ID
    # a word with no matchable piece is one UNK per character
    assert list(tokenize("ééé")[:4]) == [UNK_ID, UNK_ID, UNK_ID, PAD_ID]


def test_case_folding():
    assert np.array_equal(tokenize("RED Circle"), tokenize("red circle"))


def test_batch_valid_lengths():
    batch = tokenize_batch(["a red circle", "", "a big yellow cross"])
    assert batch.token_ids.shape == (3, 32)
    assert list(batch.valid_lengths) == [3, 0, 4]


@given(st.text(max_size=200))
def test_every_caption_tokenizes_to_fixed_length(caption):
    ids = tokenize(caption)
    assert ids.shape == (SEQ_LEN,)
    assert ids.dtype == np.int64
    assert (ids >= 0).all() and (ids < len(default_vocab())).all()
