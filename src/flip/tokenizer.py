"""Subword tokenizer over the packaged vocabulary file.

Vocabulary format: UTF-8, one subword per line; the line number is the
token id. Line 0 is reserved for padding, line 1 for unknown fragments.
Captions are lowercased, whitespace-split, and each word is consumed by
greedy longest-prefix matching against the vocabulary; anything that
cannot be matched (not even as a single character) becomes UNK.

Every sequence is padded or cut to ``SEQ_LEN`` = 32 tokens.

The tokenizer alone sizes the text tower's tables in every preset:
``SEQ_LEN`` rows of ``txt/pos`` and one ``txt/tok_emb`` row per entry of
the packaged vocabulary (230). No config field or parameter holds either.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

import numpy as np

PAD_ID = 0
UNK_ID = 1
SEQ_LEN = 32


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]
    index: dict

    def __len__(self):
        return len(self.tokens)


@dataclass
class TokenizedBatch:
    """Fixed-length token id matrix plus per-sample valid (non-pad) lengths."""

    token_ids: np.ndarray  # int64 [B, seq_len]
    valid_lengths: np.ndarray  # int64 [B]

    @property
    def batch_size(self) -> int:
        return self.token_ids.shape[0]

    @property
    def seq_len(self) -> int:
        return self.token_ids.shape[1]


@functools.lru_cache(maxsize=1)
def default_vocab() -> Vocab:
    """The packaged desk vocabulary, read once."""
    text = resources.files("flip").joinpath("vocab.txt").read_text("utf-8")
    tokens = tuple(text.splitlines())
    return Vocab(tokens=tokens, index={t: i for i, t in enumerate(tokens)})


def _word_ids(word: str, vocab: Vocab) -> list[int]:
    ids = []
    i = 0
    while i < len(word):
        j = len(word)
        while j > i and word[i:j] not in vocab.index:
            j -= 1
        if j == i:
            ids.append(UNK_ID)
            i += 1
        else:
            ids.append(vocab.index[word[i:j]])
            i = j
    return ids


def tokenize(caption: str) -> np.ndarray:
    """Token ids of a caption, padded or cut to exactly ``SEQ_LEN``."""
    vocab = default_vocab()
    ids: list[int] = []
    for word in caption.lower().split():
        ids.extend(_word_ids(word, vocab))
        if len(ids) >= SEQ_LEN:
            break
    ids = ids[:SEQ_LEN]
    ids.extend([PAD_ID] * (SEQ_LEN - len(ids)))
    return np.asarray(ids, dtype=np.int64)


def tokenize_batch(captions) -> TokenizedBatch:
    ids = np.stack([tokenize(c) for c in captions])
    is_pad = ids == PAD_ID
    valid = np.where(is_pad.any(axis=1), is_pad.argmax(axis=1), SEQ_LEN).astype(np.int64)
    return TokenizedBatch(token_ids=ids, valid_lengths=valid)
