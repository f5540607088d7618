"""The benchmark's per-layer spans keep firing.

``flipbench/workloads.TARGETS`` names the module attributes that the
bench wraps to time each layer (``trainer.encode_image``,
``evaluation.tokenize_batch``, ...). A refactor that stops calling one of
them through that attribute silently zeroes its per-layer metric. This
test runs one short pre-training and one eval pass under the bench's own
wrappers and requires a span from every target.
"""

import sys
from pathlib import Path

import numpy as np

from flip import data, evaluation, trainer

BENCH_DIR = Path(__file__).resolve().parents[1] / "flipbench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_bench_target_records_a_span(tmp_path):
    train = data.generate_dataset(64, 0, tmp_path / "train.flipds")
    held = data.generate_dataset(64, 1, tmp_path / "held.flipds")
    config = trainer.TrainConfig(batch_size=32, mask_ratio=0.75, rec_weight=1.0,
                                 warmup_samples=32, total_samples=64)
    # one span name per target, so that targets sharing a bench name
    # (trainer.patchify and evaluation.patchify, ...) are told apart
    targets = [(owner, attr, str(i), info)
               for i, (owner, attr, _, info) in enumerate(workloads.TARGETS)]
    recorder = tracing.Recorder()
    with tracing.patched(recorder, targets):
        state = trainer.init_train_state(config)
        trainer.pretrain(state, train, n_steps=2)
        params, enc_cfg = state.params, state.encoder_config
        prompts = evaluation.desk_prompts()
        evaluation.class_embeddings(prompts.classes, prompts, params, enc_cfg)
        image_emb = evaluation.embed_images(params, enc_cfg, held.images)
        text_emb = evaluation.embed_texts(params, enc_cfg, held.captions)
        evaluation.recall_at_k(image_emb, text_emb, np.arange(len(held)), 5)
        evaluation.linear_probe(image_emb, held.labels)
        evaluation.eval_inference_modes(params, enc_cfg, held, 0.5, prompts)

    assert state.step == 2
    fired = {int(span.name) for span in recorder.spans}
    silent = [f"{owner.__name__}.{attr}" for i, (owner, attr, _, _) in enumerate(workloads.TARGETS)
              if i not in fired]
    assert not silent, f"bench targets that recorded no span: {silent}"
