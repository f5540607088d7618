"""Desk-scale masked contrastive language-image pre-training workbench.

Sparse ViT encoding of visible patches, symmetric temperature-scaled
InfoNCE, unmasked tuning, and the evaluation / FLOP-accounting tooling
to study masking trade-offs on synthetic data.

Importing the package pins BLAS to one thread unless the caller set
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``:
the desk-scale matrices gain nothing from a second thread, and
concurrent runs slow down several times over when their BLAS threads
compete for the cores. The pin takes effect only if numpy has not been
imported yet, and the thread count changes no computed value.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import autodiff  # noqa: E402
from .data import CLASS_NAMES, Dataset, generate_dataset, read_dataset, write_dataset
from .encoders import EncoderConfig, encode_image, encode_text, init_params, patchify, preset
from .evaluation import (
    EvalReport,
    PromptSet,
    class_embeddings,
    desk_prompts,
    eval_inference_modes,
    linear_probe,
    recall_at_k,
    zero_shot_classify,
)
from .flops import FlopReport, count_flops
from .masking import PatchMask, complementary_views, sample_patch_mask, sample_text_mask
from .objective import LossBundle, info_nce, project_and_normalize
from .tokenizer import TokenizedBatch, Vocab, tokenize, tokenize_batch
from .trainer import (
    TrainConfig,
    TrainState,
    adamw_step,
    effective_lr,
    init_train_state,
    load_state,
    lr_at,
    run_pretraining,
    run_scaling_axis,
    save_state,
    train_step,
    unmasked_tune,
)

__version__ = "0.1.0"
