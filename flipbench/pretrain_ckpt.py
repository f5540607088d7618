"""Set-up step of eval-suite: a short pre-training run that writes the
checkpoint the evaluation loads.

    python3 flipbench/pretrain_ckpt.py TRAIN.flipds OUT.ckpt

Prints one JSON line: checkpoint save time, steps run, aborted steps and
the last loss. ``workloads.EvalWorkload.setup`` runs it as a child process.
"""

from __future__ import annotations

import json
import sys
import time

import workloads
from flip import data, trainer


def main(argv) -> int:
    train_path, ckpt_path = argv[1], argv[2]
    dataset = data.read_dataset(train_path)
    state = trainer.init_train_state(workloads.eval_setup_config())
    losses = []
    trainer.pretrain(state, dataset, on_step=lambda st, bundle: losses.append(bundle.total))
    t0 = time.perf_counter()
    trainer.save_state(ckpt_path, state)
    save_ms = 1000.0 * (time.perf_counter() - t0)
    print(json.dumps({"save_ms": save_ms, "steps": state.step,
                      "aborted_steps": state.aborted_steps, "final_loss": losses[-1]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
