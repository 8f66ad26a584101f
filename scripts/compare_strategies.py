#!/usr/bin/env python3
"""Desk-scale sweep: all six remix strategies under both teacher updates.

Trains one bootstrap teacher, distills a student per (strategy, tup) cell,
and reports mean SI-SDR on a held-out split for single-stage student
inference and two-stage (teacher then student) inference. Strategies whose
recipe needs extraneous noise get the training noise corpus. Every cell
trains in float32, as the CLI does.

Desk-scale numbers are directional only; expect noisy differences.
"""
import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from remixse.audio import read_wav
from remixse.corpus import SynthSpec, load_corpus, load_manifest, synth_corpus
from remixse.distill import (
    DistillConfig,
    MixStrategy,
    TrainConfig,
    bootstrap_nytt,
    distill,
)
from remixse.inference import enhance
from remixse.metrics import si_sdr
from remixse.model import TINY_CONFIG, Checkpoint, init_model


def mean_si_sdr(models, clean, noisy):
    stages = [Checkpoint(m) for m in models]
    scores = []
    for ref, deg in zip(clean, noisy):
        scores.append(si_sdr(ref, enhance(stages, deg)))
    return float(np.mean(scores))


def run(args) -> int:
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="strategy_sweep_"))
    print(f"workdir: {workdir}")
    train_noisy_p, train_noise_p, _, _ = synth_corpus(
        SynthSpec(seed=args.seed, num_utterances=args.num), workdir / "train"
    )
    test_noisy_p, _, test_clean_p, _ = synth_corpus(
        SynthSpec(seed=args.seed + 1, num_utterances=max(4, args.num // 2)), workdir / "test"
    )
    noisy = load_corpus(load_manifest(train_noisy_p), "noisy")
    ext = load_corpus(load_manifest(train_noise_p), "noise")
    test_noisy = [read_wav(load_manifest(test_noisy_p).resolve(e))
                  for e in load_manifest(test_noisy_p)]
    test_clean = [read_wav(load_manifest(test_clean_p).resolve(e))
                  for e in load_manifest(test_clean_p)]

    base = dict(batch_size=4, segment_samples=4000, shift_max_samples=400, seed=args.seed)
    print("training bootstrap teacher...")
    teacher, _ = bootstrap_nytt(
        noisy, ext, init_model(TINY_CONFIG, seed=args.seed).astype(np.float32),
        TrainConfig(epochs=args.bootstrap_epochs, **base),
    )
    baseline = mean_si_sdr([teacher], test_clean, test_noisy)
    noisy_score = float(np.mean([si_sdr(r, d) for r, d in zip(test_clean, test_noisy)]))
    print(f"unprocessed noisy: {noisy_score:+.2f} dB   teacher 1-stage: {baseline:+.2f} dB\n")

    header = f"{'strategy':9s} {'tup':7s} {'1-stage':>9s} {'2-stage':>9s} {'sec':>6s}"
    print(header)
    print("-" * len(header))
    for strategy in MixStrategy:
        for tup_name, ema_gamma in (("static", None), ("ema", 0.005)):
            config = DistillConfig(
                epochs=args.distill_epochs, strategy=strategy, ema_gamma=ema_gamma, **base
            )
            t0 = time.perf_counter()
            result = distill(teacher, noisy, ext if strategy.needs_ext_noise else None, config)
            one = mean_si_sdr([result.student], test_clean, test_noisy)
            two = mean_si_sdr([teacher, result.student], test_clean, test_noisy)
            print(
                f"{strategy.value:9s} {tup_name:7s} {one:+8.2f}  {two:+8.2f} "
                f"{time.perf_counter() - t0:6.1f}"
            )
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--num", type=int, default=16)
    parser.add_argument("--bootstrap-epochs", type=int, default=8)
    parser.add_argument("--distill-epochs", type=int, default=4)
    sys.exit(run(parser.parse_args()))
