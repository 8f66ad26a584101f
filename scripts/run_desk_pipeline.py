#!/usr/bin/env python3
"""End-to-end desk-scale demo: synth -> bootstrap -> distill -> enhance -> evaluate.

Writes everything under --workdir and prints a table of the held-out mean
SI-SDR and STOI of each plan: the noisy input, the bootstrap teacher alone,
the student alone, two-stage enhancement (bootstrap, then student) and,
under ``--tup ema``, the combined EMA teacher. All steps go through the CLI
entry points, so this doubles as a living example of the command surface.
``--seed`` seeds the corpora only, so ``--seed 7 --bootstrap-epochs 100
--distill-epochs 35`` runs the README quick start.
"""
import argparse
import json
import sys
from pathlib import Path

from remixse.cli import main as cli


def run(args) -> int:
    work = Path(args.workdir)
    train = work / "train"
    test = work / "test"
    boot = work / "bootstrap.ckpt"
    student = work / "student.ckpt"
    force = ["--force"] if args.force else []

    steps = [
        ["synth", "--seed", str(args.seed), "--num", str(args.num), "--dur", "1.0",
         "--out", str(train)],
        ["synth", "--seed", str(args.seed + 1), "--num", str(max(4, args.num // 2)),
         "--dur", "1.0", "--out", str(test)],
        ["bootstrap", "--noisy", str(train / "noisy.manifest.jsonl"),
         "--ext-noise", str(train / "noise.manifest.jsonl"), "--out", str(boot),
         "--epochs", str(args.bootstrap_epochs), "--batch-size", "4",
         "--segment", "4000", "--shift-max", "400"],
        ["distill", "--teacher", str(boot), "--noisy", str(train / "noisy.manifest.jsonl"),
         "--strategy", args.strategy, "--tup", args.tup, "--out", str(student),
         "--epochs", str(args.distill_epochs), "--batch-size", "4",
         "--segment", "4000", "--shift-max", "400"],
    ]
    stages = {"bootstrap": [boot], "student": [student], "two-stage": [boot, student]}
    if args.tup == "ema":
        stages["EMA teacher"] = [work / "student.teacher.ckpt"]
    scored = {"noisy": test / "noisy.manifest.jsonl"}  # plan -> the manifest it is scored on
    for plan, ckpts in stages.items():
        out = work / "enhanced" / plan.replace(" ", "-")
        steps.append(["enhance", "--stages", ",".join(map(str, ckpts)),
                      "--in", str(scored["noisy"]), "--out", str(out)])
        scored[plan] = out / "enhanced.manifest.jsonl"
    reports = {}
    for plan, deg in scored.items():
        reports[plan] = work / "reports" / f"{plan.replace(' ', '-')}.json"
        steps.append(["evaluate", "--ref", str(test / "clean.manifest.jsonl"), "--deg", str(deg),
                      "--metrics", "stoi,sisdr", "--report", str(reports[plan])])
    for argv in steps:
        print(f"$ remixse {' '.join(argv)}")
        code = cli(argv + force)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code

    print("\nheld-out means:")
    print("| plan | SI-SDR (dB) | STOI |")
    print("|---|---|---|")
    for plan, report in reports.items():
        mean = json.loads(report.read_text())["mean"]
        print(f"| {plan} | {mean['si_sdr_db']:+.2f} | {mean['stoi']:.3f} |")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="desk_run")
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus seed: the training corpus takes it and the held-out one "
                             "seed + 1; training runs at the CLI's default seed 0, as in the "
                             "README quick start")
    parser.add_argument("--num", type=int, default=16, help="training utterances")
    parser.add_argument("--bootstrap-epochs", type=int, default=8)
    parser.add_argument("--distill-epochs", type=int, default=6)
    parser.add_argument("--strategy", default="nytt1",
                        choices=["ctt1", "ctt2", "ctt3", "nytt1", "nytt2", "nytt3"])
    parser.add_argument("--tup", default="ema", choices=["static", "ema"])
    parser.add_argument("--force", action="store_true")
    sys.exit(run(parser.parse_args()))
