"""Span tracing of remixse from outside the package.

``install`` replaces the public functions of each remixse module with timing
wrappers. Several modules import names directly (``distill`` imports
``crop_or_pad`` and the augmenters; ``cli``, ``inference`` and ``metrics``
import the WAV and checkpoint readers), so a wrapper is installed under
every module attribute bound to the original object, not only in the module
that defines it. Autodiff ops also wrap the ``_backward`` closure they attach
to their output, so backward time lands on the op that created it.

Spans (id, name, start, end, parent id, thread id) are kept in memory and
written out when the run ends. Each thread has its own span stack, so spans
opened by enhance/evaluate worker threads are roots in their thread. A tracer
can also log every op call with its arguments (``calls``), which is how
``op_table.py`` takes the ops and shapes of one forward.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# autodiff ops timed one by one; the structural ops are pooled on output.
NAMED_OPS = ("conv1d", "conv_transpose1d", "lstm_layer", "glu", "relu", "resample_time", "mae_loss")
STRUCTURAL_OPS = ("add", "slice_time", "swap_time_channels", "reshape", "scale")
OPS = NAMED_OPS + STRUCTURAL_OPS

# (module, attribute, span name) for plain function wrappers.
FUNCTIONS = (
    ("autodiff", "backward", "autodiff.backward"),
    ("autodiff", "adam_step", "autodiff.adam_step"),
    ("model", "ema_combine", "model.ema_combine"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("distill", "bootstrap_nytt", "distill.bootstrap_nytt"),
    ("distill", "distill", "distill.distill"),
    ("distill", "build_student_batch", "distill.build_student_batch"),
    ("distill", "update_teacher", "distill.update_teacher"),
    ("audio", "augment_bandmask", "audio.augment_bandmask"),
    ("audio", "augment_shift", "audio.augment_shift"),
    ("audio", "mix_batch_at_snr", "audio.mix_batch_at_snr"),
    ("audio", "read_wav", "audio.read_wav"),
    ("audio", "write_wav", "audio.write_wav"),
    ("corpus", "synth_corpus", "corpus.synth_corpus"),
    ("corpus", "load_corpus", "corpus.load_corpus"),
    ("corpus", "crop_or_pad", "corpus.crop_or_pad"),
    ("inference", "enhance", "inference.enhance"),
    ("inference", "enhance_batch", "inference.enhance_batch"),
    ("metrics", "stoi", "metrics.stoi"),
    ("metrics", "si_sdr", "metrics.si_sdr"),
    ("metrics", "evaluate_manifest", "metrics.evaluate_manifest"),
)
CLI_COMMANDS = ("synth", "bootstrap", "distill", "enhance", "evaluate")
TRAINERS = ("distill.bootstrap_nytt", "distill.distill")
# A training step runs from its first gather (crop_or_pad) to its Adam step.
STEP_START, STEP_END = "corpus.crop_or_pad", "autodiff.adam_step"


class Tracer:
    """In-memory span recorder; records nothing while ``enabled`` is false.

    Set ``calls`` to a list to also log each op call as (op, args, kwargs).
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counters: Counter = Counter()
        self.calls: list | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str) -> None:
        with self._lock:
            self.counters[name] += 1

    def in_span(self, name: str) -> bool:
        return any(n == name for _, n in self._stack())

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        sid = next(self._ids)
        stack.append((sid, name))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs)

        return traced

    def wrap_op(self, name: str, fn):
        """Wrap an autodiff op: time it and the backward closure it records."""
        bwd_name = name + ".bwd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if self.calls is not None:
                self.calls.append((fn.__name__, args, kwargs))
            out = self.call(name, fn, args, kwargs)
            closure = out._backward
            if closure is not None:
                out._backward = lambda g: self.call(bwd_name, closure, (g,), {})
                if self.in_span("inference.enhance"):
                    self.count("autodiff.graph_ops_in_enhance")
            return out

        return traced

    def wrap_apply(self, fn, grad_enabled):
        """Wrap DenoiserModel.apply, split by graph recording at entry."""

        @functools.wraps(fn)
        def traced(model, *args, **kwargs):
            if not self.enabled:
                return fn(model, *args, **kwargs)
            if grad_enabled():
                if self.in_span("inference.enhance"):
                    self.count("model.apply.graph_in_enhance")
                return self.call("model.apply.grad", fn, (model,) + args, kwargs)
            return self.call("model.apply.nograd", fn, (model,) + args, kwargs)

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "thread": thread}
                    )
                    + "\n"
                )


def _rebind(original, wrapper) -> None:
    """Point every remixse module attribute bound to ``original`` at ``wrapper``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "remixse" or modname.startswith("remixse.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Install the wrappers; they stay in place and follow ``tracer.enabled``."""
    ad = importlib.import_module("remixse.autodiff")
    model = importlib.import_module("remixse.model")
    cli = importlib.import_module("remixse.cli")  # imports every other module
    for op in OPS:
        original = getattr(ad, op)
        _rebind(original, tracer.wrap_op(f"autodiff.{op}", original))
    for module, attr, name in FUNCTIONS:
        original = getattr(importlib.import_module(f"remixse.{module}"), attr)
        _rebind(original, tracer.wrap(name, original))
    model.DenoiserModel.apply = tracer.wrap_apply(model.DenoiserModel.apply, ad.grad_enabled)
    for command in CLI_COMMANDS:
        cli._COMMANDS[command] = tracer.wrap(f"cli.{command}", cli._COMMANDS[command])


def span_cost(calls: int = 20_000) -> float:
    """Seconds one span adds, measured on a no-op op with a backward closure:
    its traced forward and backward calls against the same calls untraced.

    A traced round and an untraced one cannot be compared directly here: the
    first `paper` round of a process runs on a cold heap and is about 15%
    slower than the next, far more than tracing costs, and a warm-up round
    would add about 18 s to every traced run.
    """

    class Out:
        pass

    def noop(g):
        return None

    def op():
        out = Out()
        out._backward = noop
        return out

    calibration = Tracer()
    calibration.enabled = True
    traced = calibration.wrap_op("op", op)
    start = perf_counter()
    for _ in range(calls):
        op()._backward(None)
    plain = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        traced()._backward(None)
    return max(0.0, perf_counter() - start - plain) / (2 * calls)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def layer_metrics(tracer: Tracer, enhance_threads: int) -> dict[str, float]:
    """Fold the recorded spans into the per-layer metrics of BENCHMARK.json.

    Times are totals in ms over everything traced; a span's self time is its
    duration minus that of its direct children.
    """
    spans = tracer.spans
    duration = {sid: end - start for sid, _, start, end, _, _ in spans}
    name_of = {sid: name for sid, name, _, _, _, _ in spans}
    children: dict[int, list] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        sid, parent = span[0], span[4]
        if parent is not None:
            children[parent].append(span)
            child_time[parent] += duration[sid]
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    per_call: dict[str, list[float]] = defaultdict(list)
    for sid, name, _, _, _, _ in spans:
        total[name] += duration[sid]
        self_time[name] += duration[sid] - child_time[sid]
        calls[name] += 1
        per_call[name].append(duration[sid])

    out: dict[str, float] = {}
    for op in NAMED_OPS:
        out[f"autodiff.{op}.calls"] = calls[f"autodiff.{op}"]
        out[f"autodiff.{op}.fwd_ms"] = _ms(total[f"autodiff.{op}"])
        out[f"autodiff.{op}.bwd_ms"] = _ms(total[f"autodiff.{op}.bwd"])
    out["autodiff.structural.calls"] = sum(calls[f"autodiff.{op}"] for op in STRUCTURAL_OPS)
    out["autodiff.structural.fwd_ms"] = _ms(sum(total[f"autodiff.{op}"] for op in STRUCTURAL_OPS))
    out["autodiff.structural.bwd_ms"] = _ms(sum(total[f"autodiff.{op}.bwd"] for op in STRUCTURAL_OPS))
    out["autodiff.backward.self_ms"] = _ms(self_time["autodiff.backward"])
    out["autodiff.adam_step.ms"] = _ms(total["autodiff.adam_step"])
    out["autodiff.graph_ops_in_enhance"] = tracer.counters["autodiff.graph_ops_in_enhance"]

    out["model.apply.grad_ms"] = _ms(total["model.apply.grad"])
    out["model.apply.nograd_ms"] = _ms(total["model.apply.nograd"])
    out["model.apply.graph_in_enhance"] = tracer.counters["model.apply.graph_in_enhance"]
    for name in ("ema_combine", "save_checkpoint", "load_checkpoint"):
        out[f"model.{name}.ms"] = _ms(total[f"model.{name}"])

    # Every training step ends in exactly one Adam step.
    out["distill.steps"] = calls["autodiff.adam_step"]
    out["distill.build_student_batch.ms"] = _ms(total["distill.build_student_batch"])
    out["distill.update_teacher.ms"] = _ms(total["distill.update_teacher"])
    out["distill.bootstrap_nytt.self_ms"] = _ms(self_time["distill.bootstrap_nytt"])
    out["distill.distill.self_ms"] = _ms(self_time["distill.distill"])
    # Share of the trainers' wall time covered by the step phases (gather,
    # augmentation, teacher/student forward, loss, backward, Adam, remix,
    # teacher update); the rest is the trainers' own self time.
    trainer_wall = sum(total[t] for t in TRAINERS)
    trainer_self = sum(self_time[t] for t in TRAINERS)
    out["distill.phase_coverage"] = 1.0 - trainer_self / trainer_wall if trainer_wall else 0.0
    # Share of each training command's wall time spent inside its steps; the
    # rest is fixed cost: checkpoint load and save, model copies, and the
    # per-epoch teacher update and trajectory snapshot.
    step_time: dict[str, float] = defaultdict(float)
    for sid, name, _, _, parent, _ in spans:
        if name not in TRAINERS or parent is None:
            continue
        step_start = None
        for _, child, start, end, _, _ in sorted(children[sid], key=lambda span: span[2]):
            if child == STEP_START and step_start is None:
                step_start = start
            elif child == STEP_END and step_start is not None:
                step_time[name_of[parent]] += end - step_start
                step_start = None
    for command in ("bootstrap", "distill"):
        wall = total[f"cli.{command}"]
        out[f"cli.{command}.step_share"] = step_time[f"cli.{command}"] / wall if wall else 0.0

    for name in ("augment_bandmask", "augment_shift", "mix_batch_at_snr", "read_wav", "write_wav"):
        out[f"audio.{name}.ms"] = _ms(total[f"audio.{name}"])
    for name in ("synth_corpus", "load_corpus", "crop_or_pad"):
        out[f"corpus.{name}.ms"] = _ms(total[f"corpus.{name}"])

    files = per_call["inference.enhance"]
    out["inference.enhance.p50_ms"] = _ms(float(np.percentile(files, 50))) if files else 0.0
    out["inference.enhance.p90_ms"] = _ms(float(np.percentile(files, 90))) if files else 0.0
    out["inference.enhance_batch.ms"] = _ms(total["inference.enhance_batch"])
    batch_wall = total["inference.enhance_batch"]
    out["inference.parallel_efficiency"] = (
        sum(files) / (enhance_threads * batch_wall) if batch_wall else 0.0
    )

    for name in ("stoi", "si_sdr", "evaluate_manifest"):
        out[f"metrics.{name}.ms"] = _ms(total[f"metrics.{name}"])
    for command in CLI_COMMANDS:
        out[f"cli.{command}.self_ms"] = _ms(self_time[f"cli.{command}"])
    return out
