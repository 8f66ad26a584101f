"""Tests of the benchmark's own logic: span self times, step shares, wrapper
installation and the call log, the compare verdicts and the operation tally. Run with
``python3 -m pytest -q perfbench`` from the repository root."""
import sys
from pathlib import Path

import pytest

import common

sys.path.insert(0, str(common.ROOT / "src"))

import compare  # noqa: E402
import tracer as tracing  # noqa: E402
from run import Checks  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    t = tracing.Tracer()
    t.spans = [
        (1, "distill.distill", 0.0, 10.0, None, 1),
        (2, "model.apply.grad", 1.0, 5.0, 1, 1),
        (3, "autodiff.conv1d", 2.0, 4.0, 2, 1),
        (4, "autodiff.backward", 5.0, 8.0, 1, 1),
        (5, "autodiff.conv1d.bwd", 6.0, 7.0, 4, 1),
        (6, "autodiff.adam_step", 8.0, 9.0, 1, 1),
    ]
    m = tracing.layer_metrics(t, enhance_threads=2)
    assert m["distill.distill.self_ms"] == pytest.approx(2000.0)
    assert m["autodiff.backward.self_ms"] == pytest.approx(2000.0)
    assert m["autodiff.conv1d.fwd_ms"] == pytest.approx(2000.0)
    assert m["autodiff.conv1d.bwd_ms"] == pytest.approx(1000.0)
    assert m["autodiff.conv1d.calls"] == 1
    assert m["distill.steps"] == 1
    assert m["distill.phase_coverage"] == pytest.approx(0.8)


def test_step_share_runs_from_first_gather_to_adam_step():
    t = tracing.Tracer()
    t.spans = [
        (1, "cli.distill", 0.0, 20.0, None, 1),
        (2, "model.load_checkpoint", 0.0, 1.0, 1, 1),
        (3, "distill.distill", 1.0, 18.0, 1, 1),
        (4, "corpus.crop_or_pad", 2.0, 2.5, 3, 1),
        (5, "corpus.crop_or_pad", 2.5, 3.0, 3, 1),
        (6, "autodiff.adam_step", 8.0, 9.0, 3, 1),
        (7, "distill.update_teacher", 9.0, 11.0, 3, 1),
        (8, "corpus.crop_or_pad", 12.0, 13.0, 3, 1),
        (9, "autodiff.adam_step", 16.0, 17.0, 3, 1),
        (10, "model.save_checkpoint", 18.0, 20.0, 1, 1),
    ]
    m = tracing.layer_metrics(t, enhance_threads=2)
    assert m["cli.distill.step_share"] == pytest.approx((7.0 + 5.0) / 20.0)
    assert m["cli.bootstrap.step_share"] == 0.0


def test_install_wraps_directly_imported_names_and_backward():
    import remixse.autodiff as ad
    import remixse.cli
    import remixse.corpus
    import remixse.distill
    import remixse.model as model

    saved = {mod: dict(vars(mod)) for mod in (ad, remixse.cli, remixse.corpus, remixse.distill, model)}
    saved_apply, saved_commands = model.DenoiserModel.apply, dict(remixse.cli._COMMANDS)
    t = tracing.Tracer()
    try:
        tracing.install(t)
        assert remixse.distill.crop_or_pad is remixse.corpus.crop_or_pad
        assert remixse.cli.load_checkpoint is model.load_checkpoint
        t.calls = []
        t.enabled = True
        x = ad.Tensor([[[1.0, -2.0, 3.0]]])
        loss = ad.mae_loss(ad.relu(x), [[[0.0, 0.0, 0.0]]])
        ad.backward(loss)
        t.enabled = False
        assert [op for op, _, _ in t.calls] == ["relu", "mae_loss"]
        assert t.calls[0][1][0] is x
        names = [s[1] for s in t.spans]
        assert names == ["autodiff.relu", "autodiff.mae_loss", "autodiff.mae_loss.bwd",
                         "autodiff.relu.bwd", "autodiff.backward"]
        parents = {s[1]: s[4] for s in t.spans}
        backward_id = next(s[0] for s in t.spans if s[1] == "autodiff.backward")
        assert parents["autodiff.relu.bwd"] == backward_id
        assert x.grad is not None
    finally:
        for mod, attrs in saved.items():
            for name, value in attrs.items():
                if getattr(mod, name, None) is not value:
                    setattr(mod, name, value)
        model.DenoiserModel.apply = saved_apply
        remixse.cli._COMMANDS.update(saved_commands)


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        ([10, 10.1, 9.9, 10], [13, 13.1, 12.9, 13], "lower", "REGRESSION"),
        ([10, 10.1, 9.9, 10], [13, 13.1, 12.9, 13], "higher", "better"),
        ([10, 10.1, 9.9, 10], [10.2, 10.1, 10.0, 10.1], "lower", "within bound"),
        ([10, 14, 7, 10], [10.5, 14, 7, 10], "lower", "unresolved"),
        ([10, 14, 7, 10], [5, 5.1, 4.9, 5], "lower", "better"),
    ],
)
def test_verdict(base, new, better, expected):
    assert compare.verdict(base, new, better, 0.1) == expected


def test_checks_count_every_failure():
    c = Checks()
    c.op("command", True)
    c.ops("training step", 6, 2, "in stats")
    c.same("checkpoints", {"a": 1}, {"a": 1})
    assert (c.attempted, c.failed, c.correct) == (8, 2, False)
    c = Checks()
    c.exists(Path(__file__))
    assert c.correct


def test_span_cost_is_small_and_non_negative():
    assert 0.0 <= tracing.span_cost(calls=2000) < 1e-3
