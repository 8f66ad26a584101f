import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "desk",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("desk")


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """A small synthetic corpus shared by training/inference/CLI tests."""
    from remixse.corpus import SynthSpec, synth_corpus

    root = tmp_path_factory.mktemp("corpus")
    spec = SynthSpec(seed=11, num_utterances=12, duration_s=1.0)
    noisy, noise, clean, log = synth_corpus(spec, root)
    return {"root": root, "noisy": noisy, "noise": noise, "clean": clean, "log": log}


@pytest.fixture(scope="session")
def trained_tiny_model(tiny_corpus):
    """A briefly trained bootstrap model on the tiny corpus."""
    from remixse.corpus import load_corpus, load_manifest
    from remixse.distill import TrainConfig, bootstrap_nytt
    from remixse.model import TINY_CONFIG, init_model

    noisy = load_corpus(load_manifest(tiny_corpus["noisy"]), "noisy")
    ext = load_corpus(load_manifest(tiny_corpus["noise"]), "noise")
    config = TrainConfig(
        epochs=2, batch_size=4, segment_samples=4000, shift_max_samples=500, seed=3
    )
    model, stats = bootstrap_nytt(noisy, ext, init_model(TINY_CONFIG, seed=3), config)
    return model


def fd_gradients(build_loss, tensor, h=1e-5):
    """Central finite differences of a scalar-loss builder w.r.t. one tensor."""
    flat = tensor.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(build_loss().data)
        flat[i] = orig - h
        down = float(build_loss().data)
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * h)
    return grad.reshape(tensor.data.shape)


def assert_grad_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    analytic = np.zeros_like(numeric) if analytic is None else analytic
    diff = np.abs(analytic - numeric)
    bound = atol + rtol * np.abs(numeric)
    assert np.all(diff <= bound), f"max violation {(diff - bound).max():.3e}"


def fail_reading(monkeypatch, target, error, at="open"):
    """Make the package's reads (``fileio.open_input``) raise ``error`` for
    the path ``target``, either when it is opened (``at="open"``) or when it
    is read (``at="read"``); every other path opens normally. Tests inject
    read errors this way because file permissions do not stop a root
    process."""
    import builtins
    from pathlib import Path

    import remixse.fileio

    real_open = builtins.open

    class FailingRead:
        def __init__(self, fh):
            self._fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def read(self, *args):
            raise error

        readlines = read

    def fake_open(path, *args, **kwargs):
        if Path(path) != Path(target):
            return real_open(path, *args, **kwargs)
        if at == "open":
            raise error
        return FailingRead(real_open(path, *args, **kwargs))

    monkeypatch.setattr(remixse.fileio, "open", fake_open, raising=False)
