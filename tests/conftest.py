import numpy as np
import pytest

from gee import montecarlo


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def reference_paths(monkeypatch):
    """Send every fingerprint-path choice to the sorted reference path and every
    tally-path choice to the multinomial counts path."""
    choose = montecarlo._sampler_path
    reference = {"fingerprint": "sorted", "tally": "counts"}

    def no_fast_path(*args):
        path = choose(*args)
        return reference.get(path, path)

    monkeypatch.setattr(montecarlo, "_sampler_path", no_fast_path)
