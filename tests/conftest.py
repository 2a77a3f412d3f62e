import numpy as np
import pytest

from gee import montecarlo


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def sorted_reference(monkeypatch):
    """Send every event-path choice to the sorted reference path."""
    choose = montecarlo._sampler_path

    def no_event(*args):
        path = choose(*args)
        return "sorted" if path == "event" else path

    monkeypatch.setattr(montecarlo, "_sampler_path", no_event)
