import functools

import numpy as np
import pytest

from regupath import Grid, fredholm_model, preset, run_experiment


@pytest.fixture
def rng():
    return np.random.default_rng(20_240_817)


@pytest.fixture
def unit_grid():
    return Grid(101)


@pytest.fixture(scope="session")
def fredholm_benchmark():
    """Small linear benchmark: model, truth on its grid, exact data."""
    model = fredholm_model(101)
    t = model.x_grid.points()
    truth = model.x_grid.function(4.0 * t * (1.0 - t) + np.sin(2.0 * np.pi * t))
    return model, truth, model.apply(truth)


@pytest.fixture(scope="session")
def preset_bundle():
    """``run_experiment(preset(name))``, run once per preset for the whole session."""
    return functools.cache(lambda name: run_experiment(preset(name)))
