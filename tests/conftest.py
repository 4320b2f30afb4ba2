import hypothesis
import numpy as np
import pytest

import npivtest.sim as sim_module

hypothesis.settings.register_profile(
    "numeric", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("numeric")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def fresh_worker_pool():
    """Each test forks its own workers, so a monkeypatch never meets workers forked before it was set."""
    sim_module._discard_pool()
    yield
    sim_module._discard_pool()
