import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from deconv.kernels import BumpKernel, GaussianKernel

settings.register_profile(
    "numeric",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI draws the same examples on every run, so tier-1 cannot fail on a fresh draw
settings.register_profile("ci", parent=settings.get_profile("numeric"), derandomize=True)
settings.load_profile("ci" if os.environ.get("CI") else "numeric")


@pytest.fixture(scope="session")
def gaussian():
    return GaussianKernel()


@pytest.fixture(scope="session")
def bump():
    return BumpKernel()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
