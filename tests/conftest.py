import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from deconv.kernels import BumpKernel, GaussianKernel, TabulatedKernel

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
def skew_normal():
    """The skew-normal density 2 phi(x) Phi(4x), tabulated: a kernel that is not even."""
    x = np.linspace(-8.0, 8.0, 8001)
    cdf = 0.5 * (1.0 + np.array([math.erf(4.0 * v / math.sqrt(2.0)) for v in x]))
    return TabulatedKernel(x, 2.0 * np.exp(-x**2 / 2) / math.sqrt(2 * math.pi) * cdf)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
