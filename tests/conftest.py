import numpy as np
import pytest
from hypothesis import settings

from hplus import _kernels
from hplus.numtheory import sieve

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def table_200():
    return sieve(200)


@pytest.fixture(scope="session")
def table_3k():
    return sieve(3000)


@pytest.fixture(scope="session")
def table_100k():
    return sieve(100_000)


@pytest.fixture()
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture(autouse=True)
def fresh_support_plans():
    """Start every test with no support-product plan kept, so each one sees
    its own first products merge (both _merge_indices branches included)."""
    _kernels._clear_plans()
