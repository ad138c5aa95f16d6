import random

import pytest

from sidhlab.field import Fp2Field
from sidhlab.protocol import bundled_params, param_gen


@pytest.fixture(scope="session")
def toy():
    return bundled_params("toy431")


@pytest.fixture(scope="session")
def p434():
    return bundled_params("p434")


@pytest.fixture(scope="session")
def mid():
    """A generated set with e3 = 13, so a forger's walk takes up to 11 steps
    (toy431 has e3 = 3 and reaches i = 1 only)."""
    return param_gen(4, 13, random.Random(413))


@pytest.fixture(scope="session")
def F431():
    return Fp2Field(4, 3)


@pytest.fixture
def rng():
    return random.Random(2026)
