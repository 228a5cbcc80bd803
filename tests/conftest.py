import random
import sys

import pytest

from juna import numtheory
from juna.params import PublicParams, bundled_public_params, initialize


@pytest.fixture(scope="session")
def toy_pair():
    """Toy parameters small enough for exhaustive collision work."""
    return initialize(m=12, n=8, P=1201, nbar=8, rng=random.Random(1))


@pytest.fixture(scope="session")
def toy_pub(toy_pair):
    return toy_pair[0]


@pytest.fixture(scope="session")
def toy_priv(toy_pair):
    return toy_pair[1]


@pytest.fixture(scope="session")
def mid_pub():
    """Mid-scale parameters: message space big enough for birthday runs."""
    pub, _ = initialize(m=20, n=32, P=1201, nbar=32, rng=random.Random(42))
    return pub


@pytest.fixture(scope="session")
def tiny_pub():
    """Hand-built four-element set with a hand-checkable digest."""
    return PublicParams(m=7, n=4, M=101, C=(2, 3, 5, 7))


@pytest.fixture(scope="session")
def reference_pub():
    """The published 80-bit / 256-value parameter set shipped with the package."""
    return bundled_public_params()


@pytest.fixture
def tested(monkeypatch):
    """Every integer passed to numtheory.is_probable_prime during the test,
    under each name a juna module imported it as."""
    calls = []
    real = numtheory.is_probable_prime

    def counting(x):
        calls.append(x)
        return real(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("juna") and getattr(module, "is_probable_prime", None) is real:
            monkeypatch.setattr(module, "is_probable_prime", counting)
    return calls
