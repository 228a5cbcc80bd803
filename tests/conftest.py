import contextlib
import io
import os
import random
import sys

import pytest

from juna import numtheory, params
from juna.cli import main
from juna.keyfile import PublicParams, bundled_public_params
from juna.params import initialize


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


@pytest.fixture
def setaffinity_calls(monkeypatch):
    """The os.sched_setaffinity calls this process makes during the test;
    each is still made, so a changed CPU set shows as well."""
    calls = []
    real = getattr(os, "sched_setaffinity", None)

    def recording(pid, cpus):
        calls.append((pid, set(cpus)))
        if real is not None:
            real(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", recording, raising=False)
    return calls


KEYGEN_4096 = ["keygen", "--seed", "4096", "--m", "232", "--n", "4096", "--p-bits", "32",
               "--nbar", "4096"]


@pytest.fixture(scope="session")
def keygen_4096(tmp_path_factory):
    """The in-process keygen at seed 4096, 232/4096: its stdout, the two
    files, and the multiplications counted on find_safe_prime's context."""
    base = tmp_path_factory.mktemp("k4096")
    pub, priv = base / "k.pub", base / "k.priv"
    contexts = []
    real = params.find_safe_prime

    def recording(*args, **kwargs):
        contexts.append(real(*args, **kwargs))
        return contexts[-1]

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(params, "find_safe_prime", recording)
        rc = main(KEYGEN_4096 + ["--out-pub", str(pub), "--out-priv", str(priv)])
    assert rc == 0
    return out.getvalue(), pub, priv, contexts[0].mulcount
