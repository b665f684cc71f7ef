import pytest
from hypothesis import settings

from w2345.walgebra import Session

# Property tests run the same examples every time and never fail on a slow
# example, so the suite is deterministic on a loaded host.
settings.register_profile("w2345", deadline=None, derandomize=True)
settings.load_profile("w2345")


@pytest.fixture(scope="session")
def gses():
    """Shared generic-level session; caches the product table, normal-form
    bases and null fields across the whole test run."""
    return Session()


@pytest.fixture(scope="session")
def ses3():
    return Session(3)


@pytest.fixture(scope="session")
def ses5():
    return Session(5)


@pytest.fixture(scope="session")
def ses6():
    return Session(6)


@pytest.fixture(scope="session")
def ses7():
    """Cross-validation level: all reference denominators are nonzero here."""
    return Session(7)
