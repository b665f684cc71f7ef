import weakref

import pytest
from hypothesis import settings

from w2345 import report
from w2345.modes import element_mode
from w2345.walgebra import Session

# Property tests run the same examples every time and never fail on a slow
# example, so the suite is deterministic on a loaded host.
settings.register_profile("w2345", deadline=None, derandomize=True)
settings.load_profile("w2345")


@pytest.fixture(scope="session")
def report_ctx():
    """Shared report context without a result cache: its sessions are the
    ``gses``, ``ses5`` and ``ses6`` fixtures, so the report test reuses
    what the other tests have built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("WORKBENCH_CACHE_DIR", raising=False)
        return report.Context()


@pytest.fixture(scope="session")
def gses(report_ctx):
    """Shared generic-level session; caches the product table, normal-form
    bases and null fields across the whole test run."""
    return report_ctx.session(None)


@pytest.fixture(scope="session")
def ses3():
    return Session(3)


@pytest.fixture(scope="session")
def ses5(report_ctx):
    return report_ctx.session(5)


@pytest.fixture(scope="session")
def ses6(report_ctx):
    return report_ctx.session(6)


@pytest.fixture(scope="session")
def ses7():
    """Cross-validation level: all reference denominators are nonzero here."""
    return Session(7)


@pytest.fixture(scope="session")
def full_expansion():
    """Test-side oracle for the images a session stores: full(ses, word) is
    the full PBW expansion E(word) of a normal-form word, the generator's
    ``element_mode`` on the oracle of the tail, memoised per session.  The
    session's image of the word must equal ``pbw.h_free`` of it."""
    memo = weakref.WeakKeyDictionary()

    def full(ses, word):
        known = memo.setdefault(ses, {(): {(): ses.domain.one}})
        if word not in known:
            (g, t), tail = word[0], word[1:]
            known[word] = element_mode(ses.pbw, ses.generator_state(g), t, full(ses, tail))
        return known[word]

    return full
