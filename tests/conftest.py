"""Session-shared conductor data and census runs.

Building ConductorData re-verifies every field/class/ray invariant and
a census to 1e5 takes a few seconds, so both are computed once per
session and shared across test modules.

The field cache lives in a temporary directory for the whole session,
so the suite neither reads nor writes the user's cache.  Tests that set
A4CENSUS_CACHE themselves (monkeypatch.setenv) override it as before.
"""

import time

import pytest

from a4census.census import load_conductor, run_census
from a4census.config import CACHE_ENV

CONDUCTORS = (163, 277, 349)

_CD = {}
_RUNS = {}


@pytest.fixture(scope="session", autouse=True)
def _session_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(CACHE_ENV, str(tmp_path_factory.mktemp("a4census-cache")))
        yield


@pytest.fixture(scope="session")
def conductor():
    def _get(ell):
        if ell not in _CD:
            _CD[ell] = load_conductor(ell)
        return _CD[ell]

    return _get


@pytest.fixture(scope="session")
def census():
    """census(ell, n, checkpoints=None) -> (rows, elapsed_seconds), memoized."""

    def _run(ell, n, checkpoints=None):
        key = (ell, n, checkpoints)
        if key not in _RUNS:
            if ell not in _CD:
                _CD[ell] = load_conductor(ell)
            t0 = time.monotonic()
            rows = run_census(_CD[ell], n, checkpoints=checkpoints)
            _RUNS[key] = (rows, time.monotonic() - t0)
        return _RUNS[key]

    return _run
