import os
import signal

import pytest
from hypothesis import settings

from vaxsel.panel import load_panel, load_schema

from importlib import resources

# Hypothesis profiles, chosen with HYPOTHESIS_PROFILE.  "ci" (the default)
# draws the same examples on every run and keeps no example database, so a
# run's verdict does not depend on earlier runs; "deep" draws new random
# examples, ten times each suite's own count (see examples).
settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("deep", derandomize=False)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "ci")
settings.load_profile(PROFILE)


def examples(count):
    """A suite's max_examples: count under the ci profile, 10 count under deep.
    A suite's own max_examples overrides any profile's, so the scale is applied here."""
    return count * 10 if PROFILE == "deep" else count


def packaged(name):
    return resources.files("vaxsel").joinpath("data").joinpath(name)


@pytest.fixture(scope="session")
def schema():
    return load_schema(packaged("schema.csv"))


@pytest.fixture(scope="session")
def snapshot(schema):
    return load_panel(packaged("snapshot.csv"), schema)


@pytest.fixture
def deadline():
    """A TimeoutError in the test where it would otherwise hang past 60 s, such as
    a read from a worker's pipe that never sees its end."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
