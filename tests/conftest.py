import os

import pytest

from hilbert_k3.numkernel import PrecisionPolicy
from hilbert_k3.verify import usable_cpus


@pytest.fixture(scope="session")
def policy():
    return PrecisionPolicy(128)


@pytest.fixture(scope="session")
def policy256():
    return PrecisionPolicy(256)


@pytest.fixture
def cpus(monkeypatch):
    """Sets the number of CPUs ``os.sched_getaffinity`` reports, which is the
    number of worker processes ``verify all`` forks."""
    def set_count(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
    return set_count


@pytest.fixture(autouse=True)
def at_most_two_cpus(cpus):
    """No test forks more than two workers, however many CPUs the machine has."""
    cpus(min(2, usable_cpus()))
