import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=80)
settings.load_profile("suite")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_bounded(command, memory=512 * 2 ** 20, timeout=20):
    """Run command in a child whose address space is capped at memory bytes,
    so code that would take memory without bound fails in the child with a
    MemoryError: a string is a snippet for `python -c`, a list an argv run as
    given.  Waits at most timeout seconds (subprocess.TimeoutExpired after
    that) and returns the finished process, its output as text."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    argv = [sys.executable, "-c", command] if isinstance(command, str) else command
    return subprocess.run(argv, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=limit_memory,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.fixture(scope="session")
def equal_h_paths():
    return {p.stem: p for p in sorted((FIXTURES / "equal_h_cohort").glob("*.json"))}


@pytest.fixture(scope="session")
def classified_paths():
    return {p.stem: p for p in sorted((FIXTURES / "classified_authors").glob("*.json"))}


@pytest.fixture(scope="session")
def equal_h_records(equal_h_paths):
    from citemetrics import parse_record
    return {name: parse_record(path) for name, path in equal_h_paths.items()}


@pytest.fixture(scope="session")
def classified_records(classified_paths):
    from citemetrics import parse_record
    return {name: parse_record(path) for name, path in classified_paths.items()}
