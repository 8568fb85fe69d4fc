"""Checks every test in this directory shares."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process unreaped, running or exited."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid:
        pytest.fail(f"the test left child process {pid} unreaped (status {status})")
    pytest.fail("the test left a child process running")
