"""The forked child of two-process I/O: its result, its failures, its reaping.

The autouse fixture in conftest.py fails any test here that leaves the
child unreaped.
"""

import os
import time

import numpy as np
import pytest

from assetsvm import halves


def send(values):
    def work(pipe):
        pipe.write(np.asarray(values, dtype=np.float64))

    return work


def test_child_result_arrives_whole():
    sent = np.arange(300_000, dtype=np.float64)  # more than one pipe buffer
    got = np.empty_like(sent)
    with halves.child(send(sent)) as pipe:
        halves.read_exact(pipe, got)
        assert pipe.read() == b""
    assert np.array_equal(got, sent)


def test_failing_child_is_reported():
    def work(pipe):
        pipe.write(b"12345678")
        raise RuntimeError("the child's half failed")

    got = np.empty(2)
    with pytest.raises(halves.ChildFailed):
        with halves.child(work) as pipe:
            halves.read_exact(pipe, got)


def test_child_exit_status_is_checked():
    with pytest.raises(halves.ChildFailed):
        with halves.child(lambda pipe: os._exit(3)):
            pass


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_parent_failure_kills_and_reaps_the_child(error):
    started = time.perf_counter()
    with pytest.raises(error):
        with halves.child(lambda pipe: time.sleep(60)):
            raise error("the parent's half failed")
    assert time.perf_counter() - started < 30


def test_child_does_not_flush_inherited_buffers(tmp_path):
    path = tmp_path / "out.txt"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("written once\n")  # still in the buffer at the fork
        with halves.child(send([1.0])) as pipe:
            pipe.read()
    assert path.read_text(encoding="utf-8") == "written once\n"


def test_splitting_needs_size_fork_and_two_cpus(monkeypatch):
    monkeypatch.setattr(halves, "usable_cpus", lambda: 2)
    assert halves.worth_splitting(halves.MIN_BYTES)
    assert not halves.worth_splitting(halves.MIN_BYTES - 1)
    assert halves.worth_splitting(0, halves.MIN_EVALS)
    assert not halves.worth_splitting(halves.MIN_BYTES - 1, halves.MIN_EVALS - 1)
    monkeypatch.setattr(halves, "usable_cpus", lambda: 1)
    assert not halves.worth_splitting(halves.MIN_BYTES, halves.MIN_EVALS)
    monkeypatch.setattr(halves, "usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert not halves.worth_splitting(halves.MIN_BYTES, halves.MIN_EVALS)


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert halves.usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert halves.usable_cpus() == 4
