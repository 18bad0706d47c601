"""Fixtures shared across the test modules."""

import gc
import threading
import time

import pytest


@pytest.fixture
def single_threaded():
    """Wait for the shard threads of earlier training steps to end with their
    models' pools: sample.decode_batch forks its decode shards only when no
    other thread is alive."""
    gc.collect()
    deadline = time.monotonic() + 10
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == 1, threading.enumerate()
