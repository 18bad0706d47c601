"""Fixtures shared across the test modules."""

import threading

import pytest

from eyedx.shards import end_shard_threads


@pytest.fixture
def single_threaded():
    """End the shard threads that earlier training steps left running:
    sample.decode_batch forks its decode shards only when no other thread is
    alive."""
    end_shard_threads()
    assert threading.active_count() == 1, threading.enumerate()
