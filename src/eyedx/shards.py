"""Row shards: contiguous groups of a batch's rows, each run on its own core.

The training step and decode_batch cut their rows by one rule: one shard per
core that BLAS leaves idle, and no more shards than rows of positive weight,
the work a row brings. The cut is exact: its heaviest shard is as light as
can be, then its lightest as heavy, with the earliest cuts on ties.

Each cut comes with its runner, run(fn, shards) = [fn(shard) for shard in
shards]: threaded's runs the training step's shards on threads, forked's runs
decode_batch's in forked children. The shard threads belong to the process,
and only this module ends them: the first step of several shards starts
them, and they last until forked's cut or the process's exit. A child gets
only the forking thread, so forked ends the shard threads first and, while
another thread is alive, cuts one shard. A decode row keeps its seed stream
in any shard, though its logits may differ in the last bit, as ragged rows
round with the batch they step in.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NumericError


def threaded(weights: np.ndarray):
    """The training step's cut of rows of these weights, and its runner."""
    return _split_rows(weights, _shard_count(int(np.count_nonzero(weights)))), _thread_map


def forked(weights: np.ndarray):
    """decode_batch's cut of rows of these positive weights, and its runner."""
    end_shard_threads()
    alone = hasattr(os, "fork") and threading.active_count() == 1
    return _split_rows(weights, _shard_count(len(weights)) if alone else 1), _fork_map


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shard_count(rows: int) -> int:
    """One shard per core that BLAS leaves idle, and no more than rows. BLAS
    takes OPENBLAS_NUM_THREADS threads, else OMP_NUM_THREADS; every core when
    neither is set or the one read is not a positive integer."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            try:
                blas = int(os.environ[var])
            except ValueError:
                return 1
            return max(1, min(_usable_cores() // blas, rows)) if blas > 0 else 1
    return 1


def _split_rows(weights: np.ndarray, n: int) -> list[slice]:
    """The exact cut of rows of these weights into n contiguous shards.

    One pass over prefix cuts finds top, the least heaviest of n shards, a
    second, over shards no heavier, low, the most lightest. The optimal cuts
    have every shard in [low, top], and of any two, the earlier at each cut
    is one too. Walking back from the last row, each cut is the earliest
    with the shard after it no heavier than top and the rows before it
    optimally cut: no later than the optimum's, so that shard is no lighter.
    """
    rows = len(weights)
    if n == 1:
        return [slice(0, rows)]
    if np.count_nonzero(weights) < n:
        raise ValueError(f"{n} shards need {n} rows of positive weight")
    ends = np.concatenate([[0.0], np.cumsum(weights, dtype=np.float64)])
    span = ends[None, :] - ends[:, None]  # span[i, j]: weight of rows i .. j-1
    span[span <= 0] = np.inf  # not a shard
    top = np.r_[0.0, np.full(rows, np.inf)]  # top[j]: least heaviest shard of rows 0 .. j-1
    for _ in range(n):
        top = np.maximum(top[:, None], span).min(axis=0)
    fits = span <= top[-1]
    lightest = [np.r_[np.inf, np.full(rows, -np.inf)]]  # [k][j]: most lightest in k shards
    for _ in range(n):
        light = np.full_like(span, -np.inf)
        np.minimum(lightest[-1][:, None], span, out=light, where=fits)
        lightest.append(light.max(axis=0))
    low = lightest[-1][-1]
    cuts = [rows]
    for k in range(n - 1, -1, -1):
        cuts.append(int(np.flatnonzero((lightest[k] >= low) & fits[:, cuts[-1]])[0]))
    cuts.reverse()
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


_pool = None  # the process's shard threads; cores and the fork rule are per process


def _thread_map(fn, items) -> list:
    """[fn(item) for item in items]: the first on the calling thread, the rest
    on the process's shard threads, started by the first call of several items
    and kept, with their malloc arenas, until end_shard_threads or the
    process's exit; one caller at a time."""
    global _pool
    if len(items) > 1 and _pool is None:
        _pool = ThreadPoolExecutor(thread_name_prefix="eyedx-shard")
    rest = [_pool.submit(fn, item) for item in items[1:]]
    return [fn(items[0])] + [future.result() for future in rest]


def end_shard_threads() -> None:
    """End the shard threads, if any run; forked calls it first."""
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None


def _fork_map(fn, items) -> list:
    """[fn(item) for item in items]: the first in this process, each other in
    a child forked for it.

    A child sends back its result, or the exception it raised, pickled
    through a pipe, and leaves through os._exit, so it never flushes this
    process's stdio buffers or runs its exit handlers. A child's exception
    is raised here; a child that ends without a result (killed, or its
    reply would not pickle) is a NumericError. Every child is reaped before
    this returns or raises; on a raise the ones still running are killed.
    """
    children = []  # (pid, read end of its pipe), in item order, not yet reaped
    try:
        for item in items[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _child(fn, item, write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [fn(items[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                reply = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise NumericError(f"a decode worker process ended without a result ({how})")
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):  # reaped as the raise came
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(fn, item, write: int):
    """The forked child's whole life: fn(item), its pickled outcome written
    to the pipe's write end, then os._exit, status 0 only once it is sent.
    A Ctrl-C reaches this process's group as a whole: the parent reports it
    and kills its children, so a child ignores SIGINT."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    code = 1
    try:
        try:
            reply = (True, fn(item))
        except Exception as exc:  # sent back and raised in the parent
            reply = (False, exc)
        data = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)
