"""One mapper for independent work, lazy (``fork_imap``) or to a list
(``fork_map``): forked worker processes, or in-process.

The workers inherit the function and its items through the fork, so only item
indices and results are pickled: a closure over a fitted pipeline or a
feature matrix costs nothing to hand over.  Fork, not spawn: a spawned worker
would re-import numpy, load the sparse products' kernels again
(``csr.load_kernels``, which the pool loads before it forks) and be sent its
inputs by pickle, and forking is safe because the program starts no threads
(importing ``tweetsent`` pins BLAS to one, and the solver's inner products
do not use BLAS).  ``multiprocessing`` loads on the first pooled call only.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence

from . import csr

# (fn, items) inside a worker process, set by _init_worker from arguments the
# fork hands over without pickling.
_worker_work: tuple | None = None


def cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def _init_worker(fn: Callable, items: Sequence) -> None:
    global _worker_work
    _worker_work = (fn, items)


def _call_in_worker(i: int):
    fn, items = _worker_work
    return fn(items[i])


def fork_imap(fn: Callable, items: Sequence) -> Iterator:
    """``fn(item)`` for each item, in order, as a lazy iterator: from one
    forked worker per CPU (at most one per item), or computed in-process on
    demand with one CPU, one item or no ``fork``.

    The workers start on the first ``next``, after the kernels of the
    sparse products are loaded, and may run ahead of the consumer.  A worker
    that dies raises ``BrokenProcessPool``.
    """
    workers = min(len(items), cpu_count())
    if workers < 2:
        yield from map(fn, items)
        return
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        yield from map(fn, items)
        return
    from concurrent.futures.process import ProcessPoolExecutor

    csr.load_kernels()
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context, initializer=_init_worker, initargs=(fn, items)) as pool:
        yield from pool.map(_call_in_worker, range(len(items)))


def fork_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, computed as ``fork_imap`` does."""
    return list(fork_imap(fn, items))
