"""One mapper for independent work, lazy (``fork_imap``) or to a list
(``fork_map``): forked worker processes, or in-process.

The workers inherit the function and its items through the fork, so only item
indices and results are pickled: a closure over a fitted pipeline or a
feature matrix costs nothing to hand over.  The caller hands the items over
too: once every worker has forked, the mapper keeps no reference to them,
and in-process it drops each item once ``fn`` has returned, so a caller that
keeps none either (as a study does with a build's solve problems and their
training matrix) frees them while the results come in.  Fork, not spawn: a
spawned worker would re-import numpy, load the sparse products' kernels
again (``csr.load_kernels``, which the pool loads before it forks) and be
sent its inputs by pickle, and forking is safe because the program starts no
threads (importing ``tweetsent`` pins BLAS to one, and the solver's inner
products do not use BLAS).  ``multiprocessing`` loads on the first pooled
call only.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterator, Sequence

from . import csr

# (fn, items) of the pool being started: set in the parent while it submits
# the work, which forks every worker, and cleared once it has; each worker
# keeps the copy it was forked with.
_handed_over: tuple | None = None


def cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def _call_in_worker(i: int):
    fn, items = _handed_over
    return fn(items[i])


def fork_imap(fn: Callable, items: Sequence) -> Iterator:
    """``fn(item)`` for each item, in order, as a lazy iterator: from one
    forked worker per CPU (at most one per item), or computed in-process on
    demand with one CPU, one item or no ``fork``.

    The workers start on the first ``next``, after the kernels of the
    sparse products are loaded, and may run ahead of the consumer.  From
    then on the iterator holds no item, and in-process it holds only the
    items not yet mapped.  A worker that dies raises ``BrokenProcessPool``.
    """
    global _handed_over
    n_items = len(items)
    workers = min(n_items, cpu_count())
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers < 2:
        pending = deque(items)
        del items
        while pending:
            yield fn(pending.popleft())
        return
    from concurrent.futures.process import ProcessPoolExecutor

    csr.load_kernels()
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        # ``map`` submits every index before it returns, and a pool without
        # ``max_tasks_per_child`` forks its workers only while work is submitted.
        _handed_over = (fn, items)
        try:
            results = pool.map(_call_in_worker, range(n_items))
        finally:
            _handed_over = None
        del items
        yield from results


def fork_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, computed as ``fork_imap`` does."""
    return list(fork_imap(fn, items))
