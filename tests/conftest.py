"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import Box, round_protocol
from repro.core.engine import executed_rounds
from repro.mpisim import TRANSPORT_ZEROCOPY, default_executor, run_spmd
from repro.utils.timing import TRANSFER_COUNTERS

#: CI runs ``pytest --hypothesis-profile=ci``: the same examples on every
#: run, so a red build is a regression rather than a new draw.
settings.register_profile("ci", derandomize=True, deadline=None)

#: Marker for tests that only make sense when SPMD ranks share one address
#: space: live zero-copy rendezvous, process-wide counter/blackboard
#: singletons, driver-side ``threading.Event`` control of ranks.  Skipped
#: when ``DDR_EXECUTOR=process`` makes the whole run use forked ranks;
#: tests/mpisim/test_process_executor.py covers the process-side twins.
thread_only = pytest.mark.skipif(
    default_executor() == "process",
    reason="thread-executor semantics (shared address space)",
)


def spmd(nprocs, fn, *args, **kwargs):
    """run_spmd with a short deadlock timeout so broken tests fail fast."""
    kwargs.setdefault("deadlock_timeout", 20.0)
    return run_spmd(nprocs, fn, *args, **kwargs)


def slab_exchange(nprocs, side, dense):
    """Row slabs of a ``side`` x ``side`` grid, needed as column slabs (dense:
    everyone talks to everyone) or one rank over (sparse ring): owns, needs."""
    rows = side // nprocs
    owns = [[Box((0, r * rows), (side, rows))] for r in range(nprocs)]
    if dense:
        return owns, [Box((r * rows, 0), (rows, side)) for r in range(nprocs)]
    return owns, [Box((0, (r + 1) % nprocs * rows), (side, rows)) for r in range(nprocs)]


def every_lane(rnd, side):
    """An executed round's ``"send"`` or ``"recv"`` lanes, its self lane
    included, ordered by peer (the order of the Alltoallw type tables)."""
    lanes, own = getattr(rnd, side + "s"), getattr(rnd, "self_" + side)
    return lanes if own is None else sorted(lanes + [own], key=lambda lane: lane.peer)


def counted_region(comm, fn):
    """Collective: run ``fn()`` with transfer counting on, return a snapshot.

    The counters are one process-wide singleton while SPMD ranks are
    threads, so enable/reset must happen on exactly one rank and be fenced
    by barriers — otherwise a late rank's reset wipes counts already made
    by an early one.  The snapshot covers *all* ranks' traffic.
    """
    counters = TRANSFER_COUNTERS
    comm.Barrier()
    if comm.rank == 0:
        counters.reset()
        counters.enabled = True
    comm.Barrier()
    result = fn()
    comm.Barrier()
    snapshot = counters.snapshot()
    comm.Barrier()
    if comm.rank == 0:
        counters.enabled = False
    return result, snapshot


@pytest.fixture
def rng():
    return np.random.default_rng(20170529)  # IPPS 2017 venue date


def engine_choices(red):
    """Per planned round of ``red``'s mapping, the wire protocol (``alltoallw``
    or ``p2p``) an exchange through its backend and transport runs it with
    under the installed memory budget, read off the executed rounds: a round
    run in pieces answers once.  The planned-protocol oracle the trace and
    the wire are compared with."""
    zero_copy = red.comm.resolve_transport(red.transport) == TRANSPORT_ZEROCOPY
    return [
        round_protocol(red.backend, rnd)
        for rnd in executed_rounds(red.mapping, red.backend, zero_copy)
        if rnd.piece == 0
        for _ in rnd.members
    ]
