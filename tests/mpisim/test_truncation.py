"""TruncationError surfaces identically under both transports.

The packed transport stages a copied payload; the zero-copy transport can
hand the receiver a live rendezvous reference to the sender's buffer.  A
receive buffer too small for the message must raise ``TruncationError`` on
the receiver in either mode — and a rendezvous sender must still be
released (receiver-local errors stay receiver-local, as in MPI).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpisim import (
    FLOAT,
    TRANSPORT_PACKED,
    TRANSPORT_ZEROCOPY,
    TruncationError,
)
from tests.conftest import spmd


@pytest.fixture(params=[TRANSPORT_PACKED, TRANSPORT_ZEROCOPY])
def mode(request):
    return request.param


class TestP2PTruncation:
    def test_recv_buffer_too_small(self, mode):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.arange(10, dtype=np.float64), dest=1, transport=mode)
            else:
                with pytest.raises(TruncationError):
                    comm.Recv(np.zeros(3), source=0)
            return True

        assert all(spmd(2, fn, deadlock_timeout=5.0))

    def test_recv_type_selection_mismatch(self, mode):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.arange(8, dtype=np.float32), dest=1,
                          datatype=FLOAT.Create_contiguous(8), transport=mode)
            else:
                with pytest.raises(TruncationError):
                    comm.Recv(np.zeros(4, dtype=np.float32), source=0,
                              datatype=FLOAT.Create_contiguous(4))
            return True

        assert all(spmd(2, fn, deadlock_timeout=5.0))


class TestRendezvousTruncation:
    def test_truncation_releases_rendezvous_sender(self):
        """The receiver's truncation must not strand the sender inside its
        posted rendezvous Isend."""

        def fn(comm):
            if comm.rank == 0:
                request = comm.Isend(np.arange(10, dtype=np.float64), dest=1,
                                     rendezvous=True, transport=TRANSPORT_ZEROCOPY)
                request.wait()  # must complete despite the receiver's error
            else:
                with pytest.raises(TruncationError):
                    comm.Recv(np.zeros(3), source=0)
            return True

        assert all(spmd(2, fn, deadlock_timeout=5.0))
