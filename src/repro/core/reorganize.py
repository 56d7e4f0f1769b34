"""``DDR_ReorganizeData``: execute the exchange (paper §III-C).

One ``Alltoallw`` per round; round ``c`` drains chunk slot ``c`` on every
rank.  Because the setup step prebuilt all subarray datatypes, this function
is safe to call repeatedly on *new data with the same layout* — the paper's
"dynamic data" property used by the in-transit use case.

This module is the C-style entry point for the collective backend; the
execution logic itself lives in :class:`repro.core.engine.AlltoallwEngine`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..mpisim.comm import Communicator
from .descriptor import DataDescriptor
from .engine import Buffers, get_engine, mapping_from_descriptor
from .mapping import LocalMapping

# Back-compat re-export: callers historically imported the buffer normaliser
# from here.
from .engine import normalise_own as _normalise_own  # noqa: F401


def reorganize_data(
    comm: Communicator,
    descriptor: DataDescriptor,
    data_own: Buffers,
    data_need: Optional[np.ndarray],
    transport: Optional[str] = None,
) -> None:
    """Redistribute: fill ``data_need`` from everyone's ``data_own`` buffers.

    ``data_own`` is one buffer per owned chunk (a single array is accepted
    for the common one-chunk case); ``data_need`` is the single buffer for
    this rank's needed box.  Buffers may be flat or chunk-shaped but must be
    C-contiguous and exactly sized.

    Repeat calls with the same arrays skip buffer revalidation (the mapping
    caches the accepted set) and — on the default zero-copy transport —
    allocate no staging arrays at all.  ``transport`` forces ``"packed"``,
    ``"zerocopy"`` or ``"shm"`` for this call; ``None`` uses the
    communicator/process default.
    """
    mapping = mapping_from_descriptor(descriptor)
    get_engine("alltoallw").execute(comm, mapping, data_own, data_need, transport)


def reorganize_rounds(descriptor: DataDescriptor) -> int:
    """Number of ``Alltoallw`` calls one :func:`reorganize_data` will make."""
    mapping = descriptor.plan
    if not isinstance(mapping, LocalMapping):
        raise RuntimeError("mapping not set up")
    return mapping.nrounds
