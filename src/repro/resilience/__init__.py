"""Crash survival for redistributions: ULFM-style recovery + buddy checkpoints.

Layers (see DESIGN.md "Resilience"):

* ``repro.mpisim`` supplies the primitives — communicator revocation,
  fault-aware agreement, and ``Comm.shrink()``;
* this package supplies the data plane — :class:`CheckpointPolicy` /
  :class:`BuddyStore` replication (shared-memory backed on the process
  executor via :class:`ShmBuddyStore`) and :class:`ResilientRedistributor`,
  which revokes, agrees, shrinks, adopts lost chunks from checkpoints and
  replays rolled-back epochs when a peer dies mid-exchange — and, through
  the same ``Redistributor.retarget`` path, voluntary elastic resizing
  (``ResilientRedistributor.resize``);
* ``repro.intransit`` builds pipeline reconfiguration on top
  (``PipelineConfig.on_rank_loss`` / ``resize_schedule``), recovering with
  the same protocol: :func:`recoverable`, :func:`agree_failures`,
  ``CheckpointPolicy.adopter`` and :func:`restore`.
"""

from .checkpoint import BuddyStore, CheckpointPolicy, restore, shared_store
from .errors import DataLossError, ReconfigurationError
from .redistributor import RESILIENCE_STATS, ResilientRedistributor, agree_failures, recoverable
from .shmstore import ShmBuddyStore

__all__ = [
    "BuddyStore",
    "CheckpointPolicy",
    "DataLossError",
    "RESILIENCE_STATS",
    "ReconfigurationError",
    "ResilientRedistributor",
    "ShmBuddyStore",
    "agree_failures",
    "recoverable",
    "restore",
    "shared_store",
]
