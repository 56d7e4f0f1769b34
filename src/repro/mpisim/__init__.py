"""In-process MPI runtime (threads + mailboxes) with mpi4py-style API.

This substitutes for the real MPI the paper's DDR library runs on: the same
point-to-point matching rules, derived datatypes (including the subarray
types DDR builds), and the collectives the library and use cases require —
most importantly ``Alltoallw``.
"""

from . import datatypes
from .comm import ANY_SOURCE, ANY_TAG, Communicator
from .datatypes import (
    BYTE,
    CHAR,
    ContiguousType,
    Datatype,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    NamedType,
    SHORT,
    StructType,
    SubarrayType,
    UNSIGNED,
    UNSIGNED_CHAR,
    UNSIGNED_LONG,
    UNSIGNED_SHORT,
    named_type_for,
)
from .errors import (
    AbortError,
    CommunicatorError,
    CorruptionError,
    DatatypeError,
    DeadlineError,
    FaultInjectionError,
    MemoryBudgetError,
    MpiSimError,
    ProcessFailedError,
    RankCrashError,
    RetriesExhaustedError,
    RevokedError,
    TransientFaultError,
    TruncationError,
)
from .executor import (
    EXECUTOR_PROCESS,
    EXECUTOR_THREAD,
    RankFailure,
    SpmdHangError,
    default_executor,
    run_spmd,
    world_communicators,
)
from .fabric import Fabric
from .request import Request, Status, wait_all
from .shm import ShmArena, ShmStagingPool, ShmTicket
from .transport import TRANSPORT_PACKED, TRANSPORT_SHM, TRANSPORT_ZEROCOPY

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "AbortError",
    "BYTE",
    "CHAR",
    "Communicator",
    "CommunicatorError",
    "ContiguousType",
    "CorruptionError",
    "DOUBLE",
    "Datatype",
    "DatatypeError",
    "DeadlineError",
    "EXECUTOR_PROCESS",
    "EXECUTOR_THREAD",
    "FLOAT",
    "Fabric",
    "FaultInjectionError",
    "INT",
    "LONG",
    "MemoryBudgetError",
    "MpiSimError",
    "NamedType",
    "ProcessFailedError",
    "RankCrashError",
    "RankFailure",
    "Request",
    "RetriesExhaustedError",
    "RevokedError",
    "SHORT",
    "ShmArena",
    "ShmStagingPool",
    "ShmTicket",
    "SpmdHangError",
    "Status",
    "StructType",
    "SubarrayType",
    "TRANSPORT_PACKED",
    "TRANSPORT_SHM",
    "TRANSPORT_ZEROCOPY",
    "TransientFaultError",
    "TruncationError",
    "UNSIGNED",
    "UNSIGNED_CHAR",
    "UNSIGNED_LONG",
    "UNSIGNED_SHORT",
    "datatypes",
    "default_executor",
    "named_type_for",
    "run_spmd",
    "wait_all",
    "world_communicators",
]
