"""The transport seam: how a payload crosses between ranks, and who
releases its resources.

Three wire strategies move typed (uppercase-API) traffic — ``packed``,
``zerocopy`` and ``shm``, described at their constants below.  None
dominates (``benchmarks/e2e`` records all three per layer), so all three
stay, and this module is the only place that tells them apart.

A payload's life is **stage -> (deliver | materialize | discard)**:

* :func:`stage` turns (buffer, datatype, mode) into a payload, charging
  the sender's staging budget (after the alloc-fault hook) for dense and
  shm copies; a rendezvous reference costs no staging memory.
* exactly one of :func:`deliver` (typed receive into a user buffer),
  :func:`materialize` (object-API ``recv`` of a typed send) or
  :func:`discard` (purge, fault-plan drop) then ends it.  The first two
  finish *through* :func:`discard`, on success and on receiver-local error
  alike, so it is the one place that completes a rendezvous sender, marks
  an shm segment drained and returns the budget charge — no outcome can
  strand a sender, a segment or ledger bytes.

Dense payloads stay raw ndarrays (no per-message wrapper), so collective
and object traffic, which :class:`~repro.mpisim.comm.Communicator` posts
dense and uncharged, never enters this module at all.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Optional

import numpy as np

from ..faults.injector import FAULTS
from ..utils.membudget import MEMORY_BUDGET
from ..utils.timing import TRANSFER_COUNTERS
from .datatypes import Datatype, StructType, _may_alias, named_type_for
from .errors import CommunicatorError, TruncationError
from .shm import ShmTicket
from .shm import attach as _shm_attach

#: Rendezvous shared-memory transport: the sender posts a live reference to
#: its buffer and the receiver does one direct copy per lane.  Requires
#: every rank to share one address space (the thread executor).
TRANSPORT_ZEROCOPY = "zerocopy"
#: Eager staged transport: pack -> mailbox payload -> unpack.
TRANSPORT_PACKED = "packed"
#: Staged transport through POSIX shared-memory segments: pack into a
#: shared segment, post a tiny ticket, unpack out of the mapping.  The
#: cross-process analogue of ``packed`` without pickling payload bytes;
#: ``zerocopy`` degrades to this on fabrics that cannot share live buffer
#: references (the process executor).
TRANSPORT_SHM = "shm"

_VALID_TRANSPORTS = (TRANSPORT_ZEROCOPY, TRANSPORT_PACKED, TRANSPORT_SHM)

#: Messages below this many payload bytes skip shm staging: a pickled
#: ndarray through the queue beats a segment round-trip at tiny sizes.
SHM_MIN_BYTES = 512


def _validated_transport(mode: str) -> str:
    if mode in _VALID_TRANSPORTS:
        return mode
    mode = mode.strip().lower()
    if mode not in _VALID_TRANSPORTS:
        raise CommunicatorError(
            f"unknown transport {mode!r} (use one of {_VALID_TRANSPORTS})"
        )
    return mode


#: The process default, read once: ``DDR_TRANSPORT``, else ``zerocopy``.
#: A call picks another wire with its own ``transport=`` argument.
_default_transport = _validated_transport(
    os.environ.get("DDR_TRANSPORT", TRANSPORT_ZEROCOPY)
)


def resolve(supports_zerocopy: bool, mode: Optional[str]) -> str:
    """See :meth:`Communicator.resolve_transport`."""
    mode = _default_transport if mode is None else _validated_transport(mode)
    if mode == TRANSPORT_ZEROCOPY and not supports_zerocopy:
        return TRANSPORT_SHM
    return mode


class _ZeroCopyHandle:
    """Rendezvous payload: a live reference to the sender's buffer.

    The receiver copies straight out of ``buffer`` (through ``datatype``'s
    selection when given) and then completes the handle — on a
    receiver-local failure too; the sender stays in the posting operation
    until then, so the buffer cannot be reused while a receiver reads it.

    "Pending" is a held lock, not an ``Event``: one handle is made per
    lane, and an ``Event`` costs ~3 us to build and ~1 us to set against a
    tenth of that — together a tenth of a small-message exchange.
    """

    __slots__ = ("buffer", "datatype", "dest_world", "_pending")

    def __init__(
        self, buffer: np.ndarray, datatype: Optional[Datatype], dest_world: int
    ) -> None:
        self.buffer = buffer
        self.datatype = datatype
        #: World rank of the receiver, so a sender blocked in the rendezvous
        #: can notice (via the liveness table) that its receiver died.
        self.dest_world = dest_world
        self._pending = threading.Lock()
        self._pending.acquire()

    def complete(self) -> None:
        try:
            self._pending.release()
        except RuntimeError:
            pass  # already complete: completion is idempotent

    def completed(self) -> bool:
        return not self._pending.locked()

    def wait(self, timeout: float) -> bool:
        """The sender's wait for completion; False on timeout."""
        if self._pending.acquire(timeout=timeout):
            self.complete()
            return True
        return False


def _charge(world: int, nbytes: int, what: str) -> int:
    """Alloc-fault hook plus predictive budget reserve for one staged copy.

    Runs *before* the allocation, so over-budget staging is a typed
    :class:`~repro.mpisim.errors.MemoryBudgetError`, not a ``MemoryError``
    mid-pack.  Returns the bytes reserved (0 without a budget).
    """
    if FAULTS.active:
        FAULTS.on_alloc(world, nbytes)
    if MEMORY_BUDGET.active:
        MEMORY_BUDGET.reserve(nbytes, what, rank=world)
        return nbytes
    return 0


def stage(
    fabric: Any,
    world: int,
    dest_world: int,
    buf: np.ndarray,
    datatype: Optional[Datatype],
    mode: str,
    what: str,
    rendezvous: bool,
    checked: bool = False,
) -> tuple[Any, int, Optional[_ZeroCopyHandle]]:
    """Turn one send into ``(payload, charged_bytes, pending)``.

    ``mode`` is a resolved transport.  ``rendezvous`` says the caller will
    stay in the operation until the lane is drained, which is what lets
    ``zerocopy`` post ``buf`` by reference; ``pending`` is then the handle
    the caller must wait on (``None`` for every eager payload).  A buffer
    that cannot be shared safely (not C-contiguous) is staged eagerly
    instead.  ``what`` labels a dense copy in budget errors; ``world`` is
    the sender, whose ledger is charged and whose alloc faults fire.
    ``checked`` says the caller has checked a struct's buffers already
    (:func:`check_sends`).
    """
    if isinstance(datatype, StructType):
        # ``buf`` is the type's buffer sequence; members check their own.
        arr, contiguous, dtype = buf, True, datatype.base_dtype
    else:
        arr = np.asarray(buf)
        contiguous, dtype = arr.flags["C_CONTIGUOUS"], arr.dtype
    if rendezvous and mode == TRANSPORT_ZEROCOPY and contiguous:
        if datatype is not None and not checked:
            # Sender-side geometry/dtype validation, exactly where pack
            # would have raised on an eager path.
            datatype.view(arr)
        handle = _ZeroCopyHandle(arr, datatype, dest_world)
        return handle, 0, handle
    if not contiguous:
        arr = np.ascontiguousarray(arr)
    count = datatype.size_elements() if datatype is not None else int(arr.size)
    nbytes = count * dtype.itemsize
    if mode == TRANSPORT_SHM and nbytes >= SHM_MIN_BYTES:
        charged = _charge(world, nbytes, "shm staging")
        segment = fabric.shm_pool().acquire(nbytes)
        view = segment.view(dtype, count)
        if datatype is not None:
            datatype.pack(arr, out=view)
        else:
            view[:] = arr.reshape(-1)
        if TRANSFER_COUNTERS.enabled:
            TRANSFER_COUNTERS.count_copy("payload", nbytes)
        return ShmTicket(segment.name, dtype.str, count), charged, None
    charged = _charge(world, nbytes, what)
    if datatype is not None:
        return datatype.pack(arr), charged, None
    if TRANSFER_COUNTERS.enabled:
        TRANSFER_COUNTERS.count_alloc(nbytes)
        TRANSFER_COUNTERS.count_copy("payload", nbytes)
    return arr.reshape(-1).copy(), charged, None


def check_sends(sendbuf: Any, sendtypes: Any) -> None:
    """Check every struct's send buffers once, however many of ``sendtypes``
    share a (buffer, grid) pair: an ``Alltoallw`` call or a ``p2p`` round
    checks them all before it posts its first lane, and tells :func:`stage`
    and :func:`copy_local` so."""
    seen: set = set()
    for datatype in sendtypes:
        if type(datatype) is StructType and datatype.size_elements():
            datatype._check(sendbuf, seen)


def copy_local(
    sendbuf: Any, send_type: Datatype, recvbuf: Any, recv_type: Datatype, mode: str,
    checked: bool = False,
) -> None:
    """A rank's lane to itself: no mailbox round-trip on any transport.

    Copies directly unless ``mode`` (a resolved transport) is ``packed``,
    which keeps its pack + unpack profile as the baseline, or the two buffers may
    alias, where pack/unpack is the safe order for an overlapping self-transfer.
    A struct checks its sources here (unless ``checked``: the caller just
    did) and runs its copy program, which carries the aliasing verdict,
    computed for this lane only.
    """
    direct = mode != TRANSPORT_PACKED
    if direct and isinstance(send_type, StructType):
        if not checked:
            send_type.view(sendbuf)
        program = send_type._program(sendbuf, recvbuf, recv_type, local=True)
        if program is not None and not program.overlap:
            send_type._run(program)
            return
    elif direct and not _may_alias(sendbuf, recvbuf):
        send_type.copy_into(sendbuf, recvbuf, recv_type)
        return
    recv_type.unpack(recvbuf, send_type.pack(sendbuf))


def deliver(buf: np.ndarray, datatype: Optional[Datatype], message: Any) -> int:
    """Typed receive: move ``message``'s payload into ``buf`` through
    ``datatype``; returns the bytes written.

    A size mismatch raises :class:`TruncationError` (non-contiguous ``buf``
    without a datatype, :class:`CommunicatorError`).  Whatever happens, the
    payload is finished afterwards — receiver-local errors stay
    receiver-local.
    """
    payload = message.payload
    try:
        if isinstance(payload, _ZeroCopyHandle):
            return _copy_from_sender(buf, datatype, payload)
        if isinstance(payload, ShmTicket):
            payload = _segment_view(payload)
        return _unpack_dense(buf, datatype, payload)
    finally:
        discard(message)


def _check_count(count: int, datatype: Datatype) -> None:
    if datatype.size_elements() != count:
        raise TruncationError(
            f"message of {count} elements does not match receive type "
            f"selecting {datatype.size_elements()}"
        )


def materialize(message: Any) -> Any:
    """Object-API receive: an object send is returned as posted; a typed
    send drained by the lowercase ``recv`` becomes a private dense copy."""
    payload = message.payload
    try:
        if isinstance(payload, _ZeroCopyHandle):
            if payload.datatype is not None:
                return payload.datatype.pack(payload.buffer)
            return payload.buffer.copy()
        if isinstance(payload, ShmTicket):
            return _segment_view(payload).copy()
        return payload
    finally:
        discard(message)


def discard(message: Any) -> None:
    """Finish a message without (or after) delivering it.

    A rendezvous handle must complete or its sender blocks forever; an shm
    segment must be marked drained or it never returns to its pool (the
    attach resolves to the creator-side segment when the sender itself
    discards a dropped message); the budget charge goes back to the
    sender's ledger, idempotently.  Dense payloads fall to the collector.
    """
    payload = message.payload
    try:
        if isinstance(payload, _ZeroCopyHandle):
            payload.complete()
        elif isinstance(payload, ShmTicket):
            _shm_attach(payload.name).mark_drained()
    finally:
        if message.budget_bytes:
            MEMORY_BUDGET.release(message.budget_bytes, rank=message.budget_rank)
            message.budget_bytes = 0


def _segment_view(ticket: ShmTicket) -> np.ndarray:
    """The staged payload a ticket names, as a view of its mapped segment."""
    return _shm_attach(ticket.name).view(np.dtype(ticket.dtype), ticket.count)


def _unpack_dense(buf: np.ndarray, datatype: Optional[Datatype], payload: np.ndarray) -> int:
    """Unpack a dense payload into the user's buffer; returns bytes written."""
    if datatype is not None:
        _check_count(payload.size, datatype)
        datatype.unpack(buf, payload)
        return payload.size * payload.dtype.itemsize
    flat = _flat_receive_buffer(buf, payload.size)
    flat[: payload.size] = payload.astype(flat.dtype, copy=False)
    if TRANSFER_COUNTERS.enabled:
        TRANSFER_COUNTERS.count_copy("unpack", payload.size * payload.dtype.itemsize)
    return payload.size * payload.dtype.itemsize


def _copy_from_sender(
    buf: np.ndarray, datatype: Optional[Datatype], handle: _ZeroCopyHandle
) -> int:
    """Drain a rendezvous lane: copy from the sender's buffer into ``buf``."""
    src_type = handle.datatype
    count = src_type.size_elements() if src_type is not None else int(handle.buffer.size)
    if datatype is not None:
        _check_count(count, datatype)
        if isinstance(src_type, StructType):
            # the sender checked its buffers before it posted them
            return src_type._copy(handle.buffer, buf, datatype)
        if src_type is None:
            src_type = named_type_for(handle.buffer.dtype).Create_contiguous(count)
        return src_type.copy_into(handle.buffer, buf, datatype)
    flat = _flat_receive_buffer(buf, count)
    if src_type is not None:
        nbytes = src_type.size_bytes()
        src_view = src_type.view(handle.buffer)
        if src_view is None:
            flat[:count] = src_type.pack(handle.buffer)
            if TRANSFER_COUNTERS.enabled:
                TRANSFER_COUNTERS.count_copy("payload", nbytes)
            return nbytes
    else:
        nbytes = handle.buffer.nbytes
        src_view = handle.buffer.reshape(-1)
    np.copyto(flat[:count].reshape(src_view.shape), src_view, casting="unsafe")
    if TRANSFER_COUNTERS.enabled:
        TRANSFER_COUNTERS.count_copy("direct", nbytes)
    return nbytes


def _flat_receive_buffer(buf: np.ndarray, count: int) -> np.ndarray:
    """The flat view an untyped receive of ``count`` elements writes into."""
    arr = np.asarray(buf)
    if not arr.flags["C_CONTIGUOUS"]:
        raise CommunicatorError("Recv into a non-contiguous buffer requires a datatype")
    flat = arr.reshape(-1)
    if count > flat.size:
        raise TruncationError(
            f"message of {count} elements truncated: receive buffer holds {flat.size}"
        )
    return flat
