"""Nonblocking-operation handles (MPI_Request analogues).

The runtime delivers eagerly (sends buffer their payload at post time), so a
send request is complete immediately; a receive request completes when a
matching message is consumed from the mailbox.  ``wait``/``test`` mirror
``MPI_Wait``/``MPI_Test``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Status:
    """Completion metadata, as in ``MPI_Status``."""

    source: int = -1
    tag: int = -1
    count_bytes: int = 0


class Request:
    """Base request; complete when :meth:`test` returns True."""

    def test(self) -> bool:
        raise NotImplementedError

    def wait(self) -> Status:
        raise NotImplementedError


class CompletedRequest(Request):
    """A request that was satisfied at post time (eager sends)."""

    def __init__(self, status: Optional[Status] = None) -> None:
        self._status = status or Status()

    def test(self) -> bool:
        return True

    def wait(self) -> Status:
        return self._status


class DeferredRequest(Request):
    """A request backed by callables supplied by the communicator."""

    def __init__(
        self,
        test_fn: Callable[[], bool],
        wait_fn: Callable[[], Status],
    ) -> None:
        self._test_fn = test_fn
        self._wait_fn = wait_fn
        self._status: Optional[Status] = None

    def test(self) -> bool:
        if self._status is not None:
            return True
        return self._test_fn()

    def wait(self) -> Status:
        if self._status is None:
            self._status = self._wait_fn()
        return self._status


def wait_all(requests: list[Request]) -> list[Status]:
    """``MPI_Waitall``: wait on every request, returning their statuses."""
    return [request.wait() for request in requests]
