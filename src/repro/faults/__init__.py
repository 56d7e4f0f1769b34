"""Fault injection and self-healing redistribution.

Deterministic chaos for the in-process fabric: a seeded
:class:`~repro.faults.plan.FaultPlan` describes what goes wrong (message
delay, drop, transient send/recv failure, payload corruption, rank crash,
round-entry failure), the :data:`~repro.faults.injector.FAULTS` layer
injects it at the transport's choke points, and a
:class:`~repro.faults.policy.ReliabilityPolicy` configures the recovery
machinery — transport retries with exponential backoff, checksum
verify-and-reretrieve, per-operation deadlines, engine round retries, and
the in-transit pipeline's frame-drop policy.

The chaos harness lives in :mod:`repro.faults.chaos` (imported lazily by
the ``python -m repro chaos`` CLI; it pulls in the whole runtime, so it is
deliberately not re-exported here).
"""

from .injector import (
    FAULTS,
    FaultLayer,
    clear_fault_plan,
    fault_plan,
    install_fault_plan,
)
from .plan import FAULT_KINDS, FaultPlan, FaultSpec
from .policy import CORRUPTION_RAISE, CORRUPTION_RERETRIEVE, ReliabilityPolicy

__all__ = [
    "CORRUPTION_RAISE",
    "CORRUPTION_RERETRIEVE",
    "FAULTS",
    "FAULT_KINDS",
    "FaultLayer",
    "FaultPlan",
    "FaultSpec",
    "ReliabilityPolicy",
    "clear_fault_plan",
    "fault_plan",
    "install_fault_plan",
]
