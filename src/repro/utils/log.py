"""Minimal logging facade (stdlib logging, library-safe defaults)."""

from __future__ import annotations

import logging
from typing import Optional

_ROOT_NAME = "repro"

#: The one console handler this facade manages; reused across calls so
#: repeated ``enable_console_logging()`` invocations (two example scripts in
#: one process, test setup run twice) never duplicate log lines.
_console_handler: Optional[logging.Handler] = None


def enable_console_logging(level: int = logging.INFO) -> None:
    """Attach a stderr handler — used by the example scripts, never implicitly.

    Idempotent: repeat calls reuse the same handler (updating the level)
    instead of stacking a fresh ``StreamHandler`` each time.
    """
    global _console_handler
    root = logging.getLogger(_ROOT_NAME)
    if _console_handler is None:
        _console_handler = logging.StreamHandler()
        _console_handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
        )
    if _console_handler not in root.handlers:
        root.addHandler(_console_handler)
    root.setLevel(level)


def disable_console_logging() -> None:
    """Detach the console handler attached by :func:`enable_console_logging`."""
    global _console_handler
    if _console_handler is not None:
        logging.getLogger(_ROOT_NAME).removeHandler(_console_handler)
        _console_handler = None
