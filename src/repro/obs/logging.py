"""Structured logging for the CLI and harness paths.

Diagnostic chatter (progress, check failures, shape-check failures)
used to go through bare ``print(..., file=sys.stderr)`` calls, which
cannot be silenced, levelled or machine-parsed.  Every such path now
logs through a child of the ``repro`` logger; the CLI's global
``--log-level`` / ``--quiet`` / ``--log-json`` flags configure it once
in ``main()``.

Primary *results* (report tables, rendered figures) stay on stdout via
``print`` — they are the program's output, not diagnostics.

As a library, ``repro`` never configures handlers: importing this
module attaches a :class:`logging.NullHandler` to the root ``repro``
logger, so embedding applications keep full control.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any, Dict, Optional, TextIO

LOGGER_NAME = "repro"

LOG_LEVELS = ("debug", "info", "warning", "error")


class JsonFormatter(logging.Formatter):
    """One JSON object per line: timestamp, level, logger, message."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 3),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(payload)


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """A child of the ``repro`` logger (or the root one when unnamed)."""
    if name is None or name == LOGGER_NAME:
        return logging.getLogger(LOGGER_NAME)
    if name.startswith(LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{LOGGER_NAME}.{name}")


def setup_logging(
    level: str = "info",
    json_lines: bool = False,
    quiet: bool = False,
    stream: Optional[TextIO] = None,
) -> logging.Logger:
    """Configure the ``repro`` logger for a CLI invocation.

    Replaces any handlers from a previous call (the CLI entry points
    may be invoked repeatedly in-process, e.g. from tests), so the
    configuration is idempotent.  ``quiet`` raises the threshold to
    errors-only regardless of *level*.
    """
    if level not in LOG_LEVELS:
        raise ValueError(f"unknown log level {level!r}; choose from {LOG_LEVELS}")
    logger = logging.getLogger(LOGGER_NAME)
    for handler in list(logger.handlers):
        if not isinstance(handler, logging.NullHandler):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    if json_lines:
        handler.setFormatter(JsonFormatter())
    else:
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(
        logging.ERROR if quiet else getattr(logging, level.upper())
    )
    logger.propagate = False
    return logger


# Library default: silent unless an application (or setup_logging)
# attaches a real handler.
logging.getLogger(LOGGER_NAME).addHandler(logging.NullHandler())
