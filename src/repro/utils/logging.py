"""Human-readable logging.

:func:`get_logger` is a thin wrapper over :mod:`logging` with a consistent
format, used for progress output from examples and benches.
"""

from __future__ import annotations

import logging
import os
from typing import Optional

__all__ = ["LOG_LEVEL_ENV", "get_logger"]

_FORMAT = "%(asctime)s %(name)s %(levelname)s %(message)s"

#: Environment variable overriding the default log level.  A level name
#: (``DEBUG``, ``warning``) or a numeric value; it rides ``os.environ`` into
#: worker subprocesses, so one export sets the verbosity of a whole fleet.
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"


def _level_from_env(default: int = logging.INFO) -> int:
    """The :data:`LOG_LEVEL_ENV` level, or ``default`` when unset/garbled."""
    raw = os.environ.get(LOG_LEVEL_ENV, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        pass
    resolved = logging.getLevelName(raw.upper())
    return resolved if isinstance(resolved, int) else default


def get_logger(name: str, level: Optional[int] = None) -> logging.Logger:
    """Return a configured :class:`logging.Logger` for ``name``.

    Handlers are attached only once per logger; repeated calls are cheap and
    idempotent, so modules can call this at import time.  With ``level=None``
    (the default) the level comes from :data:`LOG_LEVEL_ENV`, falling back to
    ``INFO``; an explicit ``level`` always wins over the environment.
    """
    logger = logging.getLogger(name)
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(_FORMAT))
        logger.addHandler(handler)
        logger.propagate = False
    logger.setLevel(_level_from_env() if level is None else level)
    return logger
