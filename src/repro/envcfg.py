"""Validation for the ``$REPRO_*`` environment knobs.

Every environment variable the toolkit reads goes through one of these
helpers so a typo fails the same way everywhere: a named error that
quotes the variable and the offending value (the behavior
``$REPRO_STUDY_JOBS`` established in the study runner), never a bare
``ValueError: invalid literal for int()`` with no hint of where the
string came from.

    >>> os.environ["REPRO_STUDY_JOBS"] = "two"
    >>> env_int("REPRO_STUDY_JOBS", what="integer worker count")
    EnvVarError: $REPRO_STUDY_JOBS must be an integer worker count,
    got 'two'

Callers that surface their own error taxonomy (the study runner's
``StudyError``) pass it as ``error=``; the message shape stays shared.
"""

from __future__ import annotations

import os
from typing import List, Optional, Type

__all__ = ["EnvVarError", "env_int", "env_int_list"]


class EnvVarError(ValueError):
    """A ``$REPRO_*`` variable holds a value that does not parse."""


def env_int(name: str, default: Optional[int] = None, *,
            what: str = "integer",
            error: Type[Exception] = EnvVarError) -> Optional[int]:
    """``int(os.environ[name])`` with a named error on garbage.

    Unset or blank returns ``default``.  A non-integer value raises
    ``error`` (default :class:`EnvVarError`) naming the variable and
    quoting the offending string.
    """
    raw = (os.environ.get(name) or "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise error(
            f"${name} must be an {what}, got {raw!r}") from None


def env_int_list(name: str, *,
                 what: str = "comma-separated integer list",
                 error: Type[Exception] = EnvVarError) -> Optional[List[int]]:
    """Parse ``$name`` as a comma-separated integer list.

    Unset or blank returns None.  Non-integer items — or a value whose
    items are all blank (``","``) — raise ``error`` naming the variable
    and quoting the raw value, so ``REPRO_POINTS=32,6a4`` fails loudly
    instead of deep inside ``int()``.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    items = [x.strip() for x in raw.split(",") if x.strip()]
    if not items:
        raise error(
            f"${name} must be a {what}, got {raw!r} "
            "(parsed to an empty list)")
    try:
        return [int(x) for x in items]
    except ValueError:
        raise error(
            f"${name} must be a {what}, got {raw!r}") from None
