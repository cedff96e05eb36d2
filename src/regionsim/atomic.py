"""Artifact files that appear whole or not at all.

:func:`atomic_open` writes to a fresh temporary file beside the target and
moves it over the target with ``os.replace`` once the ``with`` block ends
normally. An exception removes the temporary file, so a failed write
leaves neither a partial target nor a stray file; an earlier target stays
as it was.
"""

from __future__ import annotations

import contextlib
import os
import uuid

from .errors import ParameterError


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` for writing, made atomic; ``mode`` is
    ``"w"`` or ``"wb"``."""
    if mode not in ("w", "wb"):
        raise ParameterError(f"atomic_open writes whole files, mode 'w' or 'wb', not {mode!r}")
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        # Exclusive create, with the permissions plain open() would give.
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
