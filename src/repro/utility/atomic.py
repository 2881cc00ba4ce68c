"""The sanctioned atomic-write helper for every durable artifact.

A durable write that matters (cache entries, manifests, releases,
hierarchy specs, traces) must never be observable half
written: a reader that races the writer — or a process killed mid-write —
must see either the complete old bytes or the complete new bytes.  The
one portable way to get that on POSIX is to write a temporary file *in
the destination's directory* and ``os.replace`` it over the target:
``os.replace`` is atomic only within one filesystem, so a tmp file in
``/tmp`` would silently degrade to a copy on machines where the target
lives on another mount.

The ``repro lint`` codebase rules enforce this discipline: REP302 flags
any bare write-mode ``open`` outside this module, and REP303 flags hand-rolled
temp files that are not created next to their target.  Everything in the
repo that persists state goes through :func:`atomic_writer` (or the
string/bytes conveniences built on it) so the discipline lives in exactly
one place.

Temp names start with a dot (``.{name}.*.tmp``) so directory scanners —
the cache's ``*/*.pkl`` glob, the ART010 store checker — never see them.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import IO, Any, Iterator


@contextlib.contextmanager
def atomic_writer(
    path: str | Path,
    mode: str = "w",
    *,
    encoding: str | None = None,
    newline: str | None = None,
    fsync: bool = False,
) -> Iterator[IO[Any]]:
    """Yield a write handle whose contents replace ``path`` atomically.

    The handle writes a ``tempfile.mkstemp`` file created in ``path``'s
    own directory (created if missing); on normal exit the handle is
    closed — after ``os.fsync`` when ``fsync=True`` — and ``os.replace``d
    over ``path``, on any exception it is closed and unlinked so no
    partial file survives.  ``mode`` must be a write mode (``"w"``,
    ``"wb"``, ``"x"``...); ``encoding``/``newline`` are forwarded for
    text modes exactly as :func:`open` would take them.
    """
    if "r" in mode or "a" in mode or "+" in mode:
        raise ValueError(f"atomic_writer needs a write mode, got {mode!r}")
    open_mode = mode.replace("x", "w")
    open_kwargs: dict[str, Any] = {}
    if "b" not in mode:
        open_kwargs["encoding"] = encoding
        open_kwargs["newline"] = newline
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, open_mode, **open_kwargs) as handle:
            yield handle
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def atomic_write_text(
    path: str | Path,
    text: str,
    *,
    encoding: str | None = "utf-8",
    newline: str | None = None,
    fsync: bool = False,
) -> Path:
    """Atomically replace ``path`` with ``text``; returns the path."""
    with atomic_writer(
        path, "w", encoding=encoding, newline=newline, fsync=fsync
    ) as handle:
        handle.write(text)
    return Path(path)


def atomic_write_bytes(
    path: str | Path, data: bytes, *, fsync: bool = False
) -> Path:
    """Atomically replace ``path`` with ``data``; returns the path."""
    with atomic_writer(path, "wb", fsync=fsync) as handle:
        handle.write(data)
    return Path(path)
