"""Atomic file writes: temp file in the target directory, then rename.

A target that exists and is not a regular file (a device, a FIFO) is written
in place instead, since a rename would replace it with a regular file.
"""

from __future__ import annotations

import os
import stat
import tempfile


def _new_file_mode() -> int:
    """The mode ``open()`` gives a new file: 0o666 less the process umask."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def atomic_write_bytes(path: str, data: bytes) -> None:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "wb") as fh:
            fh.write(data)
        return
    mode = stat.S_IMODE(st.st_mode) if st is not None else _new_file_mode()
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
