import os
import stat
import threading

import pytest

from convlab.ioutil import atomic_write_bytes, atomic_write_text


def test_new_file_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        atomic_write_bytes(str(tmp_path / "a.bin"), b"abc")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "a.bin").st_mode) == 0o640
    assert (tmp_path / "a.bin").read_bytes() == b"abc"


def test_overwrite_keeps_mode_and_leaves_no_temp(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old")
    os.chmod(path, 0o604)
    atomic_write_text(str(path), "new")
    assert path.read_text() == "new"
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o604
    assert os.listdir(tmp_path) == ["a.txt"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    atomic_write_bytes(str(fifo), b"payload")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [b"payload"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]
