"""The CSV of sweep columns, formatted as bytes in blocks by up to ``jobs`` processes.

Only the commands that write a CSV import this module, so the others do not
compile it.
"""
from __future__ import annotations

import os

import numpy as np

__all__ = ["BLOCK_ROWS", "write_csv"]

# Rows formatted per block: the writer's memory depends on this, not on the
# row count.
BLOCK_ROWS = 4096
HEADER = b"axis,r,phi_opt,signal,noise,f_min,f_sql\n"


def write_csv(fh, axis: str, columns, jobs: int) -> None:
    """Write the CSV of sweep columns to ``fh``: the header, then each block in order.

    ``columns`` maps the quantities of ``sweep.fmin_columns`` to arrays of
    at most two dimensions that broadcast to (points, ratios); rows run in C
    order.  Block i comes from process i % n, n = min(jobs, blocks, CPUs
    this process may use): this one, or a forked worker that formats its
    blocks while the earlier ones are written.  The workers start after the
    header and are all reaped before this function returns or raises.
    This process formats the blocks itself where it runs more than one OS
    thread or cannot count them, or where a fork fails or a worker stops
    early, so the bytes are the same for any ``jobs``.
    """
    count, block = _blocks(axis, columns)
    fh.write(HEADER)
    # A fork copies only this thread, and a lock that another one holds stays
    # held in the child.  Threads are counted only where /proc lists them,
    # on Linux, which has os.fork and os.sched_getaffinity.
    n = min(jobs, count, len(os.sched_getaffinity(0))) if jobs > 1 and _threads() == 1 else 1
    readers = [None]
    pids = []
    try:
        for first in range(1, n):
            fd_read, fd_write = os.pipe()
            readers.append(open(fd_read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _send_blocks(block, range(first, count, n), fd_write, readers[1:])
                pids.append(pid)
            except OSError:
                pass  # an empty pipe: this process formats the blocks
            os.close(fd_write)
        for i in range(count):
            reader = readers[i % n]
            fh.write((reader and _received(reader)) or block(i))
    finally:
        for reader in readers[1:]:
            reader.close()  # a worker still writing gets EPIPE and exits
        for pid in pids:
            os.waitpid(pid, 0)


def _threads() -> int:
    """The number of OS threads this process runs, or 0 where it cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _blocks(axis: str, columns):
    """(block count, function giving the CSV bytes of block i).

    A block holds whole grid points, about BLOCK_ROWS rows, formatted as bytes
    by one ``%``, whose ``%.12g`` gives the digits of ``str %``.  Nearly all
    the time goes to ``%.12g``, so a column constant along an axis is formatted
    once along it and its text repeated, the same text as every row's value.
    """
    names = (axis, "ratio", "phi", "signal", "noise", "f_min", "f_sql")
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    arrays = [a.reshape((1,) * (2 - a.ndim) + a.shape) for a in arrays]
    points, ratios = np.broadcast_shapes(*(a.shape for a in arrays))
    step = max(1, BLOCK_ROWS // ratios)
    width = len(arrays)

    def block(i: int) -> bytes:
        lo = i * step
        count = min(points - lo, step)
        fields = [None] * (width * count * ratios)
        formats = []
        for k, values in enumerate(arrays):
            if len(values) > 1:
                values = values[lo : lo + count]
            if values.shape == (count, ratios):
                fields[k::width] = values.ravel().tolist()
                formats.append(b"%.12g")
                continue
            # one value per point, per ratio or in all: its text goes into every row
            texts = (b"%.12g\n" * values.size % tuple(values.ravel().tolist())).split(b"\n")[:-1]
            for j in range(ratios):
                fields[width * j + k :: width * ratios] = (
                    texts if len(values) > 1 else [texts[j % len(texts)]] * count
                )
            formats.append(b"%s")
        return (b",".join(formats) + b"\n") * (count * ratios) % tuple(fields)

    return -(-points // step), block


def _send_blocks(block, blocks, fd: int, readers) -> None:
    """In a forked worker: send each of ``blocks`` down pipe ``fd``, then exit.

    Each block goes as its length in 8 bytes, then its bytes.  The worker
    closes the ``readers`` it inherited, so a pipe whose reader is gone
    fails its writer, and leaves only through ``os._exit``: it must not
    flush the buffers or run the cleanup of the process it was forked from.
    """
    code = 1
    try:
        for reader in readers:
            os.close(reader.fileno())
        with open(fd, "wb") as pipe:
            for i in blocks:
                data = block(i)
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _received(reader) -> bytes | None:
    """The next block a worker sent, or None once it sends no more."""
    head = reader.read(8)
    size = int.from_bytes(head, "little") if len(head) == 8 else 0
    data = reader.read(size) if size else b""
    return data if size and len(data) == size else None
