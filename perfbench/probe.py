"""CPU-speed probe: a low-priority loop that shares the jobs' CPU.

    python3 perfbench/probe.py BUFFER_FILE

On a shared host, other tenants change the speed one vCPU delivers, by up to
1.7x, in spells of seconds to minutes. The runner pins itself, its jobs and
this probe to one CPU. The probe runs at nice 19, so it gets about 1.5% of
that CPU while a job runs, a fraction of a millisecond at a time, and sees
the speed the job sees. It counts fixed chunks of work (make_chunk) against
its own CPU time and publishes both in BUFFER_FILE, which the runner reads
before and after each job. A pass's wall time times its chunks per CPU
second, over REFERENCE_CHUNKS_PER_S, is that wall time at the reference
speed. The probe exits when the runner does.
"""

from __future__ import annotations

import mmap
import os
import random
import struct
import subprocess
import sys
import time
from typing import Callable

import numpy as np

# the chunk rate this benchmark calls speed 1: about the probe's rate alone
# on the 2-core Xeon host the benchmark was written on (CPython 3.11); shared
# with a job there, it read 0.7 to 1.4 times this
REFERENCE_CHUNKS_PER_S = 3000.0
# sequence (odd while a write is in progress), chunks done, probe CPU time in ns
LAYOUT = struct.Struct("qqq")


def make_chunk() -> Callable[[], None]:
    """One chunk of work of the kinds artloc does, 0.3 to 0.45 ms: visit Python
    objects scattered over a heap of several MB, multiply small int64
    matrices mod p, and build short-lived tuples. A bare arithmetic loop
    would miss the slowdown that other tenants cause through the caches: on
    the host above it followed the jobs' wall times only about half as well."""
    heap = [10**6 + i for i in range(400_000)]  # ints above 256 are objects of their own
    random.Random(0).shuffle(heap)
    a = np.arange(256, dtype=np.int64).reshape(16, 16)
    pos = 0

    def chunk() -> None:
        nonlocal pos
        total = 0
        for obj in heap[pos:pos + 1000]:
            total += obj
        pos = (pos + 1000) % (len(heap) - 1000)
        x = a
        for _ in range(8):
            x = (x @ a) % 7
        [tuple(range(i % 7)) for i in range(300)]

    return chunk


def spin(path: str) -> None:
    os.nice(19)
    parent = os.getppid()
    with open(path, "r+b") as fh:
        buf = mmap.mmap(fh.fileno(), LAYOUT.size)
    chunk = make_chunk()
    chunks = seq = 0
    start = time.thread_time_ns()
    while os.getppid() == parent:
        chunk()
        chunks += 1
        cpu = time.thread_time_ns() - start
        struct.pack_into("q", buf, 0, seq + 1)
        struct.pack_into("qq", buf, 8, chunks, cpu)
        seq += 2
        struct.pack_into("q", buf, 0, seq)


class SpeedProbe:
    """The probe process, started on entry and killed and reaped on exit."""

    def __init__(self, workdir: str):
        path = os.path.join(workdir, "speed.buf")
        with open(path, "wb") as fh:
            fh.write(bytes(LAYOUT.size))
        with open(path, "r+b") as fh:
            self._buf = mmap.mmap(fh.fileno(), LAYOUT.size)
        self._path = path
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "SpeedProbe":
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), self._path])
        deadline = time.monotonic() + 10
        while self.sample()[0] == 0:
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()
        self._buf.close()

    def sample(self) -> tuple[int, int]:
        """(chunks done, probe CPU ns) as of the probe's last finished chunk."""
        while True:
            seq, chunks, cpu = LAYOUT.unpack_from(self._buf)
            if seq % 2 == 0 and struct.unpack_from("q", self._buf)[0] == seq:
                return chunks, cpu


if __name__ == "__main__":
    spin(sys.argv[1])
