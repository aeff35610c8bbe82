"""Fixed work that reads how fast the host runs at the moment.

The benchmark runs on shared hosts whose speed swings, for seconds to
minutes at a time, by 1.5x or more, while the program does the same work.
Every timed operation is paired with readings of this block, taken right
next to it, and the reported times are normalised by them:

    normalised = measured * REF_BLOCK_S / (median block time nearby)

that is, the time the operation would take on a host where one block takes
``REF_BLOCK_S``.  The block is the benchmark's own code and never changes
with the program, so a change to the program moves the normalised times as
it would move raw times on a steady host.  The block mixes the kinds of
work the program does (a Python loop over small records, JSON decoding,
small numpy array operations) so that a slow spell slows both alike.

Work that starts processes is paired instead with ``start()``: a fresh
interpreter that runs this file, which imports numpy and runs a few
blocks.  A block alone swings more with the host's state than a process
start and import does (1.8x, against 1.6x for a start and 1.5x for
``thermeval --version``, in 75 seconds of readings), so it would
over-correct the command-line workload and set-up times.

    python perfbench/hostref.py     # what start() times
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

# nominal time of one block; a normalised time is in seconds at this speed
REF_BLOCK_S = 1e-3
# blocks read before and after an operation that runs long (a detection file)
BATCH = 8
# nominal time of start(); a time normalised by starts is in seconds at this speed
REF_START_S = 0.15
START_BLOCKS = 10

_BLOB = json.dumps([
    {"image_id": i % 37, "category_id": 1 + i % 5,
     "bbox": [i * 0.5, i / 3.0, 10.0 + i % 11, 12.0 + i % 7], "score": (i % 97) / 97.0}
    for i in range(120)
])
_BOXES = np.random.default_rng(12345).random((24, 4)) * 50.0


def _work() -> float:
    records = json.loads(_BLOB)
    cells: dict = {}
    for r in records:
        cells.setdefault((r["image_id"], r["category_id"]), []).append((r["score"], r["bbox"]))
    total = 0.0
    for key in sorted(cells):
        rows = sorted(cells[key], key=lambda row: -row[0])
        total += sum(b[2] * b[3] for _, b in rows)
    a = _BOXES
    for _ in range(12):
        x1 = np.maximum(a[:, None, 0], a[None, :, 0])
        y1 = np.maximum(a[:, None, 1], a[None, :, 1])
        x2 = np.minimum(a[:, None, 0] + a[:, None, 2], a[None, :, 0] + a[None, :, 2])
        y2 = np.minimum(a[:, None, 1] + a[:, None, 3], a[None, :, 1] + a[None, :, 3])
        inter = np.clip(x2 - x1, 0, None) * np.clip(y2 - y1, 0, None)
        order = np.argsort(-inter.sum(axis=1), kind="stable")
        total += float(np.cumsum(inter[order, 0])[-1])
    return total


def block() -> float:
    """Seconds one block takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def batch(n: int) -> list[float]:
    return [block() for _ in range(n)]


def start() -> float:
    """Seconds a fresh interpreter takes to run this file."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True, capture_output=True)
    return time.perf_counter() - t0


def scale(readings: list[float], nominal: float) -> float:
    """Factor that turns a time measured next to these readings (of a
    reference whose nominal time is ``nominal``) into a normalised time."""
    return nominal / statistics.median(readings)


def rolling_scales(readings: list[float], window: int, nominal: float) -> list[float]:
    """For each position, the scale of the readings within ``window``
    positions of it on either side."""
    n = len(readings)
    return [scale(readings[max(0, i - window):i + window + 1], nominal) for i in range(n)]


if __name__ == "__main__":
    batch(START_BLOCKS)
