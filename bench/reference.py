"""Fixed reference kernels that time the host next to each workload.

The host this benchmark runs on is shared: its speed drifts by tens of
percent over minutes, and a whole run can land in a slow stretch. Every
workload therefore names one kernel here whose work resembles its own
(small-matrix Python loops, dense BLAS, or per-row ranking). A kernel call
takes about 0.2 s; three run before the first timed unit and three after
every unit. The end-to-end `wall_rel` divides each unit's time by the mean
kernel call just before and after it. A slower host stretches both; a
slower program stretches only the unit.

The kernels use numpy alone, never xmodal, and their inputs are fixed (they
do not depend on `--seed`), so a change to the program cannot move them.
"""

from __future__ import annotations

import numpy as np


class SmallOps:
    """Tape-style training on 64-wide matrices: Python and dispatch bound."""

    def __init__(self, steps: int = 1500):
        rng = np.random.default_rng(1)
        self.steps = steps
        self.x = rng.standard_normal((64, 64))
        self.w = rng.standard_normal((64, 114)) * 0.1
        self.v = rng.standard_normal((114, 64)) * 0.1

    def __call__(self) -> float:
        acc = 0.0
        for _ in range(self.steps):
            tape = []
            h = self.x @ self.w
            tape.append(("matmul", h))
            a = np.maximum(h, 0.0)
            tape.append(("relu", a))
            y = a @ self.v
            tape.append(("matmul", y))
            loss = float(np.mean(np.square(y - self.x)))
            g = 2.0 * (y - self.x) / y.size
            for _op, out in reversed(tape):
                g = g * 0.5 + float(out.mean())
            acc += loss + float(g.sum())
        return acc


class Dense:
    """Forward and backward products of a 512-wide layer on 256 rows: BLAS bound."""

    def __init__(self, reps: int = 32):
        rng = np.random.default_rng(2)
        self.reps = reps
        self.x = rng.standard_normal((256, 512))
        self.w = rng.standard_normal((512, 512)) / np.sqrt(512.0)

    def __call__(self) -> float:
        acc = 0.0
        for _ in range(self.reps):
            h = self.x @ self.w
            a = np.maximum(h, 0.0)
            gw = self.x.T @ a
            gx = a @ self.w.T
            acc += float(gw[0, 0] + gx[0, 0])
        return acc


class Ranking:
    """Cosine scores, then one argsort and AP per query row: the mAP loop."""

    def __init__(self, rows: int = 1000, gallery: int = 1500, dim: int = 256):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((rows, dim))
        g = rng.standard_normal((gallery, dim))
        self.q = q / np.linalg.norm(q, axis=1, keepdims=True)
        self.g = g / np.linalg.norm(g, axis=1, keepdims=True)
        self.rel = rng.random((rows, gallery)) < 0.05

    def __call__(self) -> float:
        sims = self.q @ self.g.T
        total = 0.0
        for i in range(sims.shape[0]):
            order = np.argsort(-sims[i], kind="stable")
            bits = self.rel[i][order].astype(np.int64)
            hits = np.cumsum(bits)
            ranks = np.arange(1, bits.size + 1)
            total += float((hits / ranks * bits).sum() / max(int(bits.sum()), 1))
        return total / sims.shape[0]
