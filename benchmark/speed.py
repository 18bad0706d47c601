"""A fixed measure of how fast the machine running the benchmark is right now.

A shared virtual machine's speed drifts by itself. On the 2-vCPU machine the
README's figures come from, a fixed pure-Python loop measured in 5-second
windows ranged from 60 to 86 iterations per second within 100 seconds, with
no steal time reported, and two 30-second runs of one workload on the same
seed differed by up to 52 %.
The probe here runs the same fixed numpy work every time, shaped like the
benchmark model (one decode step and one batched training-size block of
d=256, 4 layers, GQA 8/2, d_ff 688, 190-token head). It never calls eyedx,
so a change to the program does not change it. The benchmark times the probe
next to every unit of work and rescales the unit's wall time by
``REFERENCE_S / probe``: the time the unit would have taken with the machine
at the probe's reference speed. It tracks the training and greedy workloads
well and the sampled one poorly; see the README.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.015  # the probe's typical wall time on the machine the README names


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)

        def weight(*shape):
            return (rng.standard_normal(shape) * 0.05).astype(np.float32)

        self.w = {
            "q": weight(256, 256), "k": weight(256, 64), "v": weight(256, 64),
            "o": weight(256, 256), "gate": weight(256, 688), "up": weight(256, 688),
            "down": weight(688, 256), "head": weight(256, 190),
        }
        self.keys = weight(48, 8, 32)
        self.token = weight(1, 256)
        self.batch = weight(8, 42, 256)

    # results are discarded: only the time the work takes matters
    def _decode_step(self):
        w, x = self.w, self.token
        for _ in range(4):
            h = x / np.sqrt((x * x).mean(-1, keepdims=True) + 1e-5)
            q = h @ w["q"]
            h @ w["k"], h @ w["v"]
            s = np.einsum("hd,shd->hs", q.reshape(8, 32), self.keys)
            p = np.exp(s - s.max(-1, keepdims=True))
            p /= p.sum(-1, keepdims=True)
            x = x + np.einsum("hs,shd->hd", p, self.keys).reshape(1, 256) @ w["o"]
            g, u = x @ w["gate"], x @ w["up"]
            x = x + ((g / (1 + np.exp(-g))) * u) @ w["down"]
        np.argsort(-(x @ w["head"])[0], kind="stable")

    def _training_block(self):
        w, x = self.w, self.batch
        ((x @ w["gate"]) * (x @ w["up"])) @ w["down"]
        q = (x @ w["q"]).reshape(8, 42, 8, 32)
        np.einsum("bthd,bshd->bhts", q, q)

    def seconds(self) -> float:
        """Wall time of one fixed round of probe work."""
        start = time.perf_counter()
        for _ in range(4):
            self._decode_step()
        self._training_block()
        return time.perf_counter() - start
