"""Low-rank adapters on the attention query and value projections.

An adapter keeps, per target weight W (m x n), a pair A (m x r), B (r x n);
the effective delta is (alpha/r) * A @ B. A starts small-random and B starts
zero, so a freshly attached adapter is an exact no-op. Base weights are never
written by training; merge/unmerge/swap fold deltas in and out by plain
matrix addition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import read_container, write_container
from .errors import DataError
from .model import Model, ModelConfig, param_shapes


@dataclass
class LoraAdapter:
    rank: int
    alpha: float
    a: dict[str, np.ndarray]
    b: dict[str, np.ndarray]

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    @property
    def targets(self) -> list[str]:
        return sorted(self.a)

    def delta(self, target: str) -> np.ndarray:
        return self.scale * (self.a[target] @ self.b[target])

    def tensors(self) -> dict[str, np.ndarray]:
        """The factors under their file names, t.lora_a and t.lora_b per target
        t: the adapter's own arrays, so writing into one writes the adapter."""
        tensors = {}
        for t in self.targets:
            tensors[t + ".lora_a"] = self.a[t]
            tensors[t + ".lora_b"] = self.b[t]
        return tensors


def target_names(config: ModelConfig) -> list[str]:
    names = []
    for i in range(config.n_layers):
        names += [f"layers.{i}.wq", f"layers.{i}.wv"]
    return names


def parameter_count(adapter: LoraAdapter) -> int:
    return sum(adapter.a[t].size + adapter.b[t].size for t in adapter.a)


def init_adapter(
    config: ModelConfig, rank: int, alpha: float, seed: int = 0, dtype=np.float32
) -> LoraAdapter:
    if rank < 1:
        raise DataError(f"adapter rank must be >= 1, got {rank}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise DataError(f"adapter alpha must be finite and positive, got {alpha}")
    shapes = param_shapes(config)
    rng = np.random.default_rng(seed)
    a: dict[str, np.ndarray] = {}
    b: dict[str, np.ndarray] = {}
    for t in target_names(config):
        m, n = shapes[t]
        if rank > min(m, n):
            raise DataError(f"rank {rank} exceeds min dimension {min(m, n)} of {t}")
        a[t] = (rng.standard_normal((m, rank)) / math.sqrt(m)).astype(dtype)
        b[t] = np.zeros((rank, n), dtype=dtype)
    return LoraAdapter(rank=rank, alpha=float(alpha), a=a, b=b)


def _validate_against(adapter: LoraAdapter, model: Model) -> None:
    shapes = param_shapes(model.config)
    expected = set(target_names(model.config))
    if set(adapter.a) != expected or set(adapter.b) != expected:
        raise DataError("adapter targets do not match the model's query/value projections")
    for t in expected:
        m, n = shapes[t]
        if adapter.a[t].shape != (m, adapter.rank) or adapter.b[t].shape != (adapter.rank, n):
            raise DataError(
                f"adapter shape mismatch on {t}: A {adapter.a[t].shape}, "
                f"B {adapter.b[t].shape} against weight ({m}, {n})"
            )


def attach(model: Model, rank: int = 8, alpha: float = 16.0, seed: int = 0,
           adapter: LoraAdapter | None = None) -> LoraAdapter:
    """Attach a fresh (or provided) adapter; forward becomes (W + delta) @ x
    per target while the base weights stay frozen."""
    if model.adapter is not None:
        raise DataError("an adapter is already attached")
    if adapter is None:
        adapter = init_adapter(model.config, rank, alpha, seed=seed, dtype=model.dtype)
    _validate_against(adapter, model)
    model.adapter = adapter
    return adapter


def merge(model: Model) -> LoraAdapter:
    """Fold the attached adapter's delta into the base weights."""
    adapter = model.adapter
    if adapter is None:
        raise DataError("no adapter attached to merge")
    for t in adapter.targets:
        model.params[t] = model.params[t] + adapter.delta(t).astype(model.params[t].dtype)
    model.adapter = None
    model.merged = adapter
    return adapter


def unmerge(model: Model) -> LoraAdapter:
    """Subtract the merged delta and re-attach the adapter."""
    adapter = model.merged
    if adapter is None:
        raise DataError("model has no merged adapter to remove")
    for t in adapter.targets:
        model.params[t] = model.params[t] - adapter.delta(t).astype(model.params[t].dtype)
    model.merged = None
    model.adapter = adapter
    return adapter


def swap(model: Model, old: LoraAdapter, new: LoraAdapter) -> None:
    """Replace the merged delta: W + d_old becomes W + d_new by addition only."""
    if model.merged is None:
        raise DataError("model has no merged adapter to swap")
    if model.merged is not old:
        raise DataError("model is merged with a different adapter than `old`")
    _validate_against(old, model)
    _validate_against(new, model)
    for t in old.targets:
        step = new.delta(t) - old.delta(t)
        model.params[t] = model.params[t] + step.astype(model.params[t].dtype)
    model.merged = new


# ----------------------------------------------------------- adapter files


def save_adapter(adapter: LoraAdapter, path) -> None:
    header = {"kind": "adapter", "rank": adapter.rank, "alpha": adapter.alpha}
    write_container(path, header, adapter.tensors())


def load_adapter(path) -> LoraAdapter:
    header, tensors = read_container(path)
    if header.get("kind") != "adapter":
        raise DataError(f"{path}: expected an adapter container, got {header.get('kind')!r}")
    a: dict[str, np.ndarray] = {}
    b: dict[str, np.ndarray] = {}
    for name, arr in tensors.items():
        if name.endswith(".lora_a"):
            a[name[: -len(".lora_a")]] = arr
        elif name.endswith(".lora_b"):
            b[name[: -len(".lora_b")]] = arr
        else:
            raise DataError(f"{path}: unexpected tensor {name!r} in adapter file")
    if set(a) != set(b):
        raise DataError(f"{path}: unpaired adapter tensors")
    rank = header.get("rank")
    if type(rank) is not int or rank < 1:  # JSON gives an int; true is a bool
        raise DataError(f"{path}: adapter rank must be an integer >= 1, got {rank!r}")
    try:
        alpha = float(header["alpha"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: adapter header needs a numeric alpha") from exc
    if not (math.isfinite(alpha) and alpha > 0):
        raise DataError(f"{path}: adapter alpha {alpha} out of range")
    return LoraAdapter(rank=rank, alpha=alpha, a=a, b=b)
