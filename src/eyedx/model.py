"""Mini decoder-only transformer.

Pre-norm blocks: x + attn(rmsnorm(x)) then x + ffn(rmsnorm(x)), rotary
positions on queries and keys, grouped-query attention with a batched KV
cache whose rows advance on their own, SiLU-gated feed-forward, final norm,
untied output projection.

Weights live in a flat dict keyed "tok_embed", "layers.{i}.wq", ...,
"final_norm", "lm_head"; every 2D weight W acts as y = x @ W with W shaped
(d_in, d_out). The backward pass is wired by hand in loss_and_grads; the
finite-difference oracle in numerics.py keeps it honest.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .numerics import (
    cross_entropy,
    cross_entropy_backward,
    silu,
    silu_backward,
    softmax,
    softmax_backward,
)


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 256
    n_layers: int = 4
    n_heads: int = 8
    n_kv_heads: int = 2
    d_ff: int = 688
    vocab_size: int = 4096
    max_seq_len: int = 512
    rope_base: float = 10000.0
    rmsnorm_eps: float = 1e-5

    def __post_init__(self):
        for name in ("d_model", "n_layers", "n_heads", "n_kv_heads", "d_ff", "vocab_size",
                     "max_seq_len"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise DataError(f"{name} must be an integer")
        for name in ("d_model", "n_layers", "n_heads", "n_kv_heads", "d_ff", "vocab_size"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be positive")
        if self.max_seq_len < 1:
            raise DataError("max_seq_len must be >= 1")
        if self.d_model % self.n_heads:
            raise DataError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.n_kv_heads > self.n_heads or self.n_heads % self.n_kv_heads:
            raise DataError(
                f"n_kv_heads {self.n_kv_heads} must divide n_heads {self.n_heads}"
            )
        if self.head_dim % 2:
            raise DataError(f"head dim {self.head_dim} must be even for rotary positions")
        if self.rope_base <= 0 or self.rmsnorm_eps <= 0:
            raise DataError("rope_base and rmsnorm_eps must be positive")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim


def param_shapes(config: ModelConfig) -> dict[str, tuple]:
    d, v = config.d_model, config.vocab_size
    shapes = {"tok_embed": (v, d)}
    for i in range(config.n_layers):
        p = f"layers.{i}."
        shapes[p + "attn_norm"] = (d,)
        shapes[p + "wq"] = (d, d)
        shapes[p + "wk"] = (d, config.kv_dim)
        shapes[p + "wv"] = (d, config.kv_dim)
        shapes[p + "wo"] = (d, d)
        shapes[p + "ffn_norm"] = (d,)
        shapes[p + "w_gate"] = (d, config.d_ff)
        shapes[p + "w_up"] = (d, config.d_ff)
        shapes[p + "w_down"] = (config.d_ff, d)
    shapes["final_norm"] = (d,)
    shapes["lm_head"] = (d, v)
    return shapes


def matmul_weight_names(config: ModelConfig) -> list[str]:
    """The per-layer projection matrices; what int4 quantization targets.
    Norm gains, the embedding table, and lm_head stay in float."""
    names = []
    for i in range(config.n_layers):
        p = f"layers.{i}."
        names += [p + w for w in ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")]
    return names


def init_params(config: ModelConfig, seed: int = 0, scale: float = 0.02, dtype=np.float32):
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("norm"):
            params[name] = np.ones(shape, dtype=dtype)
        else:
            params[name] = (rng.standard_normal(shape) * scale).astype(dtype)
    return params


# ------------------------------------------------------------------ ops


def rmsnorm(x: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
    """y_i = gain_i * x_i / sqrt(mean(x^2) + eps), over the last axis."""
    inv = 1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps)
    return x * inv * gain


def _rmsnorm_fwd(x, gain, eps):
    inv = 1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps)
    return x * inv * gain, inv


def _rmsnorm_bwd(x, gain, inv, dy):
    # y_j = g_j x_j inv, d inv/d x_k = -inv^3 x_k / d
    d = x.shape[-1]
    s = (dy * gain * x).sum(axis=-1, keepdims=True)
    dx = dy * gain * inv - x * (inv**3) * s / d
    dgain = (dy * x * inv).reshape(-1, d).sum(axis=0)
    return dx, dgain


def _rope_tables(positions: np.ndarray, head_dim: int, base: float, dtype):
    # angles in float64; only the final cos/sin values are cast down
    i = np.arange(head_dim // 2, dtype=np.float64)
    freqs = base ** (-2.0 * i / head_dim)
    angles = positions.astype(np.float64)[..., None] * freqs
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


def _apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate consecutive pairs (x_2i, x_2i+1); x is (..., T, n_heads, head_dim),
    cos/sin are (..., T, head_dim/2) and broadcast over the head axis."""
    e, o = x[..., 0::2], x[..., 1::2]
    c = cos[..., :, None, :]
    s = sin[..., :, None, :]
    out = np.empty_like(x)
    out[..., 0::2] = e * c - o * s
    out[..., 1::2] = e * s + o * c
    return out


def _apply_rope_inverse(x, cos, sin):
    # rotation by the negated angle; the backward of _apply_rope
    return _apply_rope(x, cos, -sin)


def rope_vector(vec: np.ndarray, position: int, base: float = 10000.0) -> np.ndarray:
    """Rotary encoding of a single head vector at one position."""
    if vec.shape[-1] % 2:
        raise DataError(f"head dim {vec.shape[-1]} must be even for rotary positions")
    cos, sin = _rope_tables(np.array([position]), vec.shape[-1], base, vec.dtype)
    return _apply_rope(vec.reshape(1, 1, -1), cos, sin).reshape(vec.shape)


def _group_heads(x: np.ndarray, n_kv: int) -> np.ndarray:
    """(B, T, H, hd) -> (B, KV, G*T, hd): the G query heads of each kv head
    stacked along time, head h = kv * G + g at rows g*T .. g*T + T-1."""
    B, T, H, hd = x.shape
    G = H // n_kv
    return x.reshape(B, T, n_kv, G, hd).transpose(0, 2, 3, 1, 4).reshape(B, n_kv, G * T, hd)


def _ungroup_heads(x: np.ndarray, T: int) -> np.ndarray:
    """Inverse of _group_heads: (B, KV, G*T, hd) -> (B, T, H, hd)."""
    B, KV, GT, hd = x.shape
    G = GT // T
    return x.reshape(B, KV, G, T, hd).transpose(0, 3, 1, 2, 4).reshape(B, T, KV * G, hd)


def ffn(x: np.ndarray, w_gate: np.ndarray, w_up: np.ndarray, w_down: np.ndarray) -> np.ndarray:
    """Gated unit: w_down( silu(x w_gate) * (x w_up) )."""
    return (silu(x @ w_gate) * (x @ w_up)) @ w_down


# ------------------------------------------------------------------ cache


class KVCache:
    """Per-layer rotated keys and values for a batch of sequences; row b holds
    positions [0, lengths[b]). Slots at or past a row's length are free: the
    attention mask hides them and the row's next tokens overwrite them."""

    def __init__(self, config: ModelConfig, dtype=np.float32, batch: int = 1):
        shape = (batch, config.max_seq_len, config.n_kv_heads, config.head_dim)
        self.k = [np.zeros(shape, dtype=dtype) for _ in range(config.n_layers)]
        self.v = [np.zeros(shape, dtype=dtype) for _ in range(config.n_layers)]
        self.lengths = np.zeros(batch, dtype=np.int64)
        self.max_seq_len = config.max_seq_len

    @property
    def batch(self) -> int:
        return self.lengths.shape[0]

    @property
    def length(self) -> int:
        """The longest row's length; the length of a one-row cache."""
        return int(self.lengths.max())

    def store(self, layer: int, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Write (B, T, KV, hd) keys/values at each row's own next T slots."""
        slots = self.lengths[:, None] + np.arange(k_new.shape[1])
        rows = np.arange(self.batch)[:, None]
        self.k[layer][rows, slots] = k_new
        self.v[layer][rows, slots] = v_new

    def advance(self, t: int) -> None:
        self.lengths += t

    def keep(self, rows) -> None:
        """Keep only the given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        self.k = [k[rows] for k in self.k]
        self.v = [v[rows] for v in self.v]
        self.lengths = self.lengths[rows]

    def reset(self) -> None:
        self.lengths[:] = 0


# ------------------------------------------------------------------ model


class Model:
    """Weights plus adapter state; forward is pure given the weights.

    adapter holds attached (trainable) low-rank deltas; merged holds an
    adapter whose delta has been folded into the base weights. At most one
    of the two is set.
    """

    def __init__(self, config: ModelConfig, params: dict):
        shapes = param_shapes(config)
        missing = set(shapes) - set(params)
        if missing:
            raise DataError(f"params missing tensors: {sorted(missing)[:4]}")
        unknown = set(params) - set(shapes)
        if unknown:
            raise DataError(f"params hold unknown tensors: {sorted(unknown)[:4]}")
        for name, shape in shapes.items():
            w = params[name]
            if not isinstance(w, np.ndarray) or w.dtype.kind != "f" or w.shape != shape:
                got = f"{w.dtype} {w.shape}" if isinstance(w, np.ndarray) else type(w).__name__
                raise DataError(f"tensor {name}: expected floating {shape}, got {got}")
        self.config = config
        self.params = params
        self.adapter = None
        self.merged = None

    @property
    def dtype(self):
        return self.params["tok_embed"].dtype

    def new_cache(self, batch: int = 1) -> KVCache:
        return KVCache(self.config, self.dtype, batch)

    # -- projections (adapter-aware) --

    def _project(self, x, name):
        y = x @ self.params[name]
        ad = self.adapter
        if ad is not None and name in ad.a:
            y = y + ad.scale * ((x @ ad.a[name]) @ ad.b[name])
        return y

    def _project_bwd(self, x, name, dy, grads):
        d_in = x.shape[-1]
        d_out = dy.shape[-1]
        xf = x.reshape(-1, d_in)
        dyf = dy.reshape(-1, d_out)
        if name in grads:
            grads[name] += xf.T @ dyf
        dx = dy @ self.params[name].T
        ad = self.adapter
        if ad is not None and name in ad.a:
            a, b, s = ad.a[name], ad.b[name], ad.scale
            dy_b = dyf @ b.T  # (N, r)
            grads[name + ".lora_a"] += s * (xf.T @ dy_b)
            grads[name + ".lora_b"] += s * ((xf @ a).T @ dyf)
            dx = dx + s * (dy_b @ a.T).reshape(x.shape)
        return dx

    # -- forward --

    def forward(self, tokens, cache: KVCache | None = None) -> np.ndarray:
        """Logits for each input position: (T, vocab) for a 1D token array,
        (B, T, vocab) for a batch. With a cache, row b of tokens is the new
        segment appended after cache.lengths[b] and only it gets logits."""
        tokens = np.asarray(tokens)
        single = tokens.ndim == 1
        tokens2d = tokens[None, :] if single else tokens
        logits = self._run(tokens2d, cache, tape=None)
        return logits[0] if single else logits

    def _run(self, tokens, cache, tape):
        cfg = self.config
        B, T = tokens.shape
        if T == 0:
            raise DataError("empty token sequence")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise DataError(
                f"token id out of range [0, {cfg.vocab_size}): {tokens.min()}..{tokens.max()}"
            )
        past = np.zeros(1, dtype=np.int64)  # without a cache every row starts at 0
        if cache is not None:
            if tape is not None:
                raise NumericError("taped forward does not take a cache")
            if B != cache.batch:
                held = "one sequence" if cache.batch == 1 else f"{cache.batch} sequences"
                raise DataError(f"the cache holds {held}, got a batch of {B}")
            past = cache.lengths
        positions = past[:, None] + np.arange(T)  # (B, T), or (1, T) shared by every row
        S = int(positions.max()) + 1
        if S > cfg.max_seq_len:
            raise DataError(f"sequence length {S} exceeds max_seq_len {cfg.max_seq_len}")

        cos, sin = _rope_tables(positions, cfg.head_dim, cfg.rope_base, self.dtype)
        x = self.params["tok_embed"][tokens]

        for i in range(cfg.n_layers):
            x = x + self._attention(x, i, cache, cos, sin, positions, tape)
            x = x + self._ffn(x, i, tape)
        if cache is not None:
            cache.advance(T)

        xn, inv = _rmsnorm_fwd(x, self.params["final_norm"], cfg.rmsnorm_eps)
        logits = xn @ self.params["lm_head"]
        if tape is not None:
            tape.append({"tokens": tokens, "x_final": x, "inv_final": inv, "xn_final": xn})
        return logits

    def _attention(self, x, layer, cache, cos, sin, positions, tape):
        cfg = self.config
        B, T, _ = x.shape
        p = f"layers.{layer}."
        H, KV, hd = cfg.n_heads, cfg.n_kv_heads, cfg.head_dim

        xn, inv = _rmsnorm_fwd(x, self.params[p + "attn_norm"], cfg.rmsnorm_eps)
        q = self._project(xn, p + "wq").reshape(B, T, H, hd)
        k = self._project(xn, p + "wk").reshape(B, T, KV, hd)
        v = self._project(xn, p + "wv").reshape(B, T, KV, hd)
        q = _apply_rope(q, cos, sin)
        k = _apply_rope(k, cos, sin)

        # key s is visible to the query at position p when s <= p; a cached
        # row's free slots past its own length fall outside that
        S = int(positions.max()) + 1
        if cache is not None:
            cache.store(layer, k, v)
            k_all = cache.k[layer][:, :S]
            v_all = cache.v[layer][:, :S]
        else:
            k_all, v_all = k, v
        allowed = (np.arange(S) <= positions[..., None])[:, None, None]  # (B|1, 1, 1, T, S)

        # query head h = kv * G + g shares kv head kv; stacking each group's
        # G query heads along the time axis makes one batched matmul per kv head
        G = H // KV
        qg = _group_heads(q, KV)  # (B, KV, G*T, hd)
        scores = (qg @ k_all.transpose(0, 2, 3, 1)).reshape(B, KV, G, T, S) / math.sqrt(hd)
        scores = np.where(allowed, scores, -np.inf)
        probs = softmax(scores, axis=-1).reshape(B, KV, G * T, S)
        ctx = _ungroup_heads(probs @ v_all.transpose(0, 2, 1, 3), T).reshape(B, T, H * hd)
        out = self._project(ctx, p + "wo")

        if tape is not None:
            tape.append(
                {
                    "kind": "attn",
                    "layer": layer,
                    "x": x,
                    "xn": xn,
                    "inv": inv,
                    "qg": qg,
                    "k": k,
                    "v": v,
                    "probs": probs,
                    "ctx": ctx,
                    "cos": cos,
                    "sin": sin,
                }
            )
        return out

    def _ffn(self, x, layer, tape):
        cfg = self.config
        p = f"layers.{layer}."
        xn, inv = _rmsnorm_fwd(x, self.params[p + "ffn_norm"], cfg.rmsnorm_eps)
        z_gate = xn @ self.params[p + "w_gate"]
        z_up = xn @ self.params[p + "w_up"]
        act = silu(z_gate)
        h = act * z_up
        out = h @ self.params[p + "w_down"]
        if tape is not None:
            tape.append(
                {
                    "kind": "ffn",
                    "layer": layer,
                    "x": x,
                    "xn": xn,
                    "inv": inv,
                    "z_gate": z_gate,
                    "z_up": z_up,
                    "act": act,
                    "h": h,
                }
            )
        return out

    # -- loss and hand-wired backward --

    def loss_and_grads(self, inputs: np.ndarray, labels: np.ndarray, mask: np.ndarray,
                       adapter_only: bool = False):
        """Masked next-token loss and gradients.

        Default: gradients for every weight plus ".lora_a"/".lora_b" entries
        per target while an adapter is attached. With adapter_only, the
        returned dict holds just the adapter entries and the base-weight
        accumulations are skipped (fine-tuning never reads them).
        """
        cfg = self.config
        if adapter_only and self.adapter is None:
            raise NumericError("adapter_only gradients requested with no adapter attached")
        tape: list = []
        logits = self._run(np.asarray(inputs), None, tape)
        loss = cross_entropy(logits, labels, mask)

        grads = {} if adapter_only else {n: np.zeros_like(w) for n, w in self.params.items()}
        if self.adapter is not None:
            for t in self.adapter.a:
                grads[t + ".lora_a"] = np.zeros_like(self.adapter.a[t])
                grads[t + ".lora_b"] = np.zeros_like(self.adapter.b[t])

        top = tape.pop()
        dlogits = cross_entropy_backward(logits, labels, mask)
        d_out = top["xn_final"].shape[-1]
        if "lm_head" in grads:
            grads["lm_head"] += (
                top["xn_final"].reshape(-1, d_out).T @ dlogits.reshape(-1, cfg.vocab_size)
            )
        dxn = dlogits @ self.params["lm_head"].T
        dx, dgain = _rmsnorm_bwd(top["x_final"], self.params["final_norm"], top["inv_final"], dxn)
        if "final_norm" in grads:
            grads["final_norm"] += dgain

        for rec in reversed(tape):
            p = f"layers.{rec['layer']}."
            if rec["kind"] == "ffn":
                dh = dx @ self.params[p + "w_down"].T
                if p + "w_down" in grads:
                    grads[p + "w_down"] += (
                        rec["h"].reshape(-1, cfg.d_ff).T @ dx.reshape(-1, cfg.d_model)
                    )
                dact = dh * rec["z_up"]
                dz_up = dh * rec["act"]
                dz_gate = silu_backward(rec["z_gate"], dact)
                dxn = dz_gate @ self.params[p + "w_gate"].T + dz_up @ self.params[p + "w_up"].T
                if p + "w_gate" in grads:
                    xnf = rec["xn"].reshape(-1, cfg.d_model)
                    grads[p + "w_gate"] += xnf.T @ dz_gate.reshape(-1, cfg.d_ff)
                    grads[p + "w_up"] += xnf.T @ dz_up.reshape(-1, cfg.d_ff)
                dxin, dgain = _rmsnorm_bwd(
                    rec["x"], self.params[p + "ffn_norm"], rec["inv"], dxn
                )
                if p + "ffn_norm" in grads:
                    grads[p + "ffn_norm"] += dgain
                dx = dx + dxin  # residual: out = x + ffn(norm(x))
            else:
                dx = self._attention_bwd(rec, dx, grads)

        # dx is now the gradient at the embedding output
        if "tok_embed" in grads:
            np.add.at(grads["tok_embed"], top["tokens"].reshape(-1), dx.reshape(-1, cfg.d_model))
        return loss, grads

    def _attention_bwd(self, rec, d_out, grads):
        cfg = self.config
        p = f"layers.{rec['layer']}."
        H, KV, hd = cfg.n_heads, cfg.n_kv_heads, cfg.head_dim
        B, T, _ = rec["x"].shape

        dctx = self._project_bwd(rec["ctx"], p + "wo", d_out, grads)
        dctx = _group_heads(dctx.reshape(B, T, H, hd), KV)  # (B, KV, G*T, hd)
        probs = rec["probs"]  # (B, KV, G*T, S)
        k = rec["k"].transpose(0, 2, 1, 3)  # (B, KV, S, hd)

        # contracting over the G*T axis sums each group onto its shared kv head
        dprobs = dctx @ rec["v"].transpose(0, 2, 3, 1)
        dv = probs.transpose(0, 1, 3, 2) @ dctx
        dscores = softmax_backward(probs, dprobs, axis=-1)
        dscores /= math.sqrt(hd)
        dq = _ungroup_heads(dscores @ k, T)
        dk = dscores.transpose(0, 1, 3, 2) @ rec["qg"]

        dq = _apply_rope_inverse(dq, rec["cos"], rec["sin"])
        dk = _apply_rope_inverse(dk.transpose(0, 2, 1, 3), rec["cos"], rec["sin"])
        dv = dv.transpose(0, 2, 1, 3)

        dxn = self._project_bwd(rec["xn"], p + "wq", dq.reshape(B, T, H * hd), grads)
        dxn += self._project_bwd(rec["xn"], p + "wk", dk.reshape(B, T, KV * hd), grads)
        dxn += self._project_bwd(rec["xn"], p + "wv", dv.reshape(B, T, KV * hd), grads)
        dxin, dgain = _rmsnorm_bwd(rec["x"], self.params[p + "attn_norm"], rec["inv"], dxn)
        if p + "attn_norm" in grads:
            grads[p + "attn_norm"] += dgain
        return d_out + dxin  # residual: out = x + attn(norm(x))
