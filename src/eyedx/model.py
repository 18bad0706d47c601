"""Mini decoder-only transformer.

Pre-norm blocks: x + attn(rmsnorm(x)) then x + ffn(rmsnorm(x)), rotary
positions on queries and keys, grouped-query attention with a batched KV
cache whose rows advance on their own, SiLU-gated feed-forward, final norm,
untied output projection.

Weights live in a flat dict keyed "tok_embed", "layers.{i}.wq", ...,
"final_norm", "lm_head"; every 2D weight W acts as y = x @ W with W shaped
(d_in, d_out). The base weights are frozen: the backward pass, wired by
hand in loss_and_grads, computes only the attached adapter's gradients, and
the finite-difference oracle in tests/oracles.py keeps it honest.

Decoding runs in two phases. Model.prefill(prompts, capacity) runs the
prompts into a new cache and returns each prompt's last-token logits, and
Model.step(tokens, cache) runs one token per cached row. One masked run,
_run, serves both, forward and the training step. It goes token-major over
the positions a kept mask selects, the loss's reach in training and the real
tokens in a prefill: each token-wise op is one GEMM per weight, and only
attention sees the (batch, seq) grid. A step passes no mask: every position
runs, and its rows are attention's grid, one position each. What the step
flag adds is a step's own layout: it runs its N rows as ceil(N / BLOCK)
blocks of BLOCK rows, zero rows after the N-th, each product one (BLOCK, K)
GEMM per block, lm_head's one per block and HEAD_COLUMNS of its columns:
each weight is read once per block, not once per row, and since a row of
such a GEMM gets the same bits wherever it sits and whatever the other rows
hold, a batched step gives each row the bits it gets stepped alone, padded
to one block. From the last layer's output projection on, only the
positions whose logits are read run: the loss positions in training, each
prompt's last token in a prefill. Past its last layer's keys and values a
position feeds no other.

What every layer of a run shares is built once per run, not once per layer
(_RunTables): the rotary tables, the causal mask, the cache slots the run's
keys and values go to, the positions that run (kept, None when every one
does) and the rows the last layer reads (tail, None when it reads all).
Rotary positions take one pass over per-pair tables, x * cf + (x, each pair
swapped) * sf, with cf each angle's cos twice and sf its (-sin, +sin); the
backward passes -sf. Each entry is the sum the pairwise rotation computes,
so the bits are its bits.
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
from .shards import threaded

# the rows of a cached step's GEMM blocks: each row of a (BLOCK, K) @ (K, M)
# product gets the same bits wherever it sits and whatever the other rows hold
BLOCK = 4
# lm_head's columns per GEMM in a cached step: at d_model 256 a block's GEMM
# over a 4096-token vocabulary costs two to three one-row products, and 512
# columns at a time under one and a half
HEAD_COLUMNS = 512


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
        sizes = ("d_model", "n_layers", "n_heads", "n_kv_heads", "d_ff", "vocab_size", "max_seq_len")
        for name in sizes:
            if not isinstance(getattr(self, name), numbers.Integral):
                raise DataError(f"{name} must be an integer")
        for name in sizes:
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be positive")
        if self.d_model % self.n_heads:
            raise DataError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.n_kv_heads > self.n_heads or self.n_heads % self.n_kv_heads:
            raise DataError(
                f"n_kv_heads {self.n_kv_heads} must divide n_heads {self.n_heads}"
            )
        if self.head_dim % 2:
            raise DataError(f"head dim {self.head_dim} must be even for rotary positions")
        for name in ("rope_base", "rmsnorm_eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DataError(f"{name} must be finite and positive, got {value}")

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
    return [name for name, shape in param_shapes(config).items()
            if name.startswith("layers.") and len(shape) == 2]


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


def _rmsnorm_fwd(x, gain, eps):
    """y = gain * x / sqrt(mean(x^2) + eps) over the last axis, and 1/rms;
    x * inv reuses the buffer that held x^2."""
    xx = x * x
    inv = np.add.reduce(xx, axis=-1, keepdims=True)
    inv /= x.shape[-1]  # the mean, as xx.mean computes it
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    return np.multiply(x, inv, out=xx) * gain, inv


def _rmsnorm_bwd(x, gain, inv, dy):
    """dx for the frozen gain; y_j = g_j x_j inv, d inv/d x_k = -inv^3 x_k / d.
    t holds dy g x for the row sums, then the x term it gives."""
    dx = dy * gain
    t = dx * x
    c = t.sum(axis=-1, keepdims=True)
    c *= inv**3 / x.shape[-1]
    np.multiply(x, c, out=t)
    dx *= inv
    dx -= t
    return dx


def _rope_tables(positions: np.ndarray, head_dim: int, base: float, dtype):
    # angles in float64; only the final cos/sin values are cast down
    i = np.arange(head_dim // 2, dtype=np.float64)
    freqs = base ** (-2.0 * i / head_dim)
    angles = positions.astype(np.float64)[..., None] * freqs
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


def _rope_pairs(cos: np.ndarray, sin: np.ndarray):
    """The per-pair tables _apply_rope reads, from cos/sin (..., T, head_dim/2):
    cf repeats each cos for its pair, sf holds (-sin, +sin) per pair; both are
    (..., T, 1, head_dim) and broadcast over the head axis."""
    cf = np.repeat(cos, 2, axis=-1)[..., None, :]
    sf = np.stack((-sin, sin), axis=-1).reshape(cf.shape)
    return cf, sf


def _apply_rope(x: np.ndarray, cf: np.ndarray, sf: np.ndarray) -> np.ndarray:
    """Rotate consecutive pairs (x_2i, x_2i+1) of x (..., T, n_heads, head_dim)
    in one pass, x * cf + (x with each pair swapped) * sf, over _rope_pairs'
    tables; -sf rotates by the negated angle. The even entry e*c + o*(-s) is
    e*c - o*s exactly, the odd o*c + e*s."""
    swapped = np.empty_like(x)
    swapped[..., 0::2] = x[..., 1::2]
    swapped[..., 1::2] = x[..., 0::2]
    swapped *= sf
    out = x * cf
    out += swapped
    return out


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


def _blocks(rows: np.ndarray) -> np.ndarray:
    """(n, d) rows -> (ceil(n / BLOCK), BLOCK, d) blocks holding them, then zero rows."""
    n, d = rows.shape
    out = np.zeros((-(-n // BLOCK), BLOCK, d), rows.dtype)
    out.reshape(-1, d)[:n] = rows
    return out


def _scatter(rows: np.ndarray, run: _RunTables) -> np.ndarray:
    """(n, ...) token rows -> the run's (B, T, ...) grid holding them at its
    kept positions, in row-major order, and zeros elsewhere; when every
    position runs, the rows themselves, reshaped."""
    if run.kept is None:
        return rows.reshape(run.grid + rows.shape[1:])
    grid = np.zeros(run.grid + rows.shape[1:], dtype=rows.dtype)
    grid[run.kept] = rows
    return grid


def _gather(grid: np.ndarray, run: _RunTables) -> np.ndarray:
    """Inverse of _scatter: the run's (n, ...) token rows of a (B, T, ...) grid."""
    return grid.reshape(-1, *grid.shape[2:]) if run.kept is None else grid[run.kept]


def _widen(rows: np.ndarray, tail: np.ndarray, n: int) -> np.ndarray:
    """(1, len(tail), ...) read rows -> (1, n, ...) rows holding them at tail, zeros elsewhere."""
    out = np.zeros((1, n) + rows.shape[2:], dtype=rows.dtype)
    out[0, tail] = rows[0]
    return out


# ------------------------------------------------------------------ cache


class KVCache:
    """Per-layer rotated keys and values for a batch of sequences; row b holds
    positions [0, lengths[b]). Slots at or past a row's length are free: the
    attention mask hides them and the row's next tokens overwrite them.
    capacity, the slots per row, is at most the context window and defaults
    to it."""

    def __init__(self, config: ModelConfig, dtype=np.float32, batch: int = 1,
                 capacity: int | None = None):
        window = config.max_seq_len
        self.capacity = window if capacity is None else min(capacity, window)
        shape = (batch, self.capacity, config.n_kv_heads, config.head_dim)
        self.k = [np.zeros(shape, dtype=dtype) for _ in range(config.n_layers)]
        self.v = [np.zeros(shape, dtype=dtype) for _ in range(config.n_layers)]
        self.lengths = np.zeros(batch, dtype=np.int64)

    @property
    def batch(self) -> int:
        return self.lengths.shape[0]

    def keep(self, rows) -> None:
        """Keep only the given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        self.k = [k[rows] for k in self.k]
        self.v = [v[rows] for v in self.v]
        self.lengths = self.lengths[rows]


# ------------------------------------------------------------------ model


@dataclass(frozen=True)
class _RunTables:
    """What every layer of one _run reads, built once for the run."""

    grid: tuple  # (B, T): the rows and positions of attention's grid
    kept: np.ndarray | None  # (B, T) bool: the positions that run; None when every one runs
    n: int  # the positions that run, the run's token rows
    tail: np.ndarray | None  # the rows the last layer reads, indices of the n; None for all
    cf: np.ndarray  # _rope_pairs' tables at the n positions, (n, 1, head_dim)
    sf: np.ndarray
    S: int  # key slots attention reads: the last position + 1
    hidden: np.ndarray  # (B, 1, 1, T, S): key s is hidden from the query at p when s > p
    slots: tuple | None  # (rows, positions): each row's cache slots for its T tokens


class Model:
    """Weights plus adapter state; forward is pure given the weights.

    adapter holds attached (trainable) low-rank deltas; merged holds an
    adapter whose delta has been folded into the base weights. At most one
    of the two is set.
    """

    def __init__(self, config: ModelConfig, params: dict):
        n_tensors = 3 + 9 * config.n_layers  # before param_shapes builds n_layers entries
        if len(params) < n_tensors:
            raise DataError(f"params missing tensors: {len(params)} given, "
                            f"a {config.n_layers}-layer model takes {n_tensors}")
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

    def new_cache(self, batch: int = 1, capacity: int | None = None) -> KVCache:
        return KVCache(self.config, self.dtype, batch, capacity)

    # -- projections (adapter-aware) --

    def _project(self, x, name):
        y = x @ self.params[name]
        ad = self.adapter
        if ad is not None and name in ad.a:
            y = y + ad.scale * ((x @ ad.a[name]) @ ad.b[name])
        return y

    def _project_bwd(self, x, name, dy, grads, need_dx=True):
        """dx through a frozen projection, None when not need_dx; an adapter
        target also puts its ".lora_a"/".lora_b" gradients into grads."""
        dx = dy @ self.params[name].T if need_dx else None
        ad = self.adapter
        if name in ad.a:
            a, b, s = ad.a[name], ad.b[name], ad.scale
            xf = x.reshape(-1, x.shape[-1])
            dyf = dy.reshape(-1, dy.shape[-1])
            dy_b = dyf @ b.T  # (N, r)
            grads[name + ".lora_a"] = s * (xf.T @ dy_b)
            grads[name + ".lora_b"] = s * ((xf @ a).T @ dyf)
            if need_dx:
                dx += s * (dy_b @ a.T).reshape(x.shape)
        return dx

    # -- forward --

    def forward(self, tokens, cache: KVCache | None = None) -> np.ndarray:
        """Logits for each input position: (T, vocab) for a 1D token array,
        (B, T, vocab) for a batch. With a cache, row b of tokens is the new
        segment appended after cache.lengths[b] and only it gets logits.
        forward always runs the general token-major path, one token per row
        included: decoding goes through prefill and step, and forward is the
        oracle the tests hold them to."""
        tokens = np.asarray(tokens)
        if tokens.ndim not in (1, 2):
            raise DataError(f"tokens must be 1D or 2D, got shape {tokens.shape}")
        tokens2d = tokens[None, :] if tokens.ndim == 1 else tokens
        return self._run(tokens2d, cache, None).reshape(*tokens.shape, -1)

    def prefill(self, prompts, capacity: int) -> tuple[KVCache, np.ndarray]:
        """A new cache of len(prompts) rows and capacity slots holding the
        prompts, and each prompt's last-token logits, (R, vocab). The prompts
        run right-padded but pad-free: only their real tokens run, each row's
        length advances by them alone, so its pad slots lie past its length,
        and the last layer's output side runs over each prompt's last token."""
        lengths = np.array([len(ids) for ids in prompts])
        if not (lengths.size and lengths.all()):
            raise DataError("prefill needs at least one prompt, and no empty one")
        kept = np.arange(lengths.max()) < lengths[:, None]
        # pads never run: one of the prompts' own ids keeps them out of the id check
        tokens = np.full(kept.shape, prompts[0][0], dtype=np.int64)
        tokens[kept] = np.concatenate(prompts)
        cache = self.new_cache(len(prompts), capacity)
        last = np.arange(kept.shape[1]) == lengths[:, None] - 1
        return cache, self._run(tokens, cache, None, kept, last)[0]

    def step(self, tokens, cache: KVCache) -> np.ndarray:
        """Logits (R, vocab) of tokens (R,), one token per row of cache, each
        appended after its row's cached positions; the 4-row block path."""
        tokens = np.asarray(tokens)
        if tokens.shape != (cache.batch,):
            raise DataError(f"a step takes one token per cached row, shape ({cache.batch},), "
                            f"got {tokens.shape}")
        return self._run(tokens[:, None], cache, None, step=True)

    def _positions(self, tokens, cache):
        """Positions (B, T) of tokens (B, T) after the cache's rows, from 0
        without a cache, once the ids, the window and the cache are checked."""
        cfg = self.config
        B, T = tokens.shape
        if tokens.size == 0:
            raise DataError("empty token sequence")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise DataError(
                f"token id out of range [0, {cfg.vocab_size}): {tokens.min()}..{tokens.max()}"
            )
        past = np.zeros(B, dtype=np.int64)  # without a cache every row starts at 0
        if cache is not None:
            if B != cache.batch:
                held = "one sequence" if cache.batch == 1 else f"{cache.batch} sequences"
                raise DataError(f"the cache holds {held}, got a batch of {B}")
            past = cache.lengths
        positions = past[:, None] + np.arange(T)
        S = int(positions.max()) + 1
        if S > cfg.max_seq_len:
            raise DataError(f"sequence length {S} exceeds max_seq_len {cfg.max_seq_len}")
        if cache is not None and S > cache.capacity:
            raise DataError(f"sequence length {S} exceeds the cache's {cache.capacity} slots")
        return positions, S

    def _tables(self, positions, S, kept, read, cache) -> _RunTables:
        """The run's RoPE pair tables, causal mask and cache slots, for every
        layer, at the positions kept selects, and the rows of them that read
        selects; kept None when every position runs, the read rows None when
        the last layer reads them all. A cached row's free slots past its own
        length lie past the positions of its queries, so the mask hides them."""
        cfg = self.config
        if kept is not None and kept.all():
            kept = None
        at = positions.reshape(-1) if kept is None else positions[kept]
        tail = None if read is None else np.flatnonzero(read if kept is None else read[kept])
        if tail is not None and len(tail) == len(at):
            tail = None
        cos, sin = _rope_tables(at, cfg.head_dim, cfg.rope_base, self.dtype)
        hidden = (np.arange(S) > positions[..., None])[:, None, None]
        slots = None if cache is None else (np.arange(len(positions))[:, None], positions)
        return _RunTables(positions.shape, kept, len(at), tail, *_rope_pairs(cos, sin), S,
                          hidden, slots)

    def _run(self, tokens, cache, tape, kept=None, read=None, step=False):
        """Logits for the positions of tokens (B, T) that read, a (B, T) bool
        mask inside kept, selects; kept, a (B, T) bool mask of each row's
        first positions, selects those that run, and both default to all.
        The n kept positions run as (1, n) token rows, each token-wise op one
        GEMM per weight; only attention sees the (B, T) grid, with zeros where
        kept is False. Token rows narrow to the read rows after the last
        layer's attention context, and the logits come back as (1, read rows,
        V). forward, prefill and the training step run this way.

        With step, which only Model.step sets, tokens is (B, 1), one token for
        each row of cache, and the run holds its B rows as (ceil(B / BLOCK),
        BLOCK) blocks, zero rows after the B-th, each product one (BLOCK, K)
        GEMM per block, lm_head's one per block and HEAD_COLUMNS columns, so
        each row gets the bits it gets stepped alone. Its logits come back as
        (B, V)."""
        cfg = self.config
        positions, S = self._positions(tokens, cache)
        run = self._tables(positions, S, kept, read, cache)
        x = self.params["tok_embed"][_gather(tokens, run)]
        x = _blocks(x) if step else x[None]

        for i in range(cfg.n_layers):
            x = self._attention(x, i, cache, run, tape)
            x = x + self._ffn(x, i, tape)
        if cache is not None:
            cache.lengths += positions.shape[1] if run.kept is None else run.kept.sum(axis=1)

        xn, inv = _rmsnorm_fwd(x, self.params["final_norm"], cfg.rmsnorm_eps)
        if tape is not None:
            tape.append({"x_final": x, "inv_final": inv})
        head = self.params["lm_head"]
        if not step:
            return xn @ head
        if cfg.vocab_size <= HEAD_COLUMNS:  # one GEMM per block covers the vocabulary
            logits = xn @ head
        else:
            logits = np.concatenate([xn @ head[:, j:j + HEAD_COLUMNS]
                                     for j in range(0, cfg.vocab_size, HEAD_COLUMNS)], axis=-1)
        return logits.reshape(-1, cfg.vocab_size)[:run.n]  # the blocks' real rows

    def _attention(self, x, layer, cache, run: _RunTables, tape):
        """x plus the attention block's output over the run's rows, and at the
        last layer over the rows it reads, run.tail, alone."""
        cfg = self.config
        p = f"layers.{layer}."
        H, KV, hd = cfg.n_heads, cfg.n_kv_heads, cfg.head_dim

        n = run.n  # x holds (1, n) token rows, or n rows leading a cached step's blocks
        xn, inv = _rmsnorm_fwd(x, self.params[p + "attn_norm"], cfg.rmsnorm_eps)
        # the real rows onto the (B, T) grid; a zero key past a row's end sits
        # after every kept query of that row, so the mask hides it
        q = self._project(xn, p + "wq").reshape(-1, H, hd)[:n]
        k = self._project(xn, p + "wk").reshape(-1, KV, hd)[:n]
        v = _scatter(self._project(xn, p + "wv").reshape(-1, KV, hd)[:n], run)
        q = _scatter(_apply_rope(q, run.cf, run.sf), run)
        k = _scatter(_apply_rope(k, run.cf, run.sf), run)
        (B, T), S = run.grid, run.S

        if cache is not None:
            cache.k[layer][run.slots] = k
            cache.v[layer][run.slots] = v
            k_all = cache.k[layer][:, :S]
            v_all = cache.v[layer][:, :S]
        else:
            k_all, v_all = k, v

        # query head h = kv * G + g shares kv head kv; stacking each group's
        # G query heads along the time axis makes one batched matmul per kv head
        G = H // KV
        qg = _group_heads(q, KV)  # (B, KV, G*T, hd)
        scores = (qg @ k_all.transpose(0, 2, 3, 1)).reshape(B, KV, G, T, S)
        scores /= math.sqrt(hd)
        np.copyto(scores, -np.inf, where=run.hidden)
        probs = softmax(scores).reshape(B, KV, G * T, S)
        ctx = _ungroup_heads(probs @ v_all.transpose(0, 2, 1, 3), T)
        ctx = _gather(ctx, run).reshape(n, H * hd)
        # back into x's layout: a reshape when the rows fill it, else a cached
        # step's blocks, zero rows after the n-th
        ctx = ctx.reshape(*x.shape[:2], H * hd) if n == x.shape[0] * x.shape[1] else _blocks(ctx)
        tail = run.tail if layer == cfg.n_layers - 1 else None
        residual = x
        if tail is not None:  # the last layer goes on over the read rows alone
            ctx, residual = ctx[:, tail], x[:, tail]

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
                    "run": run,
                    "tail": tail,
                }
            )
        return residual + self._project(ctx, p + "wo")

    def _ffn(self, x, layer, tape):
        cfg = self.config
        p = f"layers.{layer}."
        xn, inv = _rmsnorm_fwd(x, self.params[p + "ffn_norm"], cfg.rmsnorm_eps)
        z_up = xn @ self.params[p + "w_up"]
        act, den = silu(xn @ self.params[p + "w_gate"])
        h = act * z_up
        out = h @ self.params[p + "w_down"]
        if tape is not None:
            tape.append(
                {
                    "kind": "ffn",
                    "layer": layer,
                    "x": x,
                    "inv": inv,
                    "act": act,
                    "den": den,
                    "z_up": z_up,
                }
            )
        return out

    # -- loss and hand-wired backward --

    def loss_and_grads(self, inputs: np.ndarray, labels: np.ndarray, mask: np.ndarray):
        """Next-token loss, the mean over the mask=True positions, and the
        attached adapter's gradients. Labels at mask=False positions are never
        read.

        The base weights are frozen: grads holds exactly the ".lora_a" and
        ".lora_b" entries of each adapter target, in the model's dtype.

        Under the causal mask a position past its row's last mask=True
        position cannot reach the loss, so only the positions up to it are
        computed; a row without a loss position drops out. The last layer's
        output side, the final norm, lm_head and the loss run over the loss
        positions alone, and the backward stops at layer 0's adapter
        gradients.

        The rows run as shards.threaded cuts them by kept positions; the loss
        runs once, on the calling thread, over the shards' logits in row order.
        """
        if self.adapter is None:
            raise NumericError("loss_and_grads needs an attached adapter")
        inputs, labels, mask = np.asarray(inputs), np.asarray(labels), np.asarray(mask, dtype=bool)
        if inputs.ndim != 2 or labels.shape != inputs.shape or mask.shape != inputs.shape:
            raise NumericError(
                f"loss_and_grads shape mismatch: inputs {inputs.shape}, "
                f"labels {labels.shape}, mask {mask.shape}"
            )
        # kept[b, t]: some position s >= t of row b is a loss position
        kept = np.logical_or.accumulate(mask[:, ::-1], axis=1)[:, ::-1]
        shards, run = threaded(kept.sum(axis=1))

        def forward(rows):
            tape: list = []
            return tape, self._run(inputs[rows], None, tape, kept[rows], mask[rows])

        tapes, logits = zip(*run(forward, shards))
        ends = np.cumsum([0] + [part.shape[1] for part in logits])
        # the shards' loss rows, in the row-major order of labels[mask]
        logits, targets = np.concatenate(logits, axis=1)[0], labels[mask]
        loss = cross_entropy(logits, targets)
        dlogits = cross_entropy_backward(logits, targets)
        jobs = [(tape, dlogits[None, lo:hi]) for tape, lo, hi in zip(tapes, ends, ends[1:])]
        parts = run(lambda job: self._backward(*job), jobs)
        grads = parts[0]
        for part in parts[1:]:
            for name in grads:
                grads[name] += part[name]
        return loss, grads

    def _backward(self, tape, dlogits):
        """The adapter's gradients from one taped run and d loss / d its logits."""
        grads: dict = {}
        top = tape.pop()
        dxn = dlogits @ self.params["lm_head"].T
        dx = _rmsnorm_bwd(top["x_final"], self.params["final_norm"], top["inv_final"], dxn)
        for rec in reversed(tape):
            p = f"layers.{rec['layer']}."
            if rec["kind"] == "ffn":
                dh = dx @ self.params[p + "w_down"].T
                dz_gate = silu_backward(rec["act"], rec["den"], dh * rec["z_up"])
                dz_up = np.multiply(dh, rec["act"], out=dh)
                dxn = dz_gate @ self.params[p + "w_gate"].T
                dxn += dz_up @ self.params[p + "w_up"].T
                # residual: out = x + ffn(norm(x))
                dx += _rmsnorm_bwd(rec["x"], self.params[p + "ffn_norm"], rec["inv"], dxn)
            else:
                # layer 0's dx reaches only the frozen embedding
                dx = self._attention_bwd(rec, dx, grads, need_dx=rec["layer"] > 0)
        return grads

    def _attention_bwd(self, rec, d_out, grads, need_dx=True):
        """d loss / d the block's input x from d_out over its rows, the read
        ones at the last layer, and the adapters' gradients; only those when
        not need_dx, then None."""
        cfg = self.config
        p = f"layers.{rec['layer']}."
        H, KV, hd = cfg.n_heads, cfg.n_kv_heads, cfg.head_dim
        run, tail = rec["run"], rec["tail"]
        lead, T = (1, run.n), run.grid[1]  # x's (1, n) token rows

        dctx = self._project_bwd(rec["ctx"], p + "wo", d_out, grads)
        if tail is not None:  # the read rows back among the run's rows
            dctx, d_out = _widen(dctx, tail, run.n), _widen(d_out, tail, run.n)
        dctx = _group_heads(_scatter(dctx.reshape(run.n, H, hd), run), KV)  # (B, KV, G*T, hd)
        probs = rec["probs"]  # (B, KV, G*T, S)
        k = rec["k"].transpose(0, 2, 1, 3)  # (B, KV, S, hd)

        # contracting over the G*T axis sums each group onto its shared kv head
        dprobs = dctx @ rec["v"].transpose(0, 2, 3, 1)
        dv = probs.transpose(0, 1, 3, 2) @ dctx
        dscores = softmax_backward(probs, dprobs)
        dscores /= math.sqrt(hd)
        dq = _gather(_ungroup_heads(dscores @ k, T), run)
        # the backward of a rotation is the rotation by the negated angle
        back = -run.sf
        dq = _apply_rope(dq, run.cf, back).reshape(*lead, H * hd)
        dv = _gather(dv.transpose(0, 2, 1, 3), run).reshape(*lead, KV * hd)
        if not need_dx:  # the adapters sit on wq and wv; wk's dk would feed dx alone
            self._project_bwd(rec["xn"], p + "wq", dq, grads, False)
            self._project_bwd(rec["xn"], p + "wv", dv, grads, False)
            return None
        dk = _gather((dscores.transpose(0, 1, 3, 2) @ rec["qg"]).transpose(0, 2, 1, 3), run)
        dk = _apply_rope(dk, run.cf, back)

        dxn = self._project_bwd(rec["xn"], p + "wq", dq, grads)
        dxn += self._project_bwd(rec["xn"], p + "wk", dk.reshape(*lead, KV * hd), grads)
        dxn += self._project_bwd(rec["xn"], p + "wv", dv, grads)
        # residual: out = x + attn(norm(x)), x narrowed to the read rows at the last layer
        dx = _rmsnorm_bwd(rec["x"], self.params[p + "attn_norm"], rec["inv"], dxn)
        dx += d_out
        return dx
