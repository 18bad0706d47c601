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

One masked run, _run, serves forward, the decode prefill and the training
step. It goes token-major over the positions a kept mask selects, the loss's
reach in training and the real tokens in a prefill: each token-wise op is
one GEMM per weight, and only attention sees the (batch, seq) grid. A
cached step of one token per row keeps per-row products: faster there, and
each row's products match one-row decoding bit for bit. From the last
layer's output projection on, only the positions whose logits are read run:
the loss positions in training, each prompt's last token in a prefill. Past
its last layer's keys and values a position feeds no other.

A training step splits its batch into row shards, one for each core that BLAS
leaves idle, and runs their forward and backward on threads; the loss runs
once, on the calling thread.
"""

from __future__ import annotations

import bisect
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
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


def _rmsnorm_fwd(x, gain, eps):
    """y = gain * x / sqrt(mean(x^2) + eps) over the last axis, and 1/rms;
    x * inv reuses the buffer that held x^2."""
    xx = x * x
    inv = xx.mean(axis=-1, keepdims=True)
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


def _apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate consecutive pairs (x_2i, x_2i+1); x is (..., T, n_heads, head_dim),
    cos/sin are (..., T, head_dim/2) and broadcast over the head axis."""
    e, o = x[..., 0::2], x[..., 1::2]
    c = cos[..., :, None, :]
    s = sin[..., :, None, :]
    out = np.empty_like(x)
    even, odd = out[..., 0::2], out[..., 1::2]
    np.multiply(e, c, out=even)
    even -= o * s
    np.multiply(e, s, out=odd)
    odd += o * c
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


def _scatter(rows: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """(1, N, ...) or (N, 1, ...) token rows -> (B, T, ...) grid holding them
    at the N True positions of kept (B, T), in row-major order, and zeros
    elsewhere. When every position is kept the rows already are the grid and
    pass through, reshaped."""
    if rows.shape[0] * rows.shape[1] == kept.size:
        return rows.reshape(kept.shape + rows.shape[2:])
    grid = np.zeros(kept.shape + rows.shape[2:], dtype=rows.dtype)
    grid[kept] = rows.reshape(-1, *rows.shape[2:])
    return grid


def _gather(grid: np.ndarray, kept: np.ndarray, lead: tuple) -> np.ndarray:
    """Inverse of _scatter: the kept positions of a (B, T, ...) grid as token
    rows of shape lead + (...), the grid itself when every position is kept."""
    rows = grid if kept.all() else grid[kept]
    return rows.reshape(lead + grid.shape[2:])


# ------------------------------------------------------------------ row shards


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads() -> int | None:
    """The BLAS thread setting: OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS.
    None, for BLAS on every core, when neither is set or the one read is not
    a positive integer."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            try:
                threads = int(os.environ[var])
            except ValueError:
                return None
            return threads if threads > 0 else None
    return None


def _shard_count(loss_rows: int) -> int:
    """One shard per core that BLAS leaves idle, and none without a loss row."""
    blas = _blas_threads()
    if blas is None:
        return 1
    return max(1, min(_usable_cores() // blas, loss_rows))


def _split_rows(weights: np.ndarray, n: int) -> list[slice]:
    """Cut rows of these weights into n contiguous shards, each of positive
    weight, whose weights differ by at most the largest row's (d).

    Greedy cutting at x cuts each shard at the first boundary at least x
    past the last cut; the larger x, the later every cut, so bisection finds
    low, the largest x at which greedy cutting does not fall short of n
    shards. One reach pass, a step per shard, then finds n shards of weight
    in [low, low + d] that end at the last row. They exist: k such steps
    reach every boundary from the k-th greedy cut at low to the latest cut k
    steps can reach, since every span of weight d holds a boundary. Greedy
    cutting at low + 1 ends within low of the last boundary after fewer
    than n shards, the latest cuts lie no earlier, so some k < n steps reach
    the last boundary, and then so do k + 1 up to n.
    """
    rows = len(weights)
    if n == 1:
        return [slice(0, rows)]
    ends = np.concatenate([[0], np.cumsum(weights)])

    def greedy_falls_short(x):
        cut = 0
        for _ in range(n):  # past the last row, cut stays at rows + 1
            cut = np.searchsorted(ends, ends[min(cut, rows)] + x)
        return cut > rows

    low = bisect.bisect_left(range(1, int(ends[-1]) // n + 1), True, key=greedy_falls_short)
    if low == 0:
        raise ValueError(f"{n} shards need {n} rows of positive weight")
    span = ends[None, :] - ends[:, None]  # span[i, j]: weight of rows i .. j-1
    fits = (span >= low) & (span <= low + weights.max())
    reach = [np.arange(rows + 1) == 0]
    for _ in range(n):
        reach.append((reach[-1][:, None] & fits).any(axis=0))
    cuts = [rows]
    for k in range(n - 1, -1, -1):
        cuts.append(int(np.flatnonzero(reach[k] & fits[:, cuts[-1]])[0]))
    cuts.reverse()
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _map_shards(pool, fn, items) -> list:
    """[fn(item) for item in items]: the first on the calling thread, the
    rest on pool."""
    rest = [pool.submit(fn, item) for item in items[1:]]
    first = fn(items[0])
    return [first] + [future.result() for future in rest]


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

    def store(self, layer: int, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Write (B, T, KV, hd) keys/values at each row's own next T slots."""
        slots = self.lengths[:, None] + np.arange(k_new.shape[1])
        rows = np.arange(self.batch)[:, None]
        self.k[layer][rows, slots] = k_new
        self.v[layer][rows, slots] = v_new

    def keep(self, rows) -> None:
        """Keep only the given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        self.k = [k[rows] for k in self.k]
        self.v = [v[rows] for v in self.v]
        self.lengths = self.lengths[rows]


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
        # the training step's shard threads, reused with their malloc arenas by
        # the steps of one train call, which shuts them down as it ends
        self._pool = None

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
        segment appended after cache.lengths[b] and only it gets logits."""
        tokens = np.asarray(tokens)
        if tokens.ndim not in (1, 2):
            raise DataError(f"tokens must be 1D or 2D, got shape {tokens.shape}")
        tokens2d = tokens[None, :] if tokens.ndim == 1 else tokens
        return self._run(tokens2d, cache, None).reshape(*tokens.shape, -1)

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
        return positions

    def _run(self, tokens, cache, tape, kept=None, read=None):
        """Logits for the positions of tokens (B, T) that read, a (B, T) bool
        mask inside kept, selects; kept, a (B, T) bool mask of each row's
        first positions, selects those that run, and both default to all.
        They run as (1, N) token rows, each token-wise op one GEMM per weight,
        or, in a cached step of one token per row, as (N, 1), one product per
        row. Only attention sees the (B, T) grid, with zeros where kept is
        False. The last layer narrows to the read rows after its attention
        context. The logits come back in the rows' layout."""
        if tape is not None and cache is not None:
            raise NumericError("taped forward does not take a cache")
        cfg = self.config
        positions = self._positions(tokens, cache)
        kept = np.ones(tokens.shape, dtype=bool) if kept is None else kept
        if read is None or np.count_nonzero(read) == np.count_nonzero(kept):
            read = kept  # read lies inside kept, so as many positions are the same ones
        lead = (-1, 1) if cache is not None and tokens.shape[1] == 1 else (1, -1)
        rope_positions = positions[kept].reshape(lead)
        cos, sin = _rope_tables(rope_positions, cfg.head_dim, cfg.rope_base, self.dtype)
        x = self.params["tok_embed"][tokens[kept].reshape(lead)]

        for i in range(cfg.n_layers):
            out = read if i == cfg.n_layers - 1 else kept
            x = self._attention(x, i, cache, cos, sin, positions, tape, kept, out)
            x = x + self._ffn(x, i, tape)
        if cache is not None:
            cache.lengths += kept.sum(axis=1)

        xn, inv = _rmsnorm_fwd(x, self.params["final_norm"], cfg.rmsnorm_eps)
        logits = xn @ self.params["lm_head"]
        if tape is not None:
            tape.append({"x_final": x, "inv_final": inv})
        return logits

    def _attention(self, x, layer, cache, cos, sin, positions, tape, kept, out):
        """x plus the attention block's output, over the positions of out, a
        (B, T) mask inside kept: kept itself but at the last layer."""
        cfg = self.config
        p = f"layers.{layer}."
        H, KV, hd = cfg.n_heads, cfg.n_kv_heads, cfg.head_dim

        lead = x.shape[:2]  # (1, N) token rows, or (N, 1)
        xn, inv = _rmsnorm_fwd(x, self.params[p + "attn_norm"], cfg.rmsnorm_eps)
        q = self._project(xn, p + "wq").reshape(*lead, H, hd)
        k = self._project(xn, p + "wk").reshape(*lead, KV, hd)
        v = self._project(xn, p + "wv").reshape(*lead, KV, hd)
        q = _apply_rope(q, cos, sin)
        k = _apply_rope(k, cos, sin)
        # token rows onto the (B, T) grid; a zero key past a row's end sits
        # after every kept query of that row, so the mask hides it
        q, k, v = _scatter(q, kept), _scatter(k, kept), _scatter(v, kept)
        B, T = kept.shape

        # key s is visible to the query at position p when s <= p; a cached
        # row's free slots past its own length fall outside that
        S = int(positions.max()) + 1
        if cache is not None:
            cache.store(layer, k, v)
            k_all = cache.k[layer][:, :S]
            v_all = cache.v[layer][:, :S]
        else:
            k_all, v_all = k, v
        hidden = (np.arange(S) > positions[..., None])[:, None, None]  # (B, 1, 1, T, S)

        # query head h = kv * G + g shares kv head kv; stacking each group's
        # G query heads along the time axis makes one batched matmul per kv head
        G = H // KV
        qg = _group_heads(q, KV)  # (B, KV, G*T, hd)
        scores = (qg @ k_all.transpose(0, 2, 3, 1)).reshape(B, KV, G, T, S)
        scores /= math.sqrt(hd)
        np.copyto(scores, -np.inf, where=hidden)
        probs = softmax(scores).reshape(B, KV, G * T, S)
        ctx = _ungroup_heads(probs @ v_all.transpose(0, 2, 1, 3), T).reshape(B, T, H * hd)
        # the last layer goes on over the read rows alone, in the rows' layout
        rows = (1, -1) if lead[0] == 1 else (-1, 1)
        ctx = _gather(ctx, out, rows)
        residual = x if out is kept else _gather(x, out[kept].reshape(lead), rows)

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
                    "kept": kept,
                    "out": out,
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
        """Masked next-token loss and the attached adapter's gradients.

        The base weights are frozen: grads holds exactly the ".lora_a" and
        ".lora_b" entries of each adapter target, in the model's dtype.

        Under the causal mask a position past its row's last mask=True
        position cannot reach the loss, so only the positions up to it are
        computed; a row without a loss position drops out. The last layer's
        output side, the final norm, lm_head and the loss run over the loss
        positions alone, and the backward stops at layer 0's adapter
        gradients.

        The rows run as contiguous shards balanced by kept positions, one
        per core BLAS leaves idle (_shard_count): each shard's forward on
        its own thread, the shard on the calling thread included; the loss
        and its gradient once over the shards' logits, in row order, on the
        calling thread; then each shard's backward from its slice, with the
        gradients summed in shard order. One shard starts no thread.
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
        sizes = kept.sum(axis=1)
        shards = _split_rows(sizes, _shard_count(int(np.count_nonzero(sizes))))

        def forward(rows):
            tape: list = []
            return tape, self._run(inputs[rows], None, tape, kept[rows], mask[rows])

        if len(shards) > 1 and self._pool is None:
            self._pool = ThreadPoolExecutor(thread_name_prefix="eyedx-shard")
        tapes, logits = zip(*_map_shards(self._pool, forward, shards))
        # the loss positions' logits, summed over the kept positions' layout
        logits = np.concatenate(logits, axis=1)[0]
        labels, mask_kept = labels[kept][None], mask[kept][None]
        loss = cross_entropy(logits, labels, mask_kept)
        dlogits = cross_entropy_backward(logits, labels, mask_kept)
        ends = np.cumsum([0] + [int(mask[rows].sum()) for rows in shards])
        jobs = [(tape, dlogits[None, lo:hi]) for tape, lo, hi in zip(tapes, ends, ends[1:])]
        parts = _map_shards(self._pool, lambda job: self._backward(*job), jobs)
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
        """d loss / d the block's input x from d_out over its out rows, and the
        adapters' gradients; only those when not need_dx, then None."""
        cfg = self.config
        p = f"layers.{rec['layer']}."
        H, KV, hd = cfg.n_heads, cfg.n_kv_heads, cfg.head_dim
        lead = rec["x"].shape[:2]  # (1, N) token rows
        kept = rec["kept"]
        T = kept.shape[1]

        ctx = rec["ctx"]
        dctx = self._project_bwd(ctx, p + "wo", d_out, grads).reshape(*ctx.shape[:2], H, hd)
        dctx = _group_heads(_scatter(dctx, rec["out"]), KV)  # (B, KV, G*T, hd)
        probs = rec["probs"]  # (B, KV, G*T, S)
        k = rec["k"].transpose(0, 2, 1, 3)  # (B, KV, S, hd)

        # contracting over the G*T axis sums each group onto its shared kv head
        dprobs = dctx @ rec["v"].transpose(0, 2, 3, 1)
        dv = probs.transpose(0, 1, 3, 2) @ dctx
        dscores = softmax_backward(probs, dprobs)
        dscores /= math.sqrt(hd)
        dq = _gather(_ungroup_heads(dscores @ k, T), kept, lead)
        # the backward of a rotation is the rotation by the negated angle
        dq = _apply_rope(dq, rec["cos"], -rec["sin"]).reshape(*lead, H * hd)
        dv = _gather(dv.transpose(0, 2, 1, 3), kept, lead).reshape(*lead, KV * hd)
        if not need_dx:  # the adapters sit on wq and wv; wk's dk would feed dx alone
            self._project_bwd(rec["xn"], p + "wq", dq, grads, False)
            self._project_bwd(rec["xn"], p + "wv", dv, grads, False)
            return None
        dk = _gather((dscores.transpose(0, 1, 3, 2) @ rec["qg"]).transpose(0, 2, 1, 3), kept, lead)
        dk = _apply_rope(dk, rec["cos"], -rec["sin"])

        dxn = self._project_bwd(rec["xn"], p + "wq", dq, grads)
        dxn += self._project_bwd(rec["xn"], p + "wk", dk.reshape(*lead, KV * hd), grads)
        dxn += self._project_bwd(rec["xn"], p + "wv", dv, grads)
        # residual: out = x + attn(norm(x)), x narrowed to the out rows
        if rec["out"] is not kept:
            d_out = _scatter(d_out, rec["out"][kept].reshape(lead))
        dx = _rmsnorm_bwd(rec["x"], self.params[p + "attn_norm"], rec["inv"], dxn)
        dx += d_out
        return dx
