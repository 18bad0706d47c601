"""Span wrappers around eyedx entry points, and the per-layer metrics
computed from the spans they record.

The wrappers replace module and class attributes for the duration of a
``with installed(recorder):`` block and restore them on exit, so the program
itself is never edited. A function is wrapped where its caller looks it up:
``rouge.evaluate`` reaches ``sample.decode`` through the ``eyedx.rouge``
binding, and ``Model.loss_and_grads`` reaches the numerics cross-entropy
through the ``eyedx.model`` bindings.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from counts import train_step_flops
from spans import ancestor, roots, self_times

UNIT = "bench.unit"  # root span around one unit of measured work
SETUP = "bench.setup"  # root span around one set-up repetition


def _forward_attrs(args, kwargs, out):
    return {"T": int(np.shape(args[1])[-1])}


def _loss_attrs(args, kwargs, out):
    batch, seq = np.shape(args[1])
    return {"B": int(batch), "T": int(seq)}


def _batch_attrs(args, kwargs, batch):
    rows, width = batch.inputs.shape
    return {"B": int(rows), "T": int(width), "mask": int(batch.mask.sum())}


def _decode_attrs(args, kwargs, out):
    model, prompt, params = args[0], args[1], args[2]
    return {
        "prompt": len(prompt),
        "budget": int(params.max_new_tokens),
        "generated": len(out),
        "max_seq_len": int(model.config.max_seq_len),
    }


def _at_top(rec) -> bool:
    # a vocabulary lookup straight under a unit span starts a test record;
    # make_batch's own encodes sit one level deeper
    return rec.depth == 1


# (module, attribute path, span name, attrs from (args, kwargs, result), group start)
PROBES = (
    ("eyedx.model", "Model.forward", "model.forward", _forward_attrs, None),
    ("eyedx.model", "Model.loss_and_grads", "model.loss_and_grads", _loss_attrs, None),
    ("eyedx.model", "cross_entropy", "numerics.cross_entropy", None, None),
    ("eyedx.model", "cross_entropy_backward", "numerics.cross_entropy_backward", None, None),
    ("eyedx.train", "make_batch", "train.make_batch", _batch_attrs, True),
    ("eyedx.train", "Adam.step", "train.adam_step", None, None),
    ("eyedx.sample", "filter_logits", "sample.filter_logits", None, None),
    ("eyedx.rouge", "decode", "sample.decode", _decode_attrs, None),
    ("eyedx.rouge", "score_pair", "rouge.score_pair", None, None),
    ("eyedx.tokenizer", "Vocabulary.encode", "tokenizer.encode", None, _at_top),
    ("eyedx.tokenizer", "Vocabulary.decode", "tokenizer.decode", None, None),
    ("eyedx.quant", "quantize_model", "quant.quantize_model", None, None),
    ("eyedx.quant", "dequantize", "quant.dequantize", None, None),
    ("eyedx.container", "save_quantized", "container.save_quantized", None, None),
    ("eyedx.container", "load_bundle", "container.load_bundle", None, None),
    ("eyedx.lora", "attach", "lora.attach", None, None),
)


def _wrap(fn, rec, name, attrs, group_start):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        new_group = group_start is True or (group_start is not None and group_start(rec))
        span = rec.open(name, new_group)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, out)
        return out

    return wrapper


@contextmanager
def installed(rec):
    """Route every probed entry point through a span wrapper on ``rec``."""
    saved = []
    try:
        for module, path, name, attrs, group_start in PROBES:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(original, rec, name, attrs, group_start))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ------------------------------------------------------------ metrics


def _ms(values, q=50):
    # a layer the workload never calls reports 0
    return 1000.0 * float(np.percentile(values, q)) if values else 0.0


def _mean(values):
    return float(statistics.fmean(values)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, unit_walls, untraced_walls, records, config, rank, checkpoint_bytes):
    """Per-layer metrics of a traced run.

    ``unit_walls`` are the wall times of the traced units, measured outside
    their root spans, and ``untraced_walls`` those of the same units run
    without wrappers; ``records`` counts the test records the traced units
    evaluated.
    """
    selfs = self_times(spans)
    root = roots(spans)
    in_unit = [spans[r].name == UNIT for r in root]
    loop: dict[str, list[int]] = defaultdict(list)
    every: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        every[s.name].append(i)
        if in_unit[i]:
            loop[s.name].append(i)

    def durs(name, where=loop):
        return [spans[i].duration for i in where[name]]

    def attrs(name):
        return [spans[i].attrs for i in loop[name]]

    wall = sum(unit_walls)
    m = {}

    grads = durs("model.loss_and_grads")
    m["model.loss_and_grads_ms_p50"] = _ms(grads)
    m["model.loss_and_grads_share"] = _ratio(sum(grads), wall)
    m["train.adam_step_ms"] = _ms(durs("train.adam_step"))
    m["train.make_batch_ms"] = _ms(durs("train.make_batch"))
    ce_per_step: dict[int, float] = defaultdict(float)
    for name in ("numerics.cross_entropy", "numerics.cross_entropy_backward"):
        for i in loop[name]:
            ce_per_step[spans[i].group] += spans[i].duration
    m["numerics.cross_entropy_ms"] = _ms(list(ce_per_step.values()))

    batches = attrs("train.make_batch")
    m["train.useful_position_ratio"] = _ratio(
        sum(a["mask"] for a in batches), sum(a["B"] * a["T"] for a in batches)
    )
    shapes = attrs("model.loss_and_grads")
    m["model.positions_per_step"] = _mean([a["B"] * a["T"] for a in shapes])
    flops = [train_step_flops(config, a["B"], a["T"], rank) for a in shapes]
    for part in ("attention", "projection", "ffn"):
        m[f"model.{part}_flops_per_step"] = _mean([f[part] for f in flops])

    forwards = loop["model.forward"]
    prefill = [spans[i].duration for i in forwards if spans[i].attrs["T"] > 1]
    steps = [spans[i].duration for i in forwards if spans[i].attrs["T"] == 1]
    m["model.prefill_ms_p50"] = _ms(prefill)
    m["model.decode_step_ms_p50"] = _ms(steps)
    m["model.decode_step_ms_p99"] = _ms(steps, 99)
    m["model.forward_calls"] = _ratio(len(forwards), records)

    decodes = attrs("sample.decode")
    m["model.kv_used_ratio"] = _mean(
        [(a["prompt"] + a["generated"]) / a["max_seq_len"] for a in decodes]
    )
    m["sample.filter_logits_ms_p50"] = _ms(durs("sample.filter_logits"))
    m["sample.self_share"] = _ratio(
        sum(selfs[i] for i in loop["sample.decode"]), sum(durs("sample.decode"))
    )
    m["sample.tokens_per_record"] = _mean([a["generated"] for a in decodes])
    m["sample.eos_stop_ratio"] = _ratio(
        sum(a["generated"] < a["budget"] for a in decodes), len(decodes)
    )
    m["rouge.score_ms"] = _ms(durs("rouge.score_pair"))
    m["tokenizer.encode_ms"] = _ms(durs("tokenizer.encode"))
    m["tokenizer.decode_ms"] = _ms(durs("tokenizer.decode"))

    # set-up layers run mostly outside the units, so they use every span
    m["quant.quantize_model_ms"] = _ms(durs("quant.quantize_model", every))
    per_load = {i: 0.0 for i in every["container.load_bundle"]}
    for j in every["quant.dequantize"]:
        load = ancestor(spans, j, "container.load_bundle")
        if load is not None:
            per_load[load] += spans[j].duration
    m["quant.dequantize_ms"] = _ms(list(per_load.values()))
    m["container.save_ms"] = _ms(durs("container.save_quantized", every))
    m["container.load_bundle_ms"] = _ms(durs("container.load_bundle", every))
    m["container.checkpoint_bytes"] = float(checkpoint_bytes)
    m["lora.attach_ms"] = _ms(durs("lora.attach", every))

    m["trace.traced_over_untraced"] = float(
        np.median([t / u for t, u in zip(unit_walls, untraced_walls)])
    )
    m["trace.self_time_coverage"] = _ratio(sum(selfs[i] for i in range(len(spans)) if in_unit[i]), wall)
    m["trace.unattributed_share"] = _ratio(sum(selfs[i] for i in loop[UNIT]), wall)
    return m


def self_time_table(spans, unit_walls) -> dict:
    """Calls, total and self milliseconds, and self share of the traced unit
    wall time, per span name, over the spans inside units."""
    selfs = self_times(spans)
    root = roots(spans)
    wall = sum(unit_walls)
    table: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if spans[root[i]].name != UNIT:
            continue
        row = table.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += 1000.0 * s.duration
        row["self_ms"] += 1000.0 * selfs[i]
    for row in table.values():
        row["self_share"] = _ratio(row["self_ms"] / 1000.0, wall)
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]))
