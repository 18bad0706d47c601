"""Command-line surface for the report-to-diagnosis pipeline.

Five subcommands: prepare (corpus ingestion/synthesis and splitting), train
(LoRA fine-tuning), infer (single-report diagnosis), evaluate (ROUGE
comparison across checkpoints), and bench (wall-time measurements).

Exit codes: 0 success, 1 usage error, 2 data error (also a file that cannot
be read or written), 3 numeric failure, 130 interrupted (Ctrl-C), 141 stdout
closed by its reader (a broken pipe).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import typing
import warnings
from dataclasses import fields
from pathlib import Path

from .container import load_bundle, save_model
from .corpus import (
    DEFAULT_TEMPLATE,
    MODALITIES,
    dedup,
    ingest,
    load_template,
    modality_counts,
    read_text,
    render_prompt,
    split,
    synthesize,
    write_jsonl,
)
from .errors import DataError, NumericError
from .lora import attach, load_adapter, merge, save_adapter
from .model import Model, ModelConfig, init_params
from .quant import QuantizedModel, quantize_model
from .rouge import evaluate as evaluate_corpus
from .rouge import format_table, write_report
from .sample import DecodeParams, decode_batch
from .tokenizer import BOS_ID, build
from .train import TrainConfig, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse normally exits 2 on bad flags; route that through exit code 1."""

    def error(self, message):
        raise _UsageError(message)


# ------------------------------------------------------------------ helpers


def _read_records(data_dir, name: str):
    path = Path(data_dir) / f"{name}.jsonl"
    if not path.exists():
        raise DataError(f"{path} not found; run prepare first")
    records = ingest(path)
    if not records:
        raise DataError(f"{path} contains no records")
    return records


def _template_from(args):
    return load_template(args.template) if args.template else DEFAULT_TEMPLATE


def _merge_adapter(model, adapter_path):
    attach(model, adapter=load_adapter(adapter_path))
    merge(model)


# one help line per field; each flag's type and default come from the field
_FIELD_HELP = {
    TrainConfig: {
        "learning_rate": "Adam learning rate",
        "batch_size": "records per micro-batch",
        "max_seq_len": "token window per record",
        "grad_accum_steps": "micro-batches per optimizer step",
        "lora_r": "adapter rank",
        "lora_alpha": "adapter scale numerator",
        "epochs": "passes over the data",
        "seed": "shuffle/init seed",
    },
    DecodeParams: {
        "temperature": "softmax temperature",
        "max_new_tokens": "generation budget, clamped to the context window",
        "repetition_penalty": "penalty on already-seen tokens",
        "top_k": "keep the k most likely tokens",
        "top_p": "nucleus mass to keep",
        "seed": "sampling seed",
    },
}


def _add_field_flags(parser, cls):
    """One --field-name flag per dataclass field; an unset flag reads None."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        parser.add_argument("--" + f.name.replace("_", "-"), type=hints[f.name], default=None,
                            help=f"{_FIELD_HELP[cls][f.name]} (default {f.default})")


def _from_flags(cls, args, values=()):
    """cls built from values, each overridden by its flag if that flag was given."""
    given = {f.name: getattr(args, f.name) for f in fields(cls) if getattr(args, f.name) is not None}
    return cls(**{**dict(values), **given})


def _parse_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    hints = typing.get_type_hints(TrainConfig)
    valid = {f.name for f in fields(TrainConfig)}
    values: dict = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, eq, value = line.partition("=")
        name, value = name.strip(), value.strip()
        if not eq or not name or not value:
            raise DataError(f"{path}:{lineno}: expected 'name = value'")
        if name not in valid:
            raise DataError(f"{path}:{lineno}: unknown config key {name!r} (valid: {sorted(valid)})")
        try:
            values[name] = hints[name](value)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value for {name}: {value!r}") from exc
    return values


# ----------------------------------------------------------------- commands


def _cmd_prepare(args):
    if (args.input is None) == (args.synthesize is None):
        raise _UsageError("prepare needs exactly one of --input or --synthesize")
    if args.synthesize is not None:
        records = synthesize(args.synthesize, seed=args.seed)
    else:
        records = ingest(args.input)
    records = dedup(records)
    parts = split(records, ratio=args.ratio, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(parts.train, out / "train.jsonl")
    write_jsonl(parts.test, out / "test.jsonl")
    manifest = {
        "seed": args.seed,
        "ratio": args.ratio,
        "total": len(records),
        "train": {"total": len(parts.train), "by_modality": modality_counts(parts.train)},
        "test": {"total": len(parts.test), "by_modality": modality_counts(parts.test)},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(parts.train)} train / {len(parts.test)} test records to {out}")


def _cmd_train(args):
    records = _read_records(args.data, "train")
    template = _template_from(args)
    config = _from_flags(TrainConfig, args, _parse_config_file(args.config) if args.config else {})

    if args.model:
        model, vocab = load_bundle(args.model)
    else:
        texts = [" ".join(render_prompt(r, template)) for r in records]
        vocab = build(texts)
        model_config = ModelConfig(vocab_size=vocab.size, max_seq_len=config.max_seq_len)
        model = Model(model_config, init_params(model_config, seed=config.seed))
    if config.max_seq_len > model.config.max_seq_len:
        raise DataError(
            f"max_seq_len {config.max_seq_len} exceeds the model's window "
            f"{model.config.max_seq_len}"
        )

    attach(model, rank=config.lora_r, alpha=config.lora_alpha, seed=config.seed)
    log_lines: list[str] = []

    def log(line: str):
        log_lines.append(line)
        print(line)

    result = train(model, records, vocab, config, template=template, log=log)
    if not args.model:  # a run that fails leaves no base model behind; training keeps it frozen
        model_out = Path(args.model_out) if args.model_out else Path(args.out).parent / "model.olm"
        save_model(model, model_out, vocab=vocab)
        print(f"initialized base model {model_out} (vocab {vocab.size})")
    save_adapter(result.adapter, args.out)
    log_path = Path(args.log) if args.log else Path(str(args.out) + ".log")
    log_path.write_text("".join(line + "\n" for line in log_lines), encoding="utf-8")
    print(
        f"saved adapter to {args.out}: {result.steps} steps, "
        f"final loss {result.loss_history[-1]:.4f}, "
        f"{result.tokens_seen} tokens in {result.seconds:.1f}s"
    )


def _cmd_infer(args):
    model, vocab = load_bundle(args.model)
    if args.adapter:
        _merge_adapter(model, args.adapter)
    if args.quant:
        if isinstance(model, QuantizedModel):
            raise DataError(f"{args.model} is already quantized")
        model = QuantizedModel(model.config, quantize_model(model.params, model.config))

    findings = args.report
    if findings.startswith("@"):
        path = Path(findings[1:])
        if not path.exists():
            raise DataError(f"report file not found: {path}")
        findings = read_text(path)
    findings = findings.strip()
    if not findings:
        raise DataError("empty report text")

    ids = [BOS_ID] + vocab.encode(_template_from(args).render(args.modality, findings))
    [generation] = decode_batch(model, [ids], _from_flags(DecodeParams, args))
    print(vocab.decode(generation.unwrap()))


def _cmd_evaluate(args):
    adapters = args.adapter or ["-"] * len(args.model)
    if len(adapters) != len(args.model):
        raise _UsageError("--adapter count must match --model count (use '-' for none)")
    out = Path(args.out)  # checked before any model is decoded; not yet created
    if out.is_dir():
        raise DataError(f"--out {out} is a directory")
    if not out.parent.is_dir():
        raise DataError(f"--out {out}: no directory {out.parent}")
    records = _read_records(args.data, "test")
    if args.limit is not None:
        if args.limit < 1:
            raise _UsageError("--limit must be >= 1")
        records = records[: args.limit]
    template = _template_from(args)
    params = _from_flags(DecodeParams, args)

    rows = []
    for model_path, adapter_path in zip(args.model, adapters):
        model, vocab = load_bundle(model_path)
        name = Path(model_path).stem
        if adapter_path != "-":
            _merge_adapter(model, adapter_path)
            name += "+" + Path(adapter_path).stem
        report = evaluate_corpus(model, records, vocab, template=template, params=params)
        rows.append((name, report))

    print(format_table(rows), end="")
    write_report(args.out, rows)
    print(f"wrote {args.out}")


def _cmd_bench(args):
    train_records = _read_records(args.data, "train")[:32]
    test_records = _read_records(args.data, "test")[:8]
    template = _template_from(args)

    model, vocab = load_bundle(args.model)
    window = min(TrainConfig.max_seq_len, model.config.max_seq_len)
    tune_config = TrainConfig(epochs=1, grad_accum_steps=4, seed=args.seed, max_seq_len=window)
    attach(model, rank=tune_config.lora_r, alpha=tune_config.lora_alpha, seed=tune_config.seed)
    tuned = train(model, train_records, vocab, tune_config, template=template)

    # Time inference on a fresh load so the throwaway adapter plays no part.
    model, vocab = load_bundle(args.model)
    if args.adapter:
        _merge_adapter(model, args.adapter)
    params = DecodeParams(seed=args.seed)
    latencies = []
    generated = 0
    for record in test_records:
        prompt_text, _ = render_prompt(record, template)
        start = time.perf_counter()  # one record per call: latency per report
        ids = [BOS_ID] + vocab.encode(prompt_text)
        [generation] = decode_batch(model, [ids], params)
        latencies.append(time.perf_counter() - start)
        generated += len(generation.unwrap())
    mean = statistics.fmean(latencies)
    spread = statistics.stdev(latencies) if len(latencies) > 1 else 0.0

    print("| phase | seconds |")
    print("| --- | --- |")
    print(
        f"| fine-tune ({len(train_records)} reports, {tune_config.epochs} epoch, "
        f"{tuned.tokens_seen} tokens) | {tuned.seconds:.2f} |"
    )
    print(
        f"| inference per report ({len(test_records)} reports, {generated} tokens generated) "
        f"| {mean:.3f} ± {spread:.3f} |"
    )


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eyedx", description="Report-to-diagnosis pipeline.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("prepare", help="ingest or synthesize reports and write a train/test split")
    p.add_argument("--input", help="JSON-lines report file to ingest")
    p.add_argument("--synthesize", type=int, metavar="N",
                   help="generate N synthetic reports per modality instead")
    p.add_argument("--seed", type=int, default=0, help="synthesis and split seed (default 0)")
    p.add_argument("--ratio", type=float, default=0.6, help="train fraction (default 0.6)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("train", help="LoRA-fine-tune on a prepared corpus")
    p.add_argument("--data", required=True, help="directory written by prepare")
    p.add_argument("--out", required=True, help="adapter file to write")
    p.add_argument("--config", help="key = value file; keys mirror the training fields")
    p.add_argument("--model", help="base model checkpoint, float or quantized (default: initialize a fresh one)")
    p.add_argument("--model-out", help="where to write a fresh base model (default: model.olm beside the adapter)")
    p.add_argument("--log", help="loss log file (default: adapter path + .log)")
    p.add_argument("--template", help="prompt template file")
    _add_field_flags(p, TrainConfig)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="generate a diagnosis for one report")
    p.add_argument("--model", required=True, help="model checkpoint (float or quantized)")
    p.add_argument("--adapter", help="LoRA adapter to merge before decoding")
    p.add_argument("--quant", action="store_true", help="quantize weights to int4 before decoding")
    p.add_argument("--report", required=True, help="findings text, or @path to read a file")
    p.add_argument("--modality", required=True, choices=MODALITIES, help="report modality")
    p.add_argument("--template", help="prompt template file")
    _add_field_flags(p, DecodeParams)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("evaluate", help="score checkpoints on the test split")
    p.add_argument("--model", action="append", required=True,
                   help="model checkpoint; repeat for one table row each")
    p.add_argument("--adapter", action="append",
                   help="adapter per model, '-' for none; count must match --model")
    p.add_argument("--data", required=True, help="directory written by prepare")
    p.add_argument("--out", required=True, help="JSON report file to write")
    p.add_argument("--limit", type=int, default=None, help="score only the first N test records")
    p.add_argument("--template", help="prompt template file")
    _add_field_flags(p, DecodeParams)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bench", help="time fine-tuning and per-report inference")
    p.add_argument("--model", required=True, help="model checkpoint (float or quantized)")
    p.add_argument("--adapter", help="adapter to merge for the inference timing")
    p.add_argument("--data", required=True, help="directory written by prepare")
    p.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    p.add_argument("--template", help="prompt template file")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # numpy's overflow warnings would print ahead of the one-line error the
        # finite checks raise; a filter, not np.errstate, since errstate is per
        # thread and the training step's shard threads start with the defaults
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the exit-time flush
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader left; on devnull the exit-time flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:  # decode_batch has reaped its forked children by now
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
