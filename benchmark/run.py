"""Benchmark command for eyedx.

    python3 benchmark/run.py --workload finetune --seed 0 --seconds 30 --trace 0

Runs one workload in this process from the checkout's ``src/``. With
``--trace 0`` it reports the end-to-end metrics, its timings rescaled to a
reference machine speed (``speed.py``); with ``--trace 1`` it alternates
each unit of work untraced and traced, and reports the per-layer metrics and
the tracing overhead. The last line of standard output is one
JSON object; the full result, and in traced runs every span, is written
under ``benchmark/out/``. Exits 1 when a correctness check fails and 2 when
the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1  # measured: a second thread does not speed up these shapes
SETUP_REPEATS = 5


def _declared(section: str) -> dict:
    """The metrics BENCHMARK.json declares in ``section``, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec[section]}


def _with_units(values: dict, section: str) -> dict:
    declared = _declared(section)
    if set(values) != set(declared):
        raise ValueError(f"computed {section} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(declared))}")
    return {n: {"value": values[n], "unit": declared[n]["unit"]} for n in declared}


def _blas_runtime():
    """Name and thread count of the BLAS numpy loaded, asked of the library
    itself; None where the library does not answer."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is None or config is None:
                    continue
                getter.argtypes, getter.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                return config().decode(), getter()
    return None, None


def machine_facts() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    runtime, threads = _blas_runtime()
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime": runtime,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": threads,
    }


def use_checkout() -> None:
    """Pin the BLAS threads, before numpy is first imported so that BLAS
    starts with them, and import eyedx from this checkout's sources."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _timed(fn, rec=None, root=None):
    """Run ``fn`` and return its result and wall seconds. With a recorder it
    runs under the probes and inside a ``root`` span, and the wall time
    encloses that span but not the installing of the probes."""
    import probes

    if rec is None:
        start = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - start
    with probes.installed(rec):
        start = time.perf_counter()
        with rec.span(root, new_group=True):
            out = fn()
        return out, time.perf_counter() - start


@dataclass
class Measured:
    setup_s: list  # wall seconds of each set-up
    setup_scale: list  # speed.REFERENCE_S over the probe time around each set-up
    warm: list  # warm-up outputs
    plain: list  # untraced units
    plain_scale: list
    plain_walls: list
    traced: list = field(default_factory=list)
    walls: list = field(default_factory=list)  # traced units, around their root span
    outputs: dict = field(default_factory=dict)  # place in the cycle -> outputs seen


def measure(work, seconds, rec=None) -> Measured:
    """Set up SETUP_REPEATS times, then run units of work for ``seconds``.

    The speed probe runs before the first set-up and after every set-up and
    unit; each is rescaled by the mean of the probe times on either side. In
    a traced run (``rec`` given) each unit runs twice, untraced and then
    traced, so that the overhead is measured on identical work.
    """
    import probes
    from speed import REFERENCE_S, SpeedProbe

    probe = SpeedProbe()
    probe.seconds()  # first call pays numpy's lazy set-up
    last = probe.seconds()

    def scale():
        nonlocal last
        now = probe.seconds()
        factor = REFERENCE_S / ((last + now) / 2)
        last = now
        return factor

    m = Measured([], [], [], [], [], [])
    for _ in range(SETUP_REPEATS):
        out, wall = _timed(work.setup, rec, probes.SETUP)
        m.setup_scale.append(scale())
        m.warm.append(out)
        m.setup_s.append(wall)
    work.prepare()

    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        unit, wall = _timed(lambda: work.unit(k))
        m.plain_scale.append(scale())
        m.plain.append(unit)
        m.plain_walls.append(wall)
        m.outputs.setdefault(k % work.cycle, set()).add(unit.output)
        if rec is not None:
            unit, wall = _timed(lambda: work.unit(k), rec, probes.UNIT)
            m.traced.append(unit)
            m.walls.append(wall)
            m.outputs.setdefault(k % work.cycle, set()).add(unit.output)
            last = probe.seconds()
        k += 1
    return m


def timings(m: Measured, rescale: bool) -> dict:
    """The timing metrics of the untraced units, rescaled to the reference
    speed or as wall time."""
    pairs = [(u, s if rescale else 1.0) for u, s in zip(m.plain, m.plain_scale) if not u.failed]
    setups = [t * (s if rescale else 1.0) for t, s in zip(m.setup_s, m.setup_scale)]
    steps = [ms * s for u, s in pairs for ms in u.steps_ms]
    return {
        "setup_s": statistics.median(setups),
        "tokens_per_s": statistics.median(u.tokens / (u.seconds * s) for u, s in pairs) if pairs else 0.0,
        "records_per_s": statistics.median(u.records / (u.seconds * s) for u, s in pairs) if pairs else 0.0,
        "step_ms_p50": _percentile(steps, 50),
        "step_ms_p90": _percentile(steps, 90),
    }


def run(args) -> int:
    import probes
    from spans import Recorder
    from workloads import LORA_RANK, REFERENCE_SEED, WORKLOADS

    facts = machine_facts()
    if facts["blas_threads_runtime"] not in (None, BLAS_THREADS):
        print(f"BLAS runs {facts['blas_threads_runtime']} threads, not {BLAS_THREADS}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = WORKLOADS[args.workload](args.seed, OUT)
    rec = Recorder() if args.trace else None
    m = measure(work, args.seconds, rec)
    units = m.plain + m.traced

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    if reference["seed"] != REFERENCE_SEED:
        raise ValueError("reference.json was made for another reference seed")
    hits, total = work.match(work.reference_outputs(), reference[work.name])

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    wall = timings(m, rescale=False)
    e2e = {
        **timings(m, rescale=True),
        "reference_match": hits / total if total else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    checks = {
        "setup_deterministic": len(set(m.warm)) == 1,
        "units_deterministic": all(len(v) == 1 for v in m.outputs.values()),
        "no_failures": failed == 0,
        **work.checks(),
    }
    if work.guards_match:
        bound = _declared("end_to_end")["reference_match"]["bound"]
        checks["reference_match_within_bound"] = e2e["reference_match"] >= 1 - bound
    correct = all(checks.values())

    result = {
        "workload": work.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "units": len(units),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "setup_samples": [{"seconds": t, "scale": s} for t, s in zip(m.setup_s, m.setup_scale)],
        "unit_samples": [{"seconds": u.seconds, "scale": s, "records": u.records, "tokens": u.tokens}
                         for u, s in zip(m.plain, m.plain_scale)],
        "checks": checks,
        "end_to_end": _with_units(e2e, "end_to_end"),
        "wall": {n: {"value": v, "unit": _declared("end_to_end")[n]["unit"]}
                 for n, v in wall.items()},
        "named": {n: {"value": v, "unit": unit} for n, (v, unit) in work.named(e2e).items()},
    }
    if rec is None:
        metrics = result["end_to_end"]
    else:
        layer = probes.layer_metrics(
            rec.spans, m.walls, m.plain_walls, sum(u.records for u in m.traced),
            work.inputs.config, LORA_RANK, work.checkpoint_bytes,
        )
        metrics = _with_units(layer, "per_layer")
        result["per_layer"] = metrics
        result["self_time"] = probes.self_time_table(rec.spans, m.walls)
        spans_path = OUT / f"{work.name}-seed{args.seed}.spans.jsonl"
        rec.write_jsonl(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    out_path = OUT / f"{work.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload={work.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"units={len(units)} attempted={attempted} failed={failed}")
    shown = {**result["end_to_end"], **{f"wall.{n}": v for n, v in result["wall"].items()},
             **result["named"], **result.get("per_layer", {})}
    for name, metric in shown.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {result['error_rate']:.6g}")
    for name, passed in checks.items():
        print(f"check {name}: {'ok' if passed else 'FAILED'}")
    print(f"results: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eyedx benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("finetune", "eval_greedy", "eval_sampled_int4"))
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eyedx" / "__init__.py").is_file():
        print(f"no eyedx sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    use_checkout()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
