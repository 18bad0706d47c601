"""End-to-end tests of the command-line interface via main()."""

import json
import re
import subprocess
import sys

import pytest

from eyedx.cli import main
from eyedx.container import load_bundle, read_container, save_quantized, write_container
from eyedx.corpus import synthesize, write_jsonl
from eyedx.lora import load_adapter
from eyedx.model import Model
from eyedx.quant import QuantizedModel, quantize_model


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A prepared corpus plus one tiny trained model/adapter pair."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["prepare", "--synthesize", "6", "--seed", "0", "--out", str(data)]) == 0
    adapter = root / "adapter.olm"
    model = root / "model.olm"
    code = main([
        "train", "--data", str(data), "--out", str(adapter),
        "--epochs", "1", "--grad-accum-steps", "2", "--max-seq-len", "96", "--lora-r", "2",
    ])
    assert code == 0
    return {"root": root, "data": data, "model": model, "adapter": adapter}


# -- prepare ------------------------------------------------------------------


def test_prepare_writes_split_and_manifest(tmp_path):
    out = tmp_path / "corpus"
    assert main(["prepare", "--synthesize", "4", "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["ratio"] == 0.6
    assert manifest["train"]["total"] + manifest["test"]["total"] == manifest["total"]
    assert set(manifest["train"]["by_modality"]) == {"OSA", "CFP", "OCT"}
    train_lines = (out / "train.jsonl").read_text().strip().splitlines()
    assert len(train_lines) == manifest["train"]["total"]


def test_prepare_requires_exactly_one_source(tmp_path, capsys):
    assert main(["prepare", "--out", str(tmp_path / "a")]) == 1
    assert main([
        "prepare", "--synthesize", "2", "--input", "x.jsonl", "--out", str(tmp_path / "b"),
    ]) == 1
    assert "error" in capsys.readouterr().err


def test_prepare_runs_are_byte_identical(tmp_path):
    first, second = tmp_path / "one", tmp_path / "two"
    for out in (first, second):
        assert main(["prepare", "--synthesize", "5", "--seed", "3", "--out", str(out)]) == 0
    for name in ("train.jsonl", "test.jsonl", "manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_prepare_ingests_an_existing_file(tmp_path):
    source = tmp_path / "reports.jsonl"
    write_jsonl(synthesize(3, seed=2), source)
    out = tmp_path / "corpus"
    assert main(["prepare", "--input", str(source), "--out", str(out)]) == 0
    assert (out / "train.jsonl").exists()


# -- train --------------------------------------------------------------------


def test_train_writes_adapter_model_and_log(workspace):
    assert workspace["adapter"].exists()
    assert workspace["model"].exists()
    log = (workspace["root"] / "adapter.olm.log").read_text().splitlines()
    assert log
    assert all(re.fullmatch(r"step=\d+ loss=\d+\.\d{6} tokens_per_sec=\d+\.\d", line)
               for line in log)
    assert load_adapter(workspace["adapter"]).rank == 2


def test_train_flag_overrides_config_file(workspace, tmp_path):
    config = tmp_path / "train.conf"
    config.write_text("epochs = 2\nlora_r = 4  # rank from file\nmax_seq_len = 96\n")
    adapter = tmp_path / "tuned.olm"
    code = main([
        "train", "--data", str(workspace["data"]), "--model", str(workspace["model"]),
        "--out", str(adapter), "--config", str(config),
        "--epochs", "1", "--grad-accum-steps", "2",
    ])
    assert code == 0
    assert load_adapter(adapter).rank == 4
    steps = (tmp_path / "tuned.olm.log").read_text().splitlines()
    # 10 train records, batch 4, accumulation 2: two optimizer steps per epoch,
    # so the --epochs 1 flag must shadow the file's epochs = 2.
    assert len(steps) == 2


def test_train_rejects_unknown_config_key(workspace, tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("learning_rte = 0.001\n")
    code = main([
        "train", "--data", str(workspace["data"]), "--model", str(workspace["model"]),
        "--out", str(tmp_path / "a.olm"), "--config", str(config),
    ])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_train_rejects_malformed_config_line(workspace, tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("epochs three\n")
    code = main([
        "train", "--data", str(workspace["data"]), "--model", str(workspace["model"]),
        "--out", str(tmp_path / "a.olm"), "--config", str(config),
    ])
    assert code == 2


def test_train_rejects_bad_config_value(workspace, tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("epochs = soon\n")
    code = main([
        "train", "--data", str(workspace["data"]), "--model", str(workspace["model"]),
        "--out", str(tmp_path / "a.olm"), "--config", str(config),
    ])
    assert code == 2
    assert "bad value" in capsys.readouterr().err


# -- infer --------------------------------------------------------------------

FINDINGS = "tear breakup time 4 seconds, meibomian gland loss 55 percent"


def infer_args(workspace, *extra):
    return [
        "infer", "--model", str(workspace["model"]), "--modality", "OSA",
        "--max-new-tokens", "8", "--seed", "0", *extra,
    ]


def test_infer_prints_generated_text(workspace, capsys):
    assert main(infer_args(workspace, "--report", FINDINGS)) == 0
    assert capsys.readouterr().out.strip()


def test_infer_with_adapter_and_quant(workspace, capsys):
    code = main(infer_args(
        workspace, "--report", FINDINGS, "--adapter", str(workspace["adapter"]), "--quant",
    ))
    assert code == 0
    assert capsys.readouterr().out.strip()


def test_infer_reads_report_from_file(workspace, tmp_path, capsys):
    report = tmp_path / "report.txt"
    report.write_text(FINDINGS)
    assert main(infer_args(workspace, "--report", f"@{report}")) == 0
    assert capsys.readouterr().out.strip()


def test_infer_missing_report_file(workspace, capsys):
    assert main(infer_args(workspace, "--report", "@/no/such/file.txt")) == 2
    assert "not found" in capsys.readouterr().err


def test_infer_rejects_unknown_modality(workspace, capsys):
    code = main([
        "infer", "--model", str(workspace["model"]), "--modality", "MRI",
        "--report", FINDINGS,
    ])
    assert code == 1
    assert "invalid choice" in capsys.readouterr().err


def test_infer_missing_model_file(tmp_path, capsys):
    code = main([
        "infer", "--model", str(tmp_path / "ghost.olm"), "--modality", "OSA",
        "--report", FINDINGS,
    ])
    assert code == 2


def assert_one_line_data_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_infer_rejects_unknown_config_key(workspace, tmp_path, capsys):
    header, tensors = read_container(workspace["model"])
    header["config"]["n_experts"] = 4
    bad = tmp_path / "model.olm"
    write_container(bad, header, tensors)
    code = main(["infer", "--model", str(bad), "--modality", "OSA", "--report", FINDINGS])
    assert_one_line_data_error(code, capsys)


def test_infer_rejects_malformed_header_json(workspace, tmp_path, capsys):
    data = workspace["model"].read_bytes()
    header_len = int.from_bytes(data[8:12], "little")
    bad = tmp_path / "model.olm"
    bad.write_bytes(data[:12] + b"{" * header_len + data[12 + header_len :])
    code = main(["infer", "--model", str(bad), "--modality", "OSA", "--report", FINDINGS])
    assert_one_line_data_error(code, capsys)


def test_infer_rejects_adapter_without_rank(workspace, tmp_path, capsys):
    header, tensors = read_container(workspace["adapter"])
    del header["rank"]
    bad = tmp_path / "adapter.olm"
    write_container(bad, header, tensors)
    code = main(infer_args(workspace, "--report", FINDINGS, "--adapter", str(bad)))
    assert_one_line_data_error(code, capsys)


# -- evaluate -----------------------------------------------------------------


def evaluate_args(workspace, out, *extra):
    return [
        "evaluate", "--data", str(workspace["data"]), "--out", str(out),
        "--limit", "3", "--max-new-tokens", "8", "--top-k", "1", *extra,
    ]


def test_evaluate_one_model_gives_single_row_table(workspace, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(evaluate_args(workspace, out, "--model", str(workspace["model"])))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| model | R-1 | R-2 | R-L |"
    assert lines[2].startswith("| model |")
    assert lines[3] == f"wrote {out}"


def test_evaluate_pairs_models_with_adapters(workspace, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(evaluate_args(
        workspace, out,
        "--model", str(workspace["model"]), "--model", str(workspace["model"]),
        "--adapter", "-", "--adapter", str(workspace["adapter"]),
    ))
    assert code == 0
    table = capsys.readouterr().out
    assert "| model |" in table
    assert "| model+adapter |" in table
    payload = json.loads(out.read_text())
    assert set(payload) == {"model", "model+adapter"}
    assert len(payload["model"]["records"]) == 3


def test_evaluate_rejects_mismatched_adapter_count(workspace, tmp_path):
    code = main(evaluate_args(
        workspace, tmp_path / "r.json",
        "--model", str(workspace["model"]), "--model", str(workspace["model"]),
        "--adapter", str(workspace["adapter"]),
    ))
    assert code == 1


# -- QLoRA: adapters on an int4 base -----------------------------------------


@pytest.fixture(scope="module")
def qlora(workspace):
    """The workspace's base model stored as int4, and an adapter trained on it."""
    model, vocab = load_bundle(workspace["model"])
    qmodel = QuantizedModel(model.config, quantize_model(model.params, model.config))
    qpath = workspace["root"] / "q.olm"
    save_quantized(qmodel, qpath, vocab=vocab)
    adapter = workspace["root"] / "q-adapter.olr"
    code = main([
        "train", "--data", str(workspace["data"]), "--out", str(adapter), "--model", str(qpath),
        "--epochs", "1", "--grad-accum-steps", "2", "--max-seq-len", "96", "--lora-r", "2",
    ])
    return {"model": qpath, "adapter": adapter, "train_code": code}


def test_load_bundle_gives_a_model_for_both_kinds(workspace, qlora):
    assert isinstance(load_bundle(workspace["model"])[0], Model)
    assert isinstance(load_bundle(qlora["model"])[0], Model)


def test_train_on_int4_base_writes_adapter(qlora):
    assert qlora["train_code"] == 0
    assert load_adapter(qlora["adapter"]).rank == 2


def test_infer_and_evaluate_int4_base_with_adapter(workspace, qlora, tmp_path, capsys):
    code = main([
        "infer", "--model", str(qlora["model"]), "--adapter", str(qlora["adapter"]),
        "--modality", "OSA", "--max-new-tokens", "8", "--seed", "0", "--report", FINDINGS,
    ])
    assert code == 0
    assert capsys.readouterr().out.strip()
    out = tmp_path / "report.json"
    code = main(evaluate_args(
        workspace, out, "--model", str(qlora["model"]), "--adapter", str(qlora["adapter"]),
    ))
    assert code == 0
    assert set(json.loads(out.read_text())) == {"q+q-adapter"}


def test_infer_quant_on_int4_model_rejected(qlora, capsys):
    code = main([
        "infer", "--model", str(qlora["model"]), "--quant",
        "--modality", "OSA", "--report", FINDINGS,
    ])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {qlora['model']} is already quantized\n"


# -- bench --------------------------------------------------------------------


def test_bench_emits_two_column_table(workspace, capsys):
    code = main(["bench", "--model", str(workspace["model"]), "--data", str(workspace["data"])])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| phase | seconds |"
    assert re.fullmatch(r"\| fine-tune \(\d+ reports, 1 epoch, \d+ tokens\) \| \d+\.\d{2} \|",
                        lines[2])
    assert re.fullmatch(
        r"\| inference per report \(\d+ reports, \d+ tokens generated\) \| \d+\.\d{3} ± \d+\.\d{3} \|",
        lines[3],
    )


# -- process-level ------------------------------------------------------------


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "eyedx", "--help"], capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for command in ("prepare", "train", "infer", "evaluate", "bench"):
        assert command in proc.stdout
