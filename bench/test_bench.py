"""Tests of the benchmark harness at tiny input sizes."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "long-docs": generate.Sizes(documents=3, sentences=8, targets=300),
    "short-docs-enrich": generate.Sizes(documents=6, sentences=3, targets=60, zipf=0.9),
    "eval-large": generate.Sizes(documents=5, sentences=4),
}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(generate, "SIZES", TINY)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path


@pytest.mark.parametrize("workload", generate.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace and workload == "eval-large":
        # reached only through the bindings evaluation imported from annotator and stats
        assert result["metrics"]["annotator.read_conll_events.s"]["value"] > 0
        assert result["metrics"]["stats.compute_stats.s"]["value"] > 0


def test_per_layer_metrics_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(generate.WORKLOADS)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["cli.cmd_annotate", 0.0, 10.0, None, 1],
        ["annotator.tokenize", 1.0, 4.0, 0, 2],  # two worker threads overlap on [3, 4)
        ["annotator.tokenize", 3.0, 6.0, 0, 3],
        ["annotator.emit_conll", 8.0, 9.0, 0, 1],
    ]
    metrics = tracing.summarize(spans, {"linker.cache_hits": 3, "linker.targets": 4})
    assert metrics["cli.cmd_annotate.s"] == 10.0
    assert metrics["cli.cmd_annotate.self_s"] == 4.0
    assert metrics["annotator.tokenize.s"] == 6.0
    assert metrics["annotator.self_s"] == 7.0
    assert metrics["linker.cache_hit_ratio"] == 0.75


def test_flipped_tag_in_corpus_fails_that_document(tiny):
    workload = generate.generate("long-docs", 5, tiny / "input", TINY["long-docs"])
    out = tiny / "out"
    argv = [sys.executable, "-m", "uner_pipeline.cli", *workload.argv, "--out", str(out)]
    _, code, _ = run.run_child(argv, tiny / "child.log")
    assert code == 0
    assert run.Checker(workload).failed_documents(out) == 0

    corpus = out / "corpus.conll"
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.endswith("\tO\n"))
    lines[index] = lines[index].replace("\tO\n", "\tB-Name-Person-Name\n")
    corpus.write_text("".join(lines), encoding="utf-8")
    assert run.Checker(workload).failed_documents(out) == 1


def test_generator_is_deterministic(tmp_path):
    for name in generate.WORKLOADS:
        first = generate.generate(name, 7, tmp_path / "a", TINY[name])
        second = generate.generate(name, 7, tmp_path / "b", TINY[name])
        assert (first.expected_corpus, first.expected_eval) == (second.expected_corpus, second.expected_eval)
        for path in (tmp_path / "a").iterdir():
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "long-docs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=""),
    )
    assert result.returncode != 0
    assert result.stdout == ""
