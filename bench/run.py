"""Benchmark for uner-pipeline: seeded inputs, timed CLI runs, checked outputs.

Usage, from the repository root::

    python3 bench/run.py --workload long-docs --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from ``--seed`` (``generate.py``),
times a fresh set-up process several times, then runs the workload's
``uner-pipeline`` command in a child process again and again until
``--seconds`` have passed. Every run's outputs are checked. The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count documents (a failed run fails all of its
documents). With ``--trace 0`` the metrics are the end-to-end ones, medians
over the runs; with ``--trace 1`` untraced and traced runs alternate
(``tracing.py``) and the metrics are the per-layer ones plus the traced run's
overhead. A results record with the Python version, nproc, git sha and seed
is written under ``.bench-work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import generate
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("wall_s", "s"),
    ("docs_per_s", "docs/s"),
    ("tokens_per_s", "tokens/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# the set-up a fresh process pays before any stage runs: imports, mapping
# tables, and the workload's class cache and kg map when it has them
SETUP_PROBE = """
import sys
from uner_pipeline import cli, enrich, linker, mapping
if sys.argv[1] != "import-only":
    mapping.load_mapping_tables(mapping.default_equivalence_path(), mapping.default_priority_path())
    if sys.argv[1]:
        linker.load_catalog(sys.argv[1])
    if sys.argv[2]:
        enrich.load_kg_map(sys.argv[2])
"""


def run_child(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run one child; return (spawn-to-exit seconds, exit code, its own peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), UNER_SPARQL_ENDPOINT="")
    with open(log, "wb") as fh:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, child.returncode, usage.ru_maxrss / 1024


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def split_documents(text: str) -> dict[str, str]:
    """CoNLL text -> {doc_id: the document's block, header included}."""
    blocks: dict[str, str] = {}
    for block in text.split(generate.DOC_HEADER)[1:]:
        blocks[block.partition("\n")[0]] = block
    return blocks


class Checker:
    """Checks one run's outputs; returns the ids of the documents it got wrong.

    ``corpus.conll`` must equal the generator's expectation byte for byte,
    each ``corpus_exp<N>.conll`` must parse, keep every base tag that is not
    ``O`` and hold no fewer entities than the base corpus, and ``eval.json``
    must equal the generator's independent scores. Every output but the
    manifest (which holds timings) must have the same sha256 in every run.
    """

    def __init__(self, workload: generate.Workload):
        self.workload = workload
        self.all_ids = frozenset(workload.doc_ids)
        self.reference: dict[str, str] = {}  # file -> sha256 of its first output
        self.passed: set[str] = set()  # files whose reference output passed its check
        self.cache_sha = sha256(workload.cache) if workload.cache else None
        if workload.expected_corpus is not None:
            self.expected_blocks = split_documents(workload.expected_corpus)
            self.base = self._parse(workload.expected_corpus.splitlines(keepends=True))

    @staticmethod
    def _parse(lines):
        from uner_pipeline.annotator import parse_conll

        return parse_conll(lines)

    def failed_documents(self, out: Path) -> int:
        """How many documents this run's outputs got wrong."""
        if any(not (out / name).is_file() for name in self.workload.outputs):
            return len(self.all_ids)
        if self.cache_sha is not None and sha256(self.workload.cache) != self.cache_sha:
            return len(self.all_ids)  # an offline run must leave its class cache as it was
        failed: set[str] = set()
        for name in self.workload.outputs:
            if name == "manifest.json":
                continue
            digest = sha256(out / name)
            if name in self.passed and digest == self.reference[name]:
                continue  # byte-identical to an output that passed
            wrong = self._check_file(out / name)
            if name not in self.reference:
                self.reference[name] = digest
                if not wrong:
                    self.passed.add(name)
            elif digest != self.reference[name]:
                wrong = wrong or self.all_ids  # the same input gave different bytes
            failed |= wrong
        return len(failed) if failed <= self.all_ids else len(self.all_ids)

    def _check_file(self, path: Path) -> set[str]:
        name = path.name
        if name == "corpus.conll":
            blocks = split_documents(path.read_text(encoding="utf-8"))
            ids = set(blocks) | set(self.expected_blocks)
            return {i for i in ids if blocks.get(i) != self.expected_blocks.get(i)}
        if name.startswith("corpus_exp"):
            return self._check_enriched(path)
        if name == "eval.json":
            with open(path, encoding="utf-8") as fh:
                return set() if json.load(fh) == self.workload.expected_eval else set(self.all_ids)
        return set()  # checked for determinism only

    def _check_enriched(self, path: Path) -> set[str]:
        from uner_pipeline.errors import DataError

        try:
            with open(path, encoding="utf-8") as fh:
                enriched = dict(self._parse(fh).documents)
        except DataError:
            return set(self.all_ids)
        failed: set[str] = set()
        base_entities = added = 0
        for doc_id, sentences in self.base.documents:
            other = enriched.get(doc_id)
            if other is None or len(other) != len(sentences):
                failed.add(doc_id)
                continue
            for before, after in zip(sentences, other):
                if len(before.tokens) != len(after.tokens) or any(
                    b.text != a.text or (bt.prefix != "O" and bt != at)
                    for (b, bt), (a, at) in zip(before.tokens, after.tokens)
                ):
                    failed.add(doc_id)
                    break
                base_entities += sum(bt.prefix == "B" for _, bt in before.tokens)
                added += sum(at.prefix == "B" for _, at in after.tokens)
        if set(enriched) - {doc_id for doc_id, _ in self.base.documents} or added < base_entities:
            return set(self.all_ids)
        return failed


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() or "unknown"


def measure_setup(workload: generate.Workload, work: Path) -> list[float]:
    mode = "import-only" if workload.cache is None else str(workload.cache)
    argv = [sys.executable, "-c", SETUP_PROBE, mode, str(workload.kg_map or "")]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        wall, code, _ = run_child(argv, work / "setup.log")
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {(work / 'setup.log').read_text()[-2000:]}")
        if i:  # the first one only warms the bytecode and file caches
            samples.append(wall)
    return samples


def run(args) -> dict:
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = generate.generate(args.workload, args.seed, work / "input")
        setup = measure_setup(workload, work)
        checker = Checker(workload)
        out = work / "out"
        walls, rss, traced_walls, layer_samples = [], [], [], []
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        spans_path = work / "spans.json"
        traced = False
        while True:
            shutil.rmtree(out, ignore_errors=True)
            spans_path.unlink(missing_ok=True)
            if traced:
                argv = [sys.executable, str(BENCH / "tracing.py"), str(spans_path)]
            else:
                argv = [sys.executable, "-m", "uner_pipeline.cli"]
            wall, code, peak = run_child(argv + workload.argv + ["--out", str(out)], work / "child.log")
            attempted += workload.documents
            if code != 0:
                failed += workload.documents
                sys.stderr.write(f"child exited {code}: {(work / 'child.log').read_text()[-2000:]}\n")
            else:
                failed += checker.failed_documents(out)
            if traced:
                traced_walls.append(wall)
                if spans_path.is_file():  # absent only if the child was killed
                    with open(spans_path, encoding="utf-8") as fh:
                        recorded = json.load(fh)
                    layer_samples.append(tracing.summarize(recorded["spans"], recorded["counts"]))
            else:
                walls.append(wall)
                rss.append(peak)
            if time.perf_counter() >= deadline and walls and (traced_walls or not args.trace):
                break
            traced = args.trace and not traced
        wall_s = statistics.median(walls)
        metrics = {
            "wall_s": wall_s,
            "docs_per_s": workload.documents / wall_s,
            "tokens_per_s": workload.tokens / wall_s,
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup),
        }
        units = dict(END_TO_END)
        if args.trace:
            if not layer_samples:
                raise RuntimeError("no traced run wrote its spans")
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            metrics = {name: statistics.median(s[name] for s in layer_samples) for name in layer_samples[0]}
            metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / wall_s
        return {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "documents": workload.documents,
            "tokens": workload.tokens,
            "samples": {"runs": len(walls), "traced_runs": len(traced_walls), "setup": len(setup)},
            "wall_s_runs": walls,
            "failed_share": failed / attempted,
            "output_sha256": checker.reference,
            "result": {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "uner_pipeline" / "cli.py").is_file():
        print(f"error: no uner_pipeline sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run(args)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    samples = record["samples"]
    print(f"workload {record['workload']}  seed {record['seed']}  python {record['python']}  "
          f"nproc {record['nproc']}  git {record['git_sha']}")
    print(f"runs {samples['runs']}  traced runs {samples['traced_runs']}  set-up samples {samples['setup']}")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_share':40s} {record['failed_share']:.6g} share")
    print(f"results record: {path}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
