import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from helpers import oracle_load_catalog
from uner_pipeline import cli, enrich, linker, stats
from uner_pipeline.annotator import AnnotatedCorpus, parse_conll
from uner_pipeline.atomic import atomic_output
from uner_pipeline.errors import DataError, UsageError
from uner_pipeline.mapping import parse_uner_label

DUMP = FIXTURES / "dump.jsonl"
CACHE = FIXTURES / "class_cache.tsv"
KG_MAP = FIXTURES / "kg_map.tsv"
EXPECTED_CORPUS = FIXTURES / "expected_corpus.conll"
EXPECTED_TARGETS = FIXTURES / "expected_targets.txt"
EXPECTED_EVAL_JSON = FIXTURES / "expected_eval.json"
EXPECTED_EVAL_TXT = FIXTURES / "expected_eval.txt"
# outputs of the fixture pipeline run with experiments 1-7 and the kg map
EXPECTED_ENRICH = FIXTURES / "expected_enrich"
# a hand-built corpus and kg map, and its enrich outputs for experiments 1-7
SEVEN_WAY = FIXTURES / "experiments"


def run_pipeline(out: Path, *extra: str) -> int:
    return cli.main(
        [
            "pipeline",
            "--input",
            str(DUMP),
            "--cache",
            str(CACHE),
            "--offline",
            "--out",
            str(out),
            *extra,
        ]
    )


def assert_same_files(a: Path, b: Path, *skip: str) -> None:
    """``a`` and ``b`` hold the same file names, and the same bytes but in the manifest and ``skip``.

    The manifest alone holds timings and memory.
    """
    names = sorted(path.name for path in a.iterdir())
    assert sorted(path.name for path in b.iterdir()) == names, (a, b)
    for name in set(names) - {"manifest.json", *skip}:
        assert (a / name).read_bytes() == (b / name).read_bytes(), (a, b, name)


def write_dump_as_blocks(path: Path) -> Path:
    """Write the fixture dump to ``path`` as ``<doc>`` blocks, its malformed line kept as it is."""
    with open(DUMP, encoding="utf-8") as src, open(path, "w", encoding="utf-8") as dst:
        for line in src:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                dst.write(line)
                continue
            dst.write(
                f'<doc id="{record["id"]}" url="{record["url"]}" title="{record["title"]}">\n'
                f'{record["text"]}\n</doc>\n'
            )
    return path


def write_shuffled_cache(path: Path) -> list[str]:
    """Write the fixture cache to ``path`` in a seeded shuffle, its header line first; the keys in file order."""
    header, *lines = CACHE.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(3).shuffle(lines)
    path.write_text(header + "".join(lines), encoding="utf-8")
    return [line.split("\t")[0] for line in lines]


class TestPipeline:
    def test_matches_expected_output(self, tmp_path):
        assert run_pipeline(tmp_path / "out") == 0
        assert (tmp_path / "out" / "corpus.conll").read_bytes() == EXPECTED_CORPUS.read_bytes()
        assert (tmp_path / "out" / "targets.txt").read_bytes() == EXPECTED_TARGETS.read_bytes()

    def test_enrich_outputs_match_pinned_files(self, tmp_path):
        experiments = ",".join(str(i) for i in enrich.EXPERIMENTS)
        assert run_pipeline(tmp_path / "out", "--experiments", experiments, "--kg-map", str(KG_MAP)) == 0
        pinned = sorted(EXPECTED_ENRICH.iterdir())
        assert [path.name for path in pinned] == sorted(
            ["stats.txt", "stats.json", "entities.tsv", "dictionary_global.tsv", "dictionary_global_multi.tsv"]
            + [f"corpus_exp{i}.conll" for i in enrich.EXPERIMENTS]
        )
        for expected in pinned:
            assert (tmp_path / "out" / expected.name).read_bytes() == expected.read_bytes(), expected.name

    def test_seven_way_fixture_outputs_match_pinned_files(self, tmp_path):
        # a corpus on which every experiment writes a different corpus
        out = tmp_path / "out"
        argv = ["enrich", "--input", str(SEVEN_WAY / "corpus.conll"), "--out", str(out),
                "--experiments", "1,2,3,4,5,6,7", "--kg-map", str(SEVEN_WAY / "kg_map.tsv")]
        assert cli.main(argv) == 0
        pinned = sorted((SEVEN_WAY / "expected").iterdir())
        assert sorted(path.name for path in out.iterdir()) == sorted([p.name for p in pinned] + ["manifest.json"])
        for expected in pinned:
            assert (out / expected.name).read_bytes() == expected.read_bytes(), expected.name
        digests = {hashlib.sha256((out / f"corpus_exp{i}.conll").read_bytes()).hexdigest() for i in range(1, 8)}
        assert len(digests) == 7
        counters = json.loads((out / "manifest.json").read_text())["stages"]["enrich"]["counters"]
        assert counters == {
            "global_dictionary_size": 4, "global_multi_dictionary_size": 2,
            "exp1_entities": 11, "exp2_entities": 8, "exp3_entities": 8, "exp4_entities": 10,
            "exp5_entities": 7, "exp6_entities": 11, "exp7_entities": 9,
            "exp4_kg_entries_dropped": 1, "exp5_kg_entries_dropped": 1,
            "exp6_kg_entries_dropped": 1, "exp7_kg_entries_dropped": 1,
        }

    def test_one_experiment_writes_its_own_dictionary_and_corpus_only(self, tmp_path):
        # experiment 2 applies global_multi alone, so no dictionary_global.tsv is saved
        out = tmp_path / "out"
        argv = ["enrich", "--input", str(SEVEN_WAY / "corpus.conll"), "--out", str(out), "--experiments", "2"]
        assert cli.main(argv) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "corpus_exp2.conll", "dictionary_global_multi.tsv", "manifest.json"
        ]
        for name in ("corpus_exp2.conll", "dictionary_global_multi.tsv"):
            assert (out / name).read_bytes() == (SEVEN_WAY / "expected" / name).read_bytes(), name

    def test_staged_run_through_enrich_writes_the_same_bytes_as_pipeline(self, tmp_path):
        # a pipeline runs the stages one after another over --out, each reading the files the last one wrote
        piped, staged = tmp_path / "piped", tmp_path / "staged"
        common = ["--cache", str(CACHE), "--offline"]
        experiments = ["--experiments", "1,2,3,4,5,6,7", "--kg-map", str(KG_MAP)]
        assert run_pipeline(piped, *experiments) == 0
        stage_counters = {}
        for argv in (
            ["extract", "--input", str(DUMP)],
            ["link", *common],
            ["annotate", *common],
            ["stats"],
            ["enrich", *experiments],
        ):
            assert cli.main([*argv, "--out", str(staged)]) == 0
            manifest = json.loads((staged / "manifest.json").read_text())
            stage_counters.update({name: stage["counters"] for name, stage in manifest["stages"].items()})
        assert_same_files(piped, staged)
        piped_stages = json.loads((piped / "manifest.json").read_text())["stages"]
        for name in ("stats", "enrich"):
            assert stage_counters[name] == piped_stages[name]["counters"], name

    def test_determinism_across_concurrency(self, tmp_path):
        assert run_pipeline(tmp_path / "c1", "--concurrency", "1") == 0
        assert run_pipeline(tmp_path / "c8", "--concurrency", "8") == 0
        assert (tmp_path / "c1" / "corpus.conll").read_bytes() == (
            tmp_path / "c8" / "corpus.conll"
        ).read_bytes()

    def test_manifest_counters(self, tmp_path):
        run_pipeline(tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        extract = manifest["stages"]["extract"]["counters"]
        assert extract["documents"] == 10
        assert extract["malformed_lines"] == 1
        annotate = manifest["stages"]["annotate"]["counters"]
        assert (
            annotate["sentences_kept"] + annotate["sentences_dropped"]
            == annotate["sentences_total"]
        )
        assert manifest["stages"]["link"]["counters"]["unresolved"] == 1

    def test_stage_time_covers_output_writes(self, tmp_path, monkeypatch):
        emit_conll = cli.annotator.emit_conll

        def slow_emit_conll(corpus, writer):
            time.sleep(0.3)
            return emit_conll(corpus, writer)

        monkeypatch.setattr(cli.annotator, "emit_conll", slow_emit_conll)
        assert run_pipeline(tmp_path / "out") == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["stages"]["annotate"]["wall_time_s"] >= 0.3

    def test_stats_lists_the_entities_once(self, tmp_path, monkeypatch):
        calls = []
        list_entities = stats.list_entities
        monkeypatch.setattr(stats, "list_entities", lambda corpus: calls.append(1) or list_entities(corpus))
        assert run_pipeline(tmp_path / "out") == 0
        assert len(calls) == 1
        # one call per stats stage; the seven experiments and eval list none
        experiments = ["--experiments", "1,2,3,4,5,6,7", "--kg-map", str(KG_MAP)]
        assert run_pipeline(tmp_path / "all", *experiments) == 0
        assert len(calls) == 2
        corpus = str(tmp_path / "all" / "corpus.conll")
        assert cli.main(["enrich", "--input", corpus, "--out", str(tmp_path / "enrich"), *experiments]) == 0
        assert cli.main(["eval", "--out", str(tmp_path / "eval"), corpus, corpus]) == 0
        assert len(calls) == 2
        assert cli.main(["stats", "--input", corpus, "--out", str(tmp_path / "stats")]) == 0
        assert len(calls) == 3

    def test_stats_outputs_written(self, tmp_path):
        run_pipeline(tmp_path / "out")
        stats = json.loads((tmp_path / "out" / "stats.json").read_text())
        assert stats["total_tokens"] == stats["non_entity_tokens"] + stats["entity_tokens"]
        assert (tmp_path / "out" / "entities.tsv").exists()

    def test_pipeline_with_experiments(self, tmp_path):
        code = run_pipeline(
            tmp_path / "out", "--experiments", "1,3,4", "--kg-map", str(KG_MAP)
        )
        assert code == 0
        for experiment_id in (1, 3, 4):
            assert (tmp_path / "out" / f"corpus_exp{experiment_id}.conll").exists()
        dictionary_file = (tmp_path / "out" / "dictionary_global.tsv").read_text(encoding="utf-8")
        assert "Barack Obama\tName-Person-Name" in dictionary_file
        assert "EU\t" not in dictionary_file
        assert "747\t" not in dictionary_file

    def test_kg_counters_are_per_experiment(self, tmp_path):
        code = run_pipeline(tmp_path / "out", "--experiments", "4,6", "--kg-map", str(KG_MAP))
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        counters = manifest["stages"]["enrich"]["counters"]
        # Asia maps to owl:Thing, whose UNER label is NULL: each experiment drops it once
        assert counters["exp4_kg_entries_dropped"] == counters["exp6_kg_entries_dropped"] == 1
        assert "kg_entries_dropped" not in counters

    def test_kg_filter_runs_once_per_base(self, tmp_path, monkeypatch):
        filtered = []
        filter_by_kg = enrich.filter_by_kg

        def counting_filter_by_kg(dictionary, *args):
            filtered.append(dictionary.provenance)
            return filter_by_kg(dictionary, *args)

        monkeypatch.setattr(enrich, "filter_by_kg", counting_filter_by_kg)
        code = run_pipeline(
            tmp_path / "out", "--experiments", "1,2,3,4,5,6,7", "--kg-map", str(KG_MAP)
        )
        assert code == 0
        assert sorted(filtered) == ["global", "global_multi"]

    def test_local_pass_runs_once_for_experiments_3_6_and_7(self, tmp_path, monkeypatch):
        calls = []
        apply_local_dictionaries = enrich.apply_local_dictionaries

        def counting_apply_local_dictionaries(corpus):
            calls.append(1)
            return apply_local_dictionaries(corpus)

        monkeypatch.setattr(enrich, "apply_local_dictionaries", counting_apply_local_dictionaries)
        code = run_pipeline(
            tmp_path / "out", "--experiments", "1,2,3,4,5,6,7", "--kg-map", str(KG_MAP)
        )
        assert code == 0
        assert len(calls) == 1

    def test_span_loss_counters_add_up_to_links(self, tmp_path):
        assert run_pipeline(tmp_path / "out") == 0
        stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
        annotate = stages["annotate"]["counters"]
        reasons = ("spans_unlabeled", "spans_without_tokens", "spans_shadowed", "spans_projected")
        assert sum(annotate.get(reason, 0) for reason in reasons) == stages["extract"]["counters"]["links"]
        assert annotate["spans_projected"] > 0

    def test_experiment_1_retags_repeated_surface(self, tmp_path):
        run_pipeline(tmp_path / "out", "--experiments", "1")
        enriched = (tmp_path / "out" / "corpus_exp1.conll").read_text(encoding="utf-8")
        sentence = enriched.split("Later\tO\n", 1)[1]
        assert sentence.startswith(
            "Michelle\tB-Name-Person-Name\nObama\tI-Name-Person-Name\n"
            "and\tO\nBarack\tB-Name-Person-Name\nObama\tI-Name-Person-Name\n"
        )

    def test_plain_anchored_format(self, tmp_path):
        dump = tmp_path / "dump.txt"
        dump.write_text(
            '<doc id="1" url="u" title="T">\n'
            'The <a href="Baku">Baku</a> games. Plain tail.\n'
            "</doc>\n",
            encoding="utf-8",
        )
        code = cli.main(
            [
                "pipeline",
                "--input", str(dump),
                "--cache", str(CACHE),
                "--offline",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        corpus = (tmp_path / "out" / "corpus.conll").read_text(encoding="utf-8")
        assert "Baku\tB-Name-Location-GPE-City" in corpus
        assert "Plain" not in corpus  # second sentence has no entity

    def test_dump_as_blocks_writes_what_the_json_lines_dump_writes(self, tmp_path):
        blocks = write_dump_as_blocks(tmp_path / "dump.txt")
        extra = ("--experiments", "1,2,3,4,5,6,7", "--kg-map", str(KG_MAP))
        assert run_pipeline(tmp_path / "json", *extra) == 0
        argv = ["pipeline", "--input", str(blocks), "--cache", str(CACHE), "--offline", *extra]
        assert cli.main([*argv, "--out", str(tmp_path / "blocks")]) == 0
        assert len(list((tmp_path / "json").iterdir())) == 17
        # a block body ends in a newline, so only the documents file and the manifest differ
        assert_same_files(tmp_path / "json", tmp_path / "blocks", "documents.jsonl")
        extract = [json.loads((tmp_path / run / "manifest.json").read_text())["stages"]["extract"]["counters"]
                   for run in ("json", "blocks")]
        assert extract[0] == extract[1]
        assert extract[0]["malformed_lines"] == 1


# a child that runs every command of a table in one interpreter, one cli.main call each;
# one interpreter per command took about 5 s for the two seeds on 2 cores, and this takes about 0.25 s
_RUN_COMMANDS = """
import json, sys
from uner_pipeline import cli
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    if code:
        sys.exit(f"exit {code}: {argv}")
"""


def test_no_output_depends_on_the_hash_seed(tmp_path):
    """Set and dict order leak into no output: the fixture runs write the same files under hash seeds 0 and 1.

    Each run also writes what its twin writes: a dump as blocks or as JSON
    lines, a sorted or a shuffled cache, a corpus with or without doubled
    blank lines, the staged stages or a pipeline, a config file or flags.
    """
    blocks = write_dump_as_blocks(tmp_path / "dump-blocks.txt")
    shuffled = tmp_path / "shuffled_cache.tsv"
    write_shuffled_cache(shuffled)
    seven_way = str(SEVEN_WAY / "corpus.conll")
    doubled = tmp_path / "doubled.conll"  # documents the reader goes through line by line
    doubled.write_bytes(re.sub(rb"(?m)^\n", b"\n\n", (SEVEN_WAY / "corpus.conll").read_bytes()))
    # every setting of the fixture run, the five client settings off their defaults;
    # --out is relative, so each child writes under its own directory
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        f"input = {DUMP}\ncache = {CACHE}\noffline = yes\nexperiments = 1,2,3,4,5,6,7\nkg_map = {KG_MAP}\n"
        "timeout = 5\nretries = 2\nbatch_size = 7\nrate_limit = 0\nconcurrency = 3\nout = config\n",
        encoding="utf-8",
    )
    experiments = ["--experiments", "1,2,3,4,5,6,7", "--kg-map", str(KG_MAP)]
    offline = ["--cache", str(CACHE), "--offline"]
    fixture = ["pipeline", "--input", str(DUMP), *offline, *experiments]
    commands = [
        [*fixture, "--out", "fixture"],
        ["pipeline", "--input", str(blocks), *offline, *experiments, "--out", "blocks"],
        ["pipeline", "--input", str(DUMP), "--cache", str(shuffled), "--offline", *experiments, "--out", "shuffled"],
        ["enrich", "--input", seven_way, "--experiments", "1,2,3,4,5,6,7", "--kg-map", str(SEVEN_WAY / "kg_map.tsv"),
         "--out", "experiments"],
        ["eval", "--collapse-depth", "2", "--include-o", str(EXPECTED_CORPUS), "fixture/corpus_exp1.conll",
         "--out", "eval"],
        ["stats", "--input", seven_way, "--out", "stats"],
        ["stats", "--input", str(doubled), "--out", "doubled-stats"],
        ["eval", seven_way, seven_way, "--out", "self-eval"],
        ["eval", seven_way, str(doubled), "--out", "doubled-eval"],
        # the stages one by one, each reading the files the last one wrote
        ["extract", "--input", str(DUMP), "--out", "staged"],
        ["link", *offline, "--out", "staged"],
        ["annotate", *offline, "--out", "staged"],
        ["stats", "--out", "staged"],
        ["enrich", *experiments, "--out", "staged"],
        ["pipeline", "--config", str(config_file)],
        [*fixture, "--timeout", "5", "--retries", "2", "--batch-size", "7", "--rate-limit", "0",
         "--concurrency", "3", "--out", "flags"],
    ]
    env = {name: value for name, value in os.environ.items() if name != linker.ENDPOINT_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    runs = [tmp_path / "seed0", tmp_path / "seed1"]
    children = []
    for seed, run in enumerate(runs):  # both at once
        run.mkdir()
        children.append(subprocess.Popen(
            [sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)], cwd=run,
            env={**env, "PYTHONHASHSEED": str(seed)}, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        ))
    for child in children:
        err = child.communicate()[1]
        assert (child.returncode, err) == (0, "")
    for run in runs:
        link = json.loads((run / "shuffled" / "manifest.json").read_text())["stages"]["link"]["counters"]
        assert link["cache_read_by_lines"] == 1
        assert_same_files(run / "fixture", run / "shuffled")
        # a block body ends in a newline, so only the documents file differs
        assert_same_files(run / "fixture", run / "blocks", "documents.jsonl")
        assert_same_files(run / "stats", run / "doubled-stats")
        assert_same_files(run / "self-eval", run / "doubled-eval")
        assert_same_files(run / "fixture", run / "staged")
        assert_same_files(run / "config", run / "flags")
        configs = [json.loads((run / name / "manifest.json").read_text())["config"] for name in ("config", "flags")]
        assert [config.pop("out") for config in configs] == ["config", "flags"]
        assert configs[0] == configs[1]
    assert (runs[0] / "eval" / "eval.json").read_bytes() == EXPECTED_EVAL_JSON.read_bytes()
    names = sorted(path.name for path in runs[0].iterdir())
    assert sorted(path.name for path in runs[1].iterdir()) == names
    for name in names:
        assert_same_files(runs[0] / name, runs[1] / name)


class TestExitCodes:
    def test_usage_error_is_1(self, tmp_path):
        assert cli.main(["pipeline", "--no-such-flag"]) == 1

    def test_data_error_is_2(self, tmp_path):
        bad_cache = tmp_path / "bad.tsv"
        bad_cache.write_text("no tab at all\n", encoding="utf-8")
        code = cli.main(
            [
                "pipeline",
                "--input",
                str(DUMP),
                "--cache",
                str(bad_cache),
                "--offline",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--timeout", "0"),
            ("--timeout", "-1"),
            ("--timeout", "nan"),
            ("--timeout", "inf"),
            ("--retries", "0"),
            ("--retries", "-2"),
            ("--rate-limit", "-1"),
            ("--rate-limit", "nan"),
            ("--rate-limit", "inf"),
        ],
    )
    def test_bad_network_setting_is_1(self, tmp_path, capsys, flag, value):
        # checked before any stage runs, also in an offline run that sends no request
        out = tmp_path / "out"
        assert run_pipeline(out, f"{flag}={value}") == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_run_writes_partial_manifest(self, tmp_path):
        bad_cache = tmp_path / "bad.tsv"
        bad_cache.write_text("no tab at all\n", encoding="utf-8")
        cli.main(
            [
                "pipeline",
                "--input",
                str(DUMP),
                "--cache",
                str(bad_cache),
                "--offline",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "stages" in manifest

    @pytest.mark.parametrize(
        "fixture, argv",
        [
            (DUMP, ["extract", "--input", "{bad}"]),
            (CACHE, ["pipeline", "--input", str(DUMP), "--cache", "{bad}", "--offline"]),
            (EXPECTED_CORPUS, ["stats", "--input", "{bad}"]),
        ],
        ids=["dump", "cache", "conll"],
    )
    def test_invalid_utf8_is_2(self, tmp_path, capsys, fixture, argv):
        bad = tmp_path / fixture.name
        bad.write_bytes(fixture.read_bytes() + b"caf\xe9\tO\n")  # Latin-1, not UTF-8
        out = tmp_path / "out"
        code = cli.main([arg.format(bad=bad) for arg in argv] + ["--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("UnicodeDecodeError")
        [message] = capsys.readouterr().err.splitlines()
        assert message.startswith("error: input is not valid UTF-8: ")

    @pytest.mark.parametrize(
        "bad_line, line_no",
        [("Oslo\tdbo:City\nOslo\tdbo:Place", 19), ("no tab at all", 18)],  # Oslo is no fixture target
        ids=["duplicate", "no-tab"],
    )
    def test_bad_cache_line_outside_the_run_targets_is_2(self, tmp_path, bad_line, line_no):
        # the offline run keeps only its own targets, yet checks every line
        bad_cache = tmp_path / "cache.tsv"
        bad_cache.write_text(CACHE.read_text(encoding="utf-8") + bad_line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code = cli.main(
            ["pipeline", "--input", str(DUMP), "--cache", str(bad_cache), "--offline", "--out", str(out)]
        )
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert f"{bad_cache}:{line_no}: " in manifest["error"]

    @pytest.mark.parametrize(
        "text, offset, message",
        [
            ("Ann went home.", "0", "link offsets must be integers"),
            ("Ann went home.", 0.0, "link offsets must be integers"),
            ("Ann went home.", True, "link offsets must be integers"),
            ("Ann went home.", None, "link offsets must be integers"),
            (5, 0, "text must be a string"),
            ("Ann went home.", 0, "id must hold no line break"),
        ],
    )
    def test_document_field_of_the_wrong_type_is_2(self, tmp_path, capsys, text, offset, message):
        links = [{"start": offset, "end": 3, "surface": "Ann", "target": "Ann"}]
        # a standalone annotate would write this id onto two lines of the corpus
        doc_id = "2\n3" if message.startswith("id") else "2"
        documents = tmp_path / "documents.jsonl"
        documents.write_text(
            json.dumps({"id": "1", "text": "Ann went home.", "links": []}) + "\n"
            + json.dumps({"id": doc_id, "text": text, "links": links}) + "\n"
        )
        out = tmp_path / "out"
        code = cli.main(["annotate", "--input", str(documents), "--cache", str(CACHE), "--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert f"documents file line 2: {message}" in manifest["error"]
        assert "documents file line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["id", "title", "text"])
    def test_lone_surrogate_in_a_document_field_is_2(self, tmp_path, capsys, field):
        # json.dumps escapes the surrogate as \ud800, which json.loads turns back into one
        document = {"id": "2", "title": "Ann", "text": "Ann went home."}
        document[field] = {"id": "2\ud800", "title": "Ann\ud800", "text": "Ann\ud800 went home."}[field]
        links = [{"start": 0, "end": 3, "surface": "Ann", "target": "Asia"}]
        documents = tmp_path / "documents.jsonl"
        documents.write_text(
            json.dumps({"id": "1", "text": "Ann went home.", "links": links}) + "\n"
            + json.dumps({**document, "links": links}) + "\n"
        )
        out = tmp_path / "out"
        code = cli.main(["annotate", "--input", str(documents), "--cache", str(CACHE), "--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert f"documents file line 2: {field} holds a lone surrogate" in manifest["error"]
        assert "documents file line 2" in capsys.readouterr().err
        assert not (out / "corpus.conll").exists()

    # a usage error about an input file: (argv before --out, a directory made first or None, its message);
    # {tmp} is the test's directory, and --out is {tmp}/out
    USAGE_ERRORS = {
        "extract-no-input": (["extract"], None, "no input file given (use --input or the config file)"),
        "extract-input": (["extract", "--input", "{tmp}/dump.jsonl"], None, "input file not found: {tmp}/dump.jsonl"),
        "link-input": (["link", "--input", "{tmp}/t.txt", "--offline"], None, "input file not found: {tmp}/t.txt"),
        "link-default": (["link", "--offline"], None,
                         "targets file not found: {tmp}/out/targets.txt (run extract first)"),
        "targets": (["link", "--offline"], "out/targets.txt",
                    "targets file not found: {tmp}/out/targets.txt (run extract first)"),
        "link-cache": (["link", "--input", str(EXPECTED_TARGETS), "--cache", "{tmp}/in", "--offline"], "in",
                       "class cache is not a file: {tmp}/in"),
        "annotate-input": (["annotate", "--input", "{tmp}/d.jsonl", "--cache", str(CACHE)], None,
                           "input file not found: {tmp}/d.jsonl"),
        "annotate-default": (["annotate", "--cache", str(CACHE)], None,
                             "documents file not found: {tmp}/out/documents.jsonl (run extract first)"),
        "documents": (["annotate", "--cache", str(CACHE)], "out/documents.jsonl",
                      "documents file not found: {tmp}/out/documents.jsonl (run extract first)"),
        "annotate-catalog": (["annotate", "--input", str(DUMP)], None,
                             "no class catalog found (run link first or point --cache at one)"),
        "annotate-table": (["annotate", "--input", str(DUMP), "--cache", str(CACHE), "--priority", "{tmp}/p.tsv"],
                           None, "mapping table not found: {tmp}/p.tsv"),
        "stats-input": (["stats", "--input", "{tmp}/c.conll"], None, "input file not found: {tmp}/c.conll"),
        "stats-default": (["stats"], None, "corpus file not found: {tmp}/out/corpus.conll"),
        "corpus": (["stats"], "out/corpus.conll", "corpus file not found: {tmp}/out/corpus.conll"),
        "enrich-default": (["enrich", "--experiments", "1"], None, "corpus file not found: {tmp}/out/corpus.conll"),
        "enrich-no-experiments": (["enrich", "--input", str(EXPECTED_CORPUS)], None,
                                  "no experiments selected (use --experiments, e.g. 1,4,6)"),
        "enrich-no-kg-map": (["enrich", "--input", str(EXPECTED_CORPUS), "--experiments", "4"], None,
                             "experiments [4] need a knowledge-graph map (--kg-map)"),
        "enrich-kg-map": (["enrich", "--input", str(EXPECTED_CORPUS), "--experiments", "4", "--kg-map", "{tmp}/k.tsv"],
                          None, "knowledge-graph map not found: {tmp}/k.tsv"),
        "eval-golden-missing": (["eval", "{tmp}/g.conll", str(EXPECTED_CORPUS)], None, "file not found: {tmp}/g.conll"),
        "eval-system-missing": (["eval", str(EXPECTED_CORPUS), "{tmp}/s.conll"], None, "file not found: {tmp}/s.conll"),
        "eval-golden": (["eval", "{tmp}/in", str(EXPECTED_CORPUS)], "in", "file not found: {tmp}/in"),
        "eval-system": (["eval", str(EXPECTED_CORPUS), "{tmp}/in"], "in", "file not found: {tmp}/in"),
        "pipeline-no-input": (["pipeline", "--offline"], None, "no input file given (use --input or the config file)"),
        "input": (["pipeline", "--input", "{tmp}/in", "--offline"], "in", "input file not found: {tmp}/in"),
        "cache": (["pipeline", "--input", str(DUMP), "--cache", "{tmp}/in", "--offline"], "in",
                  "class cache is not a file: {tmp}/in"),
        "kg-map": (["pipeline", "--input", str(DUMP), "--cache", str(CACHE), "--offline",
                    "--experiments", "4", "--kg-map", "{tmp}/in"], "in", "knowledge-graph map not found: {tmp}/in"),
        "equivalence": (["pipeline", "--input", str(DUMP), "--cache", str(CACHE), "--offline",
                         "--equivalence", "{tmp}/in"], "in", "mapping table not found: {tmp}/in"),
    }

    @pytest.mark.parametrize("out_made", [False, True], ids=["no-out", "out"])
    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_usage_error_about_an_input_writes_nothing(self, tmp_path, capsys, case, out_made):
        # found before --out is made: a missing file or a directory exits 1, not with the
        # OSError of opening it (exit 2), and leaves no directory and no manifest
        argv, made_dir, message = self.USAGE_ERRORS[case]
        if out_made:
            (tmp_path / "out").mkdir()
        if made_dir:
            (tmp_path / made_dir).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        code = cli.main([arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (1, f"error: {message.format(tmp=tmp_path)}\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("out", ["f", "f/sub", "f/sub/deeper", "link", "link/sub"])
    def test_out_that_is_a_file_or_lies_under_one_is_1_and_writes_nothing(self, tmp_path, capsys, out):
        # mkdir cannot make it, which the resolver finds first, as it finds a bad input
        (tmp_path / "f").write_text("a file\n", encoding="utf-8")
        (tmp_path / "link").symlink_to(tmp_path / "nowhere")
        before = sorted(tmp_path.rglob("*"))
        code = cli.main(["stats", "--input", str(EXPECTED_CORPUS), "--out", str(tmp_path / out)])
        blocker = tmp_path / out.split("/")[0]
        message = f"cannot make output directory {tmp_path / out}: {blocker} is not a directory"
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "f").read_text(encoding="utf-8") == "a file\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["extract", "--input", str(DUMP)],
            ["stats", "--input", str(EXPECTED_CORPUS)],
            ["enrich", "--input", str(EXPECTED_CORPUS), "--experiments", "1,2,3",
             "--equivalence", "{tmp}/e.tsv", "--priority", "{tmp}/p.tsv"],
            ["eval", str(EXPECTED_CORPUS), str(EXPECTED_CORPUS)],
        ],
        ids=["extract", "stats", "enrich-without-kg", "eval"],
    )
    def test_a_setting_the_command_does_not_read_is_not_checked(self, tmp_path, argv):
        # a directory as --cache, and missing tables for an enrich with no kg experiment
        out = tmp_path / "out"
        assert cli.main([arg.format(tmp=tmp_path) for arg in argv] + ["--cache", str(tmp_path), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["status"] == "ok"

    def test_unknown_experiment_is_1(self, tmp_path):
        code = run_pipeline(tmp_path / "out", "--experiments", "8")
        assert code == 1

    def test_duplicate_experiment_is_1(self, tmp_path):
        code = run_pipeline(tmp_path / "out", "--experiments", "1,3,1")
        assert code == 1
        assert not (tmp_path / "out" / "corpus.conll").exists()

    def test_pipeline_kg_experiments_fail_before_any_work(self, tmp_path):
        out = tmp_path / "out"
        code = run_pipeline(out, "--experiments", "6")
        assert code == 1
        assert not (out / "corpus.conll").exists()  # validated before stages ran

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# doc_id = d\na\tB-Name-Person-Name\nb\tQ-Name\n\n", "line 3: bad IOB tag 'Q-Name'"),
            ("# doc_id = d\na\tB-Name-God\nb\tB-\n\n", "line 3: empty label string"),
            (
                "# doc_id = d\na\tO\nb\tI-Name-Person-Name\n\n# doc_id = e\nc\tB-Name-God\nd\tI-Name-Person-Name\n\n",
                "corpus violates IOB invariants: doc d sentence 0 token 1 ('b'): I-Name-Person-Name not preceded "
                "by B/I of the same label; doc d sentence 0: no B tag; doc e sentence 0 token 1 ('d'): "
                "I-Name-Person-Name not preceded by B/I of the same label",
            ),
            (
                "# doc_id = d\na\tO\n\n# doc_id = e\nb\tB-Name-God\nc\tI-X\n\n",
                "line 6: label 'X' starts with unknown level-1 segment 'X'; "
                "expected one of Name, Time_Expression, Numerical_Expression",
            ),
            ("# doc_id = d\na\tB-Name-God\n\n# doc_id = e\ntok B-Name-God\n\n", "line 5: expected 'token<TAB>tag', got 'tok B-Name-God'"),
            ("a\tB-Name-God\n\n", "line 1: token line before any document header"),
        ],
        ids=["bad_tag", "empty_label", "iob_violations", "iob_then_bad_tag", "layout", "no_header"],
    )
    def test_stats_on_a_bad_corpus_is_2_with_the_strict_parse_message(self, tmp_path, capsys, text, message):
        # stats reads the corpus as strings, yet fails as parse_conll does, with its message
        corpus = tmp_path / "corpus.conll"
        corpus.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as raised:
            parse_conll(io.StringIO(text))
        assert str(raised.value) == message
        out = tmp_path / "out"
        assert cli.main(["stats", "--input", str(corpus), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert json.loads((out / "manifest.json").read_text())["status"] == "error"
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json"]


class TestAnnotateCommand:
    def test_out_of_order_links_give_valid_iob(self, tmp_path):
        text = "Ann Bob Cid went home."
        links = [
            {"start": 4, "end": 7, "surface": "Bob", "target": "Bob_Town"},
            {"start": 0, "end": 11, "surface": "Ann Bob Cid", "target": "Ann_Bob_Cid"},
        ]
        documents = tmp_path / "documents.jsonl"
        documents.write_text(json.dumps({"id": "1", "text": text, "links": links}) + "\n")
        cache = tmp_path / "cache.tsv"
        cache.write_text("Ann_Bob_Cid\tdbo:Person\nBob_Town\tdbo:City\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["--input", str(documents), "--cache", str(cache), "--out", str(out)]
        assert cli.main(["annotate", *argv]) == 0
        corpus = out / "corpus.conll"
        assert corpus.read_text(encoding="utf-8").splitlines()[1:4] == [
            "Ann\tB-Name-Person-Name",
            "Bob\tI-Name-Person-Name",
            "Cid\tI-Name-Person-Name",
        ]
        assert cli.main(["stats", "--input", str(corpus), "--out", str(out)]) == 0

    def test_bad_document_after_written_ones_leaves_no_corpus(self, tmp_path, capsys):
        # documents are written as they are annotated, into a file renamed into place only at the end
        good = json.dumps({"id": "1", "text": "Baku is a city.", "links": [{"start": 0, "end": 4, "surface": "Baku", "target": "Baku"}]})
        documents = tmp_path / "documents.jsonl"
        documents.write_text(f"{good}\n{good}\n{{not json\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["annotate", "--input", str(documents), "--cache", str(CACHE), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: documents file line 3: ")
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json"]


class TestLinkCommand:
    def test_offline_empty_cache_unresolved_but_ok(self, tmp_path):
        targets = tmp_path / "targets.txt"
        targets.write_text("Alpha\nBeta\n", encoding="utf-8")
        code = cli.main(
            ["link", "--input", str(targets), "--offline", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["stages"]["link"]["counters"]["unresolved"] == 2
        catalog = (tmp_path / "out" / "catalog.tsv").read_text()
        assert "Alpha" not in catalog

    def test_only_a_non_txt_input_is_ignored_with_a_warning(self, tmp_path, caplog):
        # a config file shared with extract names the dump as input; link reads extract's targets.txt,
        # and neither reads nor checks the dump, which need not exist
        out = tmp_path / "out"
        assert cli.main(["extract", "--input", str(DUMP), "--out", str(out)]) == 0
        for dump in (DUMP, tmp_path / "nonexistent" / "dump.jsonl"):
            caplog.clear()
            argv = ["link", "--input", str(dump), "--cache", str(CACHE), "--offline", "--out", str(out)]
            assert cli.main(argv) == 0
            warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
            assert warnings == [
                f"link ignores --input {dump}, which is not a .txt file, and reads {out / 'targets.txt'}"
            ]
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["stages"]["link"]["counters"]["targets"] == len(EXPECTED_TARGETS.read_text().splitlines())
        caplog.clear()
        targets = tmp_path / "one.txt"
        targets.write_text("Baku\n", encoding="utf-8")
        for argv in (["--input", str(targets)], []):
            assert cli.main(["link", *argv, "--cache", str(CACHE), "--offline", "--out", str(out)]) == 0
        assert [r for r in caplog.records if r.levelname == "WARNING"] == []

    def test_cache_grows_and_is_reused(self, tmp_path, monkeypatch):
        # resolve via a fake client once, then rerun fully offline
        from test_linker import FakeSession, make_client

        cache_path = tmp_path / "cache.tsv"
        session = FakeSession({"Alpha": ["http://dbpedia.org/ontology/City"]})
        client = make_client(session)
        monkeypatch.setattr(cli, "_make_client", lambda config: client)
        targets = tmp_path / "targets.txt"
        targets.write_text("Alpha\n", encoding="utf-8")
        code = cli.main(
            [
                "link",
                "--input",
                str(targets),
                "--cache",
                str(cache_path),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert "Alpha\tdbo:City" in cache_path.read_text()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["stages"]["link"]["counters"]["requests"] == client.request_count == 1

    def test_query_rewrites_the_cache_keeping_every_old_line(self, tmp_path, monkeypatch):
        # a run that queries loads the whole cache, not only its targets
        from test_linker import FakeSession, make_client

        def data_lines(path):
            return [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]

        cache = tmp_path / "cache.tsv"
        cache.write_bytes(CACHE.read_bytes())
        old_lines = data_lines(CACHE)
        session = FakeSession({"Alpha": ["http://dbpedia.org/ontology/City"]})
        monkeypatch.setattr(cli, "_make_client", lambda config: make_client(session))
        targets = tmp_path / "targets.txt"
        targets.write_text("Alpha\nParis\n", encoding="utf-8")
        argv = ["link", "--input", str(targets), "--cache", str(cache), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert data_lines(cache) == sorted(old_lines + ["Alpha\tdbo:City"])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["stages"]["link"]["counters"]["cache_hits"] == 1

    def test_online_run_and_offline_rerun_from_its_cache_agree(self, tmp_path, monkeypatch):
        # class names the cache cannot hold are dropped before annotate reads catalog.tsv
        from test_linker import FakeSession, make_client

        session = FakeSession({
            "Washington": ["http://dbpedia.org/ontology/Place", "http://dbpedia.org/yago/Washington,D.C."],
            "Lyon": ["http://dbpedia.org/ontology/City,Person"],  # a comma would make it a city on reload
            "Oslo": ["http://example.org/Line\nBreak", "http://dbpedia.org/ontology/City"],
            "Baku": ["http://example.org/Tab\tClass", "http://dbpedia.org/ontology/City"],
        })
        monkeypatch.setattr(cli, "_make_client", lambda config: make_client(session))
        dump = _write_dump(
            tmp_path / "dump.jsonl",
            ("1", '<a href="Washington">Washington</a> and <a href="Lyon">Lyon</a> are far apart.'),
            ("2", '<a href="Oslo">Oslo</a> is cold and <a href="Baku">Baku</a> is not.'),
        )
        cache, online, offline = tmp_path / "cache.tsv", tmp_path / "online", tmp_path / "offline"
        assert cli.main(["pipeline", "--input", str(dump), "--cache", str(cache), "--out", str(online)]) == 0
        link = json.loads((online / "manifest.json").read_text())["stages"]["link"]["counters"]
        assert (link["unwritable_class"], link["resolved_by_query"]) == (4, 4)
        assert "Oslo\tdbo:City\n" in cache.read_text(encoding="utf-8")
        argv = ["pipeline", "--input", str(dump), "--cache", str(cache), "--offline", "--out", str(offline)]
        assert cli.main(argv) == 0
        for name in ("catalog.tsv", "corpus.conll"):
            assert (offline / name).read_bytes() == (online / name).read_bytes(), name
        assert "Lyon\tO" in (online / "corpus.conll").read_text(encoding="utf-8")

    def test_unreachable_endpoint_is_3_and_counts_requests(self, tmp_path, monkeypatch):
        from test_linker import FakeSession, make_client

        client = make_client(FakeSession(fail=True))
        monkeypatch.setattr(cli, "_make_client", lambda config: client)
        targets = tmp_path / "targets.txt"
        targets.write_text("Alpha\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["link", "--input", str(targets), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["stages"]["link"]["counters"]["requests"] == client.request_count > 0

    def test_offline_run_leaves_cache_file_alone(self, tmp_path):
        cache = tmp_path / "cache.tsv"
        cache.write_bytes(CACHE.read_bytes())
        before = cache.stat()
        code = cli.main(
            ["pipeline", "--input", str(DUMP), "--cache", str(cache), "--offline", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        after = cache.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


class TestManifestTelemetry:
    def test_link_counts_class_lists_and_manifest_records_peak_rss(self, tmp_path):
        assert run_pipeline(tmp_path / "out") == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        targets = (tmp_path / "out" / "targets.txt").read_text(encoding="utf-8").splitlines()
        kept = oracle_load_catalog(CACHE, set(targets)).entries.values()
        assert manifest["stages"]["link"]["counters"]["cache_class_lists"] == len({tuple(c) for c in kept}) > 0
        assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0

    @pytest.mark.parametrize("platform, ru_maxrss", [("linux", 50 * 1024), ("darwin", 50 * 1024 * 1024)])
    def test_peak_rss_is_in_megabytes_on_linux_and_macos(self, tmp_path, monkeypatch, platform, ru_maxrss):
        # getrusage reports ru_maxrss in KiB on Linux and in bytes on macOS
        monkeypatch.setattr(cli.sys, "platform", platform)
        monkeypatch.setattr(cli.resource, "getrusage", lambda who: types.SimpleNamespace(ru_maxrss=ru_maxrss))
        cli.Manifest(cli.RunConfig(), "eval").write(tmp_path)
        assert json.loads((tmp_path / "manifest.json").read_text())["peak_rss_mb"] == 50.0

    def test_a_cache_out_of_its_sorted_layout_is_read_by_lines_to_the_same_outputs(self, tmp_path, caplog):
        shuffled = tmp_path / "shuffled.tsv"
        keys = write_shuffled_cache(shuffled)
        first_unsorted = 2 + next(i for i in range(1, len(keys)) if keys[i] < keys[i - 1])  # the header is line 1
        sorted_out, shuffled_out = tmp_path / "sorted", tmp_path / "shuffled"
        assert run_pipeline(sorted_out) == 0
        caplog.set_level("INFO", logger=linker.__name__)
        assert cli.main(["pipeline", "--input", str(DUMP), "--cache", str(shuffled), "--offline",
                         "--out", str(shuffled_out)]) == 0
        link = {}
        for out in (sorted_out, shuffled_out):
            link[out] = json.loads((out / "manifest.json").read_text())["stages"]["link"]["counters"]
        assert "cache_read_by_lines" not in link[sorted_out]
        assert link[shuffled_out].pop("cache_read_by_lines") == 1
        assert link[shuffled_out] == link[sorted_out]
        handoffs = [r.getMessage() for r in caplog.records if r.name == linker.__name__]
        assert handoffs == [
            f"{shuffled}:{first_unsorted} is out of the sorted cache layout; reading the cache line by line"
        ]
        assert_same_files(sorted_out, shuffled_out)

    def test_each_queried_target_adds_a_class_list(self, tmp_path, monkeypatch):
        from test_linker import FakeSession, make_client

        session = FakeSession({"Alpha": ["http://dbpedia.org/ontology/City"]})
        monkeypatch.setattr(cli, "_make_client", lambda config: make_client(session))
        cache = tmp_path / "cache.tsv"
        cache.write_text("Paris\tdbo:City\nRome\tdbo:City\nOslo\tdbo:Place\n", encoding="utf-8")
        targets = tmp_path / "targets.txt"
        targets.write_text("Alpha\nParis\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["link", "--input", str(targets), "--cache", str(cache), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # Paris and Rome share one loaded list, Oslo has one, Alpha's query adds one
        assert manifest["stages"]["link"]["counters"]["cache_class_lists"] == 3


def _write_dump(path: Path, *documents: tuple[str, str]) -> Path:
    path.write_text(
        "".join(json.dumps({"id": i, "title": i, "text": t}) + "\n" for i, t in documents), encoding="utf-8"
    )
    return path


class TestHostileIdsAndTargets:
    """Every file a pipeline run writes, its own readers and a staged run accept."""

    DUMPS = {
        "newline_id": [("10\n01", "<a href=\"Baku\">Baku</a> is a city."), ("11", "<a href=\"Asia\">Asia</a> is big.")],
        "newline_and_tab_targets": [
            ("1", '<a href="Lon%0Adon">London</a> and <a href="Par%09is">Paris</a> near <a href="Baku">Baku</a>.')
        ],
        "splitlines_only_targets": [
            ("1", '<a href="Ab%C2%85cd">Abcd</a>, <a href="X%E2%80%A8Y">XY</a> and <a href="Baku">Baku</a>.'),
            ("2", '<a href="Asia">Asia</a> and <a href="Baku">Baku</a> again.'),
        ],
    }

    @pytest.mark.parametrize("name", sorted(DUMPS))
    def test_staged_run_writes_the_same_bytes_as_pipeline(self, tmp_path, name):
        dump = _write_dump(tmp_path / "dump.jsonl", *self.DUMPS[name])
        piped, staged = tmp_path / "piped", tmp_path / "staged"
        common = ["--cache", str(CACHE), "--offline"]
        assert cli.main(["pipeline", "--input", str(dump), "--out", str(piped), *common]) == 0
        assert cli.main(["extract", "--input", str(dump), "--out", str(staged)]) == 0
        assert cli.main(["link", "--out", str(staged), *common]) == 0
        staged_link = json.loads((staged / "manifest.json").read_text())["stages"]["link"]
        assert cli.main(["annotate", "--out", str(staged), *common]) == 0
        for output in ("documents.jsonl", "targets.txt", "catalog.tsv", "corpus.conll"):
            assert (staged / output).read_bytes() == (piped / output).read_bytes(), output
        piped_link = json.loads((piped / "manifest.json").read_text())["stages"]["link"]
        assert staged_link["counters"] == piped_link["counters"]
        assert cli.main(["stats", "--input", str(piped / "corpus.conll"), "--out", str(tmp_path / "st")]) == 0

    def test_id_with_a_newline_is_dropped_and_the_corpus_reads_back(self, tmp_path):
        dump = _write_dump(tmp_path / "dump.jsonl", *self.DUMPS["newline_id"])
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--input", str(dump), "--out", str(out), "--cache", str(CACHE), "--offline"]) == 0
        extract = json.loads((out / "manifest.json").read_text())["stages"]["extract"]["counters"]
        assert (extract["unwritable_doc_id"], extract["documents"]) == (1, 1)
        assert (out / "corpus.conll").read_text(encoding="utf-8").startswith("# doc_id = 11\n")
        assert cli.main(["stats", "--input", str(out / "corpus.conll"), "--out", str(tmp_path / "st")]) == 0

    @pytest.mark.parametrize(
        "name, targets", [("newline_and_tab_targets", "Baku\n"), ("splitlines_only_targets", "Asia\nBaku\n")]
    )
    def test_targets_with_a_line_break_or_tab_stay_text(self, tmp_path, name, targets):
        dump = _write_dump(tmp_path / "dump.jsonl", *self.DUMPS[name])
        out = tmp_path / "out"
        assert cli.main(["extract", "--input", str(dump), "--out", str(out)]) == 0
        assert (out / "targets.txt").read_text(encoding="utf-8") == targets
        extract = json.loads((out / "manifest.json").read_text())["stages"]["extract"]["counters"]
        assert extract["unwritable_target"] == 2

    def test_record_with_a_lone_surrogate_is_malformed(self, tmp_path, capsys):
        # json.loads turns the escape "\ud800" into a character no UTF-8 file can hold
        dump = tmp_path / "dump.jsonl"
        lines = [
            json.dumps({"id": "1", "title": "A", "text": "a\ud800b near <a href=\"Baku\">Baku</a>."}),
            json.dumps({"id": "2", "title": "B\udfff", "text": "<a href=\"Baku\">Baku</a> again."}),
            json.dumps({"id": "3\ud83d", "title": "C", "text": "<a href=\"Baku\">Baku</a> again."}),
            json.dumps({"id": "4", "title": "D", "text": "<a href=\"Asia\">Asia</a> is big. \U0001f600"}),
        ]
        dump.write_text("".join(line + "\n" for line in lines), encoding="ascii")
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--input", str(dump), "--out", str(out), "--cache", str(CACHE), "--offline"]) == 0
        assert capsys.readouterr().err == ""
        extract = json.loads((out / "manifest.json").read_text())["stages"]["extract"]["counters"]
        assert (extract["malformed_lines"], extract["documents"]) == (3, 1)
        assert (out / "targets.txt").read_text(encoding="utf-8") == "Asia\n"
        assert (out / "corpus.conll").read_text(encoding="utf-8").startswith("# doc_id = 4\nAsia\t")


# pieces that have broken, or could break, a reader of a file the pipeline writes
HOSTILE_PIECES = [
    "\t", "\r", "\x0b", "\x85", "\x1c", "\xa0", "\u2028", "\ufeff", " ", "\n",
    "\n#", "# doc_id = ", "%09", "%0A", "%ED%A0%80", "[[", "]]", "|", '<a href="', "\ud800", "\udfff",
]
_piece = st.sampled_from(HOSTILE_PIECES) | st.sampled_from(["Baku", "Asia", "Paris", "is", "a", "city", ".", "_"])
_hostile = st.lists(_piece, max_size=5).map("".join)
_href = st.one_of(st.sampled_from(["Baku", "Asia", "Paris"]), _hostile)
_link = st.one_of(
    st.builds('<a href="{}">{}</a>'.format, _href, _hostile),
    st.builds("[[{}|{}]]".format, _href, _hostile),
    st.builds("[[{}]]".format, _href),
)
_text = st.lists(_link | _hostile, min_size=1, max_size=6).map(" ".join)
_id = st.sampled_from(["1", "2", "10"]) | _hostile
_record = st.tuples(st.booleans(), _id, st.just("Baku") | _hostile, _text)


def _dump_record(as_block: bool, doc_id: str, title: str, text: str) -> str:
    if as_block:  # a <doc> block is UTF-8 text, which cannot carry a lone surrogate
        doc_id, title, text = (re.sub("[\ud800-\udfff]", "", value) for value in (doc_id, title, text))
        return f'<doc id="{doc_id}" url="u" title="{title}">\n{text}\n</doc>\n'
    return json.dumps({"id": doc_id, "title": title, "text": text}, ensure_ascii=True) + "\n"


def _main_quietly(*argv: str) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    return code, err.getvalue()


_TABLE_LINES = {name: path.read_text(encoding="utf-8").splitlines(keepends=True)
                for name, path in (("cache", CACHE), ("kg_map", KG_MAP))}
# a bad line put after line ``at`` of a copy of the cache or of the kg map: (table, line, at)
_fault = st.one_of(
    st.tuples(st.just("cache"), st.sampled_from(["no tab at all\n", "\tdbo:City\n"]),
              st.integers(1, len(_TABLE_LINES["cache"]))),
    # a copy of line ``at``, which repeats its key
    st.integers(2, len(_TABLE_LINES["cache"])).map(lambda at: ("cache", _TABLE_LINES["cache"][at - 1], at)),
    st.tuples(st.just("kg_map"), st.sampled_from(["no tab at all\n", "\tdbo:City\n", "Baku\t\n"]),
              st.integers(1, len(_TABLE_LINES["kg_map"]))),
)
# what --out holds when the stage that reads the table fails: the earlier stages' outputs and the manifest
_WRITTEN_BEFORE = {
    "cache": ["documents.jsonl", "manifest.json", "targets.txt"],
    "kg_map": ["catalog.tsv", "corpus.conll", "documents.jsonl", "entities.tsv", "manifest.json",
               "stats.json", "stats.txt", "targets.txt"],
}


@settings(max_examples=40, deadline=None)
@given(st.lists(_record, min_size=1, max_size=4), st.none() | _fault)
def test_every_file_a_hostile_dump_makes_is_read_back(records, fault):
    """A dump of hostile records runs to exit 0 or 2, and every reader accepts what a 0 wrote.

    The same dump with a bad table line exits 2 with its ``path:line``, and
    the stage that reads the table leaves no output and no temp file.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dump = tmp / "dump.txt"
        dump.write_text("".join(_dump_record(*record) for record in records), encoding="utf-8")
        if fault is not None:
            name, bad_line, at = fault
            lines = _TABLE_LINES[name]
            tables = {"cache": CACHE, "kg_map": KG_MAP, name: tmp / f"{name}.tsv"}
            tables[name].write_text("".join(lines[:at] + [bad_line] + lines[at:]), encoding="utf-8")
            faulted = tmp / "faulted"
            code, err = _main_quietly("pipeline", "--input", str(dump), "--cache", str(tables["cache"]),
                                      "--offline", "--experiments", "1,2,3,4,5,6,7",
                                      "--kg-map", str(tables["kg_map"]), "--out", str(faulted))
            assert code == 2 and f"{tables[name]}:{at + 1}: " in err, err
            assert sorted(path.name for path in faulted.iterdir()) == _WRITTEN_BEFORE[name]
        out = tmp / "out"
        enriched = ["--experiments", "1,2,3,4,5,6,7", "--kg-map", str(KG_MAP)]
        code, err = _main_quietly("pipeline", "--input", str(dump), "--cache", str(CACHE), "--offline",
                                  *enriched, "--out", str(out))
        assert code in (0, 2), err
        if code:
            return
        corpus = out / "corpus.conll"
        assert _main_quietly("stats", "--input", str(corpus), "--out", str(tmp / "stats")) == (0, "")
        assert _main_quietly("enrich", "--input", str(corpus), *enriched, "--out", str(tmp / "enrich")) == (0, "")
        annotated = tmp / "annotate"
        assert _main_quietly("annotate", "--input", str(out / "documents.jsonl"),
                             "--cache", str(out / "catalog.tsv"), "--out", str(annotated)) == (0, "")
        assert (annotated / "corpus.conll").read_bytes() == corpus.read_bytes()
        assert _main_quietly("link", "--input", str(out / "targets.txt"), "--cache", str(CACHE), "--offline",
                             "--out", str(tmp / "link")) == (0, "")
        for system in (corpus, out / "corpus_exp6.conll"):
            code, err = _main_quietly("eval", str(corpus), str(system), "--out", str(tmp / "eval"))
            if not corpus.stat().st_size:  # no document kept
                assert (code, err) == (2, "error: nothing to score: empty pair counts\n")
                continue
            assert (code, err) == (0, "")
            if system == corpus:
                report = json.loads((tmp / "eval" / "eval.json").read_text())
                assert report["macro"]["f1"] == (100.0 if report["counted_tags"] else 0.0)


def extract_peak_bytes(tmp_path: Path, documents: int) -> int:
    """Peak traced memory of an ``extract`` run over long documents that link the same 20 targets."""
    text = " ".join(f'<a href="Target {j}">Surface {j}</a> is named in a sentence of plain words.' for j in range(20))
    dump = _write_dump(tmp_path / f"dump{documents}.jsonl", *((str(i), text * 4) for i in range(documents)))
    out = tmp_path / f"out{documents}"
    tracemalloc.start()
    try:
        assert cli.main(["extract", "--input", str(dump), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((out / "targets.txt").read_text(encoding="utf-8").splitlines()) == 20
    return peak


def test_extract_memory_holds_one_document_and_the_targets(tmp_path):
    extract_peak_bytes(tmp_path, 10)  # warms the caches a first run fills
    assert extract_peak_bytes(tmp_path, 100) <= 1.2 * extract_peak_bytes(tmp_path, 25)


def pipeline_peak_bytes(tmp_path: Path, documents: int) -> int:
    """Peak traced memory of an in-process pipeline, no experiments, over documents on a few recurring surfaces."""
    rng = random.Random(19)  # the same seed for every size, so a smaller dump is a prefix of a larger one
    targets = ["Paris", "Barack Obama", "Berlin", "Baku", "Asia", "Michelle Obama"]

    def mention() -> str:
        target = rng.choice(targets)
        return f'<a href="{target}">{target}</a>' if rng.random() < 0.5 else target

    texts = [" ".join(f"{mention()} is near {mention()} and {mention()}." for _ in range(30)) for _ in range(documents)]
    dump = _write_dump(tmp_path / f"dump{documents}.jsonl", *((str(i), text) for i, text in enumerate(texts)))
    config = cli.RunConfig(input=dump, cache=CACHE, offline=True, out=tmp_path / f"out{documents}")
    config.out.mkdir()
    manifest = cli.Manifest(config, "pipeline")
    tracemalloc.start()
    try:
        cli.cmd_pipeline(config, manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert manifest.data["stages"]["annotate"]["counters"]["documents_kept"] == documents
    assert manifest.data["stages"]["stats"]["counters"]["entities"] > documents
    return peak


def test_pipeline_memory_holds_one_document(tmp_path):
    # annotate writes each document as it is projected, and stats reads one document of strings at a
    # time; both corpora are several times the reader's 64 KiB block, so its buffers weigh the same in both
    pipeline_peak_bytes(tmp_path, 10)  # warms the caches a first run fills
    assert pipeline_peak_bytes(tmp_path, 400) <= 1.3 * pipeline_peak_bytes(tmp_path, 100)


class TestEvalCommand:
    def test_identity_macro_100(self, tmp_path, capsys):
        run_pipeline(tmp_path / "out")
        corpus = tmp_path / "out" / "corpus.conll"
        code = cli.main(
            ["eval", "--out", str(tmp_path / "eval"), str(corpus), str(corpus)]
        )
        assert code == 0
        report = json.loads((tmp_path / "eval" / "eval.json").read_text())
        assert report["macro"] == {"precision": 100.0, "recall": 100.0, "f1": 100.0}
        assert "macro" in capsys.readouterr().out

    def test_input_is_neither_read_nor_checked(self, tmp_path):
        missing = tmp_path / "missing.jsonl"
        out = tmp_path / "eval"
        argv = ["eval", "--input", str(missing), "--out", str(out), str(EXPECTED_CORPUS), str(EXPECTED_CORPUS)]
        assert cli.main(argv) == 0
        assert json.loads((out / "eval.json").read_text())["macro"]["f1"] == 100.0

    def test_collapse_depth_flag(self, tmp_path):
        run_pipeline(tmp_path / "out")
        corpus = tmp_path / "out" / "corpus.conll"
        code = cli.main(
            [
                "eval",
                "--out",
                str(tmp_path / "eval"),
                "--collapse-depth",
                "2",
                str(corpus),
                str(corpus),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "eval" / "eval.json").read_text())
        assert report["collapse_depth"] == 2
        assert all(tag.count("-") <= 2 for tag in report["per_tag"])

    def test_include_o_flag(self, tmp_path):
        run_pipeline(tmp_path / "out")
        corpus = tmp_path / "out" / "corpus.conll"
        code = cli.main(
            ["eval", "--out", str(tmp_path / "eval"), "--include-o", str(corpus), str(corpus)]
        )
        assert code == 0
        report = json.loads((tmp_path / "eval" / "eval.json").read_text())
        assert "O" in report["per_tag"]
        assert "O" not in report["counted_tags"]
        assert report["system_coarse_counts"]["Location"]["count"] > 0

    def test_outputs_match_pinned_files(self, tmp_path, capsys):
        run_pipeline(tmp_path / "out", "--experiments", "1")
        code = cli.main(
            [
                "eval",
                "--out",
                str(tmp_path / "eval"),
                "--collapse-depth",
                "2",
                "--include-o",
                str(EXPECTED_CORPUS),
                str(tmp_path / "out" / "corpus_exp1.conll"),
            ]
        )
        assert code == 0
        assert (tmp_path / "eval" / "eval.json").read_bytes() == EXPECTED_EVAL_JSON.read_bytes()
        assert (tmp_path / "eval" / "eval.txt").read_bytes() == EXPECTED_EVAL_TXT.read_bytes()
        assert capsys.readouterr().out == EXPECTED_EVAL_TXT.read_text(encoding="utf-8")
        manifest = json.loads((tmp_path / "eval" / "manifest.json").read_text())
        assert "system_coarse_counts_skipped" not in manifest["stages"]["eval"]["counters"]

    def test_manifest_counts_the_aligned_documents_and_sentences(self, tmp_path):
        run_pipeline(tmp_path / "out", "--experiments", "1")
        code = cli.main(
            ["eval", "--out", str(tmp_path / "eval"), str(EXPECTED_CORPUS), str(tmp_path / "out" / "corpus_exp1.conll")]
        )
        assert code == 0
        counters = json.loads((tmp_path / "eval" / "manifest.json").read_text())["stages"]["eval"]["counters"]
        # the fixture corpus holds 8 documents, 10 sentences and 72 tokens
        assert (counters["documents"], counters["sentences"], counters["aligned_tokens"]) == (8, 10, 72)

    def test_skipped_coarse_counts_are_counted_and_logged(self, tmp_path, caplog):
        # a sentence without a B tag breaks the IOB invariants, so the coarse counts cannot be taken
        system = tmp_path / "system.conll"
        system.write_text(
            "# doc_id = d1\nParis\tB-Name-Location-GPE-City\n\nnice\tO\n\n", encoding="utf-8"
        )
        code = cli.main(["eval", "--out", str(tmp_path / "eval"), str(system), str(system)])
        assert code == 0
        report = json.loads((tmp_path / "eval" / "eval.json").read_text())
        assert "system_coarse_counts" not in report
        assert report["macro"] == {"precision": 100.0, "recall": 100.0, "f1": 100.0}
        manifest = json.loads((tmp_path / "eval" / "manifest.json").read_text())
        assert manifest["stages"]["eval"]["counters"]["system_coarse_counts_skipped"] == 1
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert str(system) in warnings[0] and "no B tag" in warnings[0]

    def test_misaligned_files_exit_2(self, tmp_path):
        run_pipeline(tmp_path / "out")
        corpus = tmp_path / "out" / "corpus.conll"
        mangled = tmp_path / "mangled.conll"
        mangled.write_text(
            corpus.read_text(encoding="utf-8").replace("Baku", "Quux", 1), encoding="utf-8"
        )
        code = cli.main(["eval", "--out", str(tmp_path / "eval"), str(corpus), str(mangled)])
        assert code == 2


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        config_file.write_text(
            f"input = {DUMP}\ncache = {CACHE}\noffline = true\nout = {tmp_path / 'cfg_out'}\n",
            encoding="utf-8",
        )
        assert cli.main(["pipeline", "--config", str(config_file)]) == 0
        assert (tmp_path / "cfg_out" / "corpus.conll").exists()
        # flag wins over file
        assert (
            cli.main(
                ["pipeline", "--config", str(config_file), "--out", str(tmp_path / "flag_out")]
            )
            == 0
        )
        assert (tmp_path / "flag_out" / "corpus.conll").exists()

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        text = f"out = {tmp_path / 'bom_out'}\ninput = {DUMP}\ncache = {CACHE}\noffline = yes\n"
        config_file.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert cli.main(["pipeline", "--config", str(config_file)]) == 0
        assert (tmp_path / "bom_out" / "corpus.conll").read_bytes() == EXPECTED_CORPUS.read_bytes()

    def test_unknown_key_rejected(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        config_file.write_text("bogus = 1\n", encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(config_file)]) == 1

    @pytest.mark.parametrize(
        "make, reason",
        [
            (lambda path: path.write_bytes(b"out = x\xff\n"),
             "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
            (Path.mkdir, "[Errno 21] Is a directory: '{path}'"),
        ],
        ids=["not-utf8", "directory"],
    )
    def test_a_config_file_that_cannot_be_read_is_1_and_writes_nothing(self, tmp_path, capsys, make, reason):
        config_file = tmp_path / "run.cfg"
        make(config_file)
        before = sorted(tmp_path.rglob("*"))
        code = cli.main(["stats", "--config", str(config_file), "--input", str(EXPECTED_CORPUS),
                         "--out", str(tmp_path / "out")])
        message = f"cannot read config file {config_file}: {reason.format(path=config_file)}"
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_endpoint_env_override(self, tmp_path, monkeypatch):
        from uner_pipeline.linker import ENDPOINT_ENV_VAR

        monkeypatch.setenv(ENDPOINT_ENV_VAR, "")
        config = cli.build_config(
            cli._build_parser().parse_args(
                ["link", "--endpoint", "http://configured", "--input", "x.txt"]
            )
        )
        assert config.endpoint is None


# (key, config-file value, expected snapshot value); flags take the same values
ACCEPTED_VALUES = [
    ("input", "dump.jsonl", "dump.jsonl"),
    ("out", "results", "results"),
    ("equivalence", "eq.tsv", "eq.tsv"),
    ("priority", "prio.tsv", "prio.tsv"),
    ("cache", "cache.tsv", "cache.tsv"),
    ("endpoint", "http://sparql.test/q", "http://sparql.test/q"),
    ("endpoint", "", None),
    ("resource_base", "http://kb.test/resource", "http://kb.test/resource"),
    ("offline", "yes", True),
    ("offline", "Off", False),
    ("batch_size", "7", 7),
    ("batch_size", "", 50),
    ("timeout", "2.5", 2.5),
    ("retries", "5", 5),
    ("rate_limit", "0.5", 0.5),
    ("rate_limit", "0", 0.0),  # no limit
    ("concurrency", "8", 8),
    ("experiments", "3,1", [3, 1]),
    ("experiments", "", []),
    ("collapse_depth", "2", 2),
    ("kg_map", "kg.tsv", "kg.tsv"),
]

# (key, config-file value); every one is a usage error, exit code 1
REJECTED_VALUES = [
    ("format", "json_lines"),  # no such key: the dump layout is read from the dump
    ("offline", "maybe"),
    ("offline", ""),
    ("batch_size", "x"),
    ("batch_size", "0"),
    ("timeout", "soon"),
    ("retries", "1.5"),
    ("rate_limit", "fast"),
    ("concurrency", "0"),
    ("experiments", "8"),
    ("experiments", "1,x"),
    ("experiments", "1,1"),
    ("collapse_depth", "0"),
    ("collapse_depth", "two"),
    ("bogus", "1"),
]


def _flag_argv(key: str, value: str) -> list[str]:
    if key == "offline":  # a switch: present means true
        return ["--offline"] if cli._parse_bool(value) else []
    return ["--" + key.replace("_", "-"), value]


class TestConfigSurface:
    @pytest.fixture(autouse=True)
    def _no_endpoint_override(self, monkeypatch):
        from uner_pipeline.linker import ENDPOINT_ENV_VAR

        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)

    def build(self, *argv: str) -> cli.RunConfig:
        return cli.build_config(cli._build_parser().parse_args(["link", *argv]))

    def test_table_covers_every_key(self):
        assert {key for key, _, _ in ACCEPTED_VALUES} == set(cli.CONFIG_CASTS)
        assert [f.name for f in dataclasses.fields(cli.RunConfig)] == list(cli.CONFIG_CASTS)

    @pytest.mark.parametrize("key,value,expected", ACCEPTED_VALUES)
    def test_accepted_value(self, tmp_path, key, value, expected):
        want = cli.RunConfig().snapshot() | {key: expected}
        config_file = tmp_path / "run.cfg"
        config_file.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert self.build("--config", str(config_file)).snapshot() == want
        if value or key == "offline":
            assert self.build(*_flag_argv(key, value)).snapshot() == want

    @pytest.mark.parametrize("key,value", REJECTED_VALUES)
    def test_rejected_value(self, tmp_path, key, value):
        config_file = tmp_path / "run.cfg"
        config_file.write_text(f"{key} = {value}\n", encoding="utf-8")
        with pytest.raises(UsageError):
            self.build("--config", str(config_file))
        assert cli.main(["link", "--config", str(config_file), "--out", str(tmp_path / "o")]) == 1
        if key != "offline":
            with pytest.raises(UsageError):
                self.build(*_flag_argv(key, value))

    def test_flag_wins_over_file(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        config_file.write_text("batch_size = 7\noffline = no\n", encoding="utf-8")
        config = self.build("--config", str(config_file), "--batch-size", "9", "--offline")
        assert (config.batch_size, config.offline) == (9, True)

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        keys = re.findall(r"`(\w+)`", re.search(r"Keys:(.*?)\.", section, re.S).group(1))
        assert keys == [f.name for f in dataclasses.fields(cli.RunConfig)]


class TestAtomicWrites:
    def test_failed_conll_write_leaves_no_final_file(self, tmp_path, monkeypatch):
        def explode(corpus, writer):
            writer.write("partial")
            raise OSError("disk full")

        monkeypatch.setattr(cli.annotator, "emit_conll", explode)
        target = tmp_path / "corpus.conll"
        with pytest.raises(OSError):
            with atomic_output(target) as fh:
                cli.annotator.emit_conll(AnnotatedCorpus(), fh)
        assert not target.exists()
        assert not target.with_name("corpus.conll.tmp").exists()

    def test_atomic_text_replaces_existing(self, tmp_path):
        target = tmp_path / "file.txt"
        target.write_text("old", encoding="utf-8")
        with atomic_output(target) as fh:
            fh.write("new")
        assert target.read_text(encoding="utf-8") == "new"

    @pytest.mark.parametrize(
        "save",
        [
            # sorted targets: "a" is written, then joining the int classes of "b" raises
            lambda path: linker.save_catalog(linker.ClassCatalog({"a": ["dbo:City"], "b": [1]}), path),
            # application order: "Alpha" is written, then formatting the label of "Beta" raises
            lambda path: enrich.save_dictionary(
                enrich.Dictionary({"Alpha": parse_uner_label("Name-Person-Name"), "Beta": _Unprintable()}),
                path,
            ),
        ],
        ids=["save_catalog", "save_dictionary"],
    )
    def test_writer_failing_midway_keeps_previous_file(self, tmp_path, save):
        target = tmp_path / "out.tsv"
        target.write_bytes(b"previous\tcontent\n")
        with pytest.raises((TypeError, OSError)):
            save(target)
        assert target.read_bytes() == b"previous\tcontent\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tsv"]
        target.unlink()
        with pytest.raises((TypeError, OSError)):
            save(target)
        assert list(tmp_path.iterdir()) == []


class _Unprintable:
    def __format__(self, spec):
        raise OSError("disk full")
