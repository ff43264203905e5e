import dataclasses
import hashlib
import io
import json
import os
import random
import re
import time
import tracemalloc
from pathlib import Path

import pytest

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
        outputs = sorted(path.name for path in piped.iterdir() if path.name != "manifest.json")
        assert sorted(path.name for path in staged.iterdir() if path.name != "manifest.json") == outputs
        for name in outputs:
            assert (staged / name).read_bytes() == (piped / name).read_bytes(), name
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
                "--format", "plain_anchored",
                "--cache", str(CACHE),
                "--offline",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        corpus = (tmp_path / "out" / "corpus.conll").read_text(encoding="utf-8")
        assert "Baku\tB-Name-Location-GPE-City" in corpus
        assert "Plain" not in corpus  # second sentence has no entity


class TestExitCodes:
    def test_usage_error_is_1(self, tmp_path):
        assert cli.main(["pipeline", "--no-such-flag"]) == 1

    def test_missing_input_is_1(self, tmp_path):
        assert cli.main(["pipeline", "--offline", "--out", str(tmp_path / "o")]) == 1

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

    @pytest.mark.parametrize(
        "argv, made_dir",
        [
            (["eval", "{dir}", str(EXPECTED_CORPUS)], "in"),
            (["eval", str(EXPECTED_CORPUS), "{dir}"], "in"),
            (["pipeline", "--input", "{dir}", "--offline"], "in"),
            (["pipeline", "--input", str(DUMP), "--cache", "{dir}", "--offline"], "in"),
            (["pipeline", "--input", str(DUMP), "--cache", str(CACHE), "--offline",
              "--experiments", "4", "--kg-map", "{dir}"], "in"),
            (["pipeline", "--input", str(DUMP), "--cache", str(CACHE), "--offline",
              "--equivalence", "{dir}"], "in"),
            (["link", "--offline"], "out/targets.txt"),
            (["annotate", "--cache", str(CACHE)], "out/documents.jsonl"),
            (["stats"], "out/corpus.conll"),
        ],
        ids=["eval-golden", "eval-system", "input", "cache", "kg-map", "equivalence",
             "targets", "documents", "corpus"],
    )
    def test_directory_given_as_input_file_is_1(self, tmp_path, capsys, argv, made_dir):
        directory = tmp_path / made_dir
        directory.mkdir(parents=True)
        code = cli.main([arg.format(dir=directory) for arg in argv] + ["--out", str(tmp_path / "out")])
        assert code == 1  # a usage error, not the OSError of opening a directory (exit 2)
        assert "Is a directory" not in capsys.readouterr().err

    def test_unknown_experiment_is_1(self, tmp_path):
        code = run_pipeline(tmp_path / "out", "--experiments", "8")
        assert code == 1

    def test_enrich_without_kg_map_is_1(self, tmp_path):
        run_pipeline(tmp_path / "out")
        code = cli.main(
            [
                "enrich",
                "--input",
                str(tmp_path / "out" / "corpus.conll"),
                "--out",
                str(tmp_path / "enrich"),
                "--experiments",
                "4",
            ]
        )
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

    def test_unknown_key_rejected(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        config_file.write_text("bogus = 1\n", encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(config_file)]) == 1

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
    ("format", "plain_anchored", "plain_anchored"),
    ("format", "", "json_lines"),
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
    ("format", "xml"),
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
