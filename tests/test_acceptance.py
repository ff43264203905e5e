"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import io
import itertools
import random
import time
from collections import Counter

import pytest

from conftest import FIXTURES
from helpers import (
    LABEL_POOL,
    brute_force_metrics,
    corpus_from_rows,
    corpus_to_text,
    oracle_document_violations,
    pair_counts,
    random_corpus,
    random_markup_document,
    random_word,
    recurring_surface_corpus,
    tag_counts,
)
from test_linker import WORKED_COMPACT, WORKED_TYPES, FakeSession, make_client
from uner_pipeline import cli
from uner_pipeline.annotator import AnnotatedCorpus, TagChecker, annotate_document, parse_conll
from uner_pipeline.enrich import (
    Dictionary,
    apply_dictionary,
    build_global_dictionary,
    run_experiments,
    surface_token_count,
)
from uner_pipeline.errors import LabelParseError
from uner_pipeline.evaluation import per_tag_metrics
from uner_pipeline.ingest import RawDocument, build_document
from uner_pipeline.linker import ClassCatalog, load_catalog, resolve_all, save_catalog
from uner_pipeline.mapping import (
    PriorityMap,
    default_equivalence_path,
    default_priority_path,
    label_for_classes,
    load_equivalence_map,
    load_mapping_tables,
    parse_uner_label,
    select_class,
)
from uner_pipeline.stats import compute_stats

WORKED_CLASSES = [
    "dbo:Event",
    "dbo:SoccerTournament",
    "dbo:SocietalEvent",
    "dbo:SportsEvent",
    "owl:Thing",
]


def test_criterion_1_class_selection_fidelity():
    equivalences, priorities = load_mapping_tables(
        default_equivalence_path(), default_priority_path()
    )
    for cls, expected in (
        ("dbo:Event", 2),
        ("dbo:SoccerTournament", 4),
        ("dbo:SocietalEvent", 2),
        ("dbo:SportsEvent", 4),
        ("owl:Thing", 1),
    ):
        assert priorities.entries[cls] == expected
    start = time.perf_counter()
    selected = select_class(WORKED_CLASSES, priorities)
    label = label_for_classes(WORKED_CLASSES, equivalences, priorities)
    elapsed = time.perf_counter() - start
    assert selected == "dbo:SoccerTournament"
    assert str(label) == "Name-Event-Occasion-Game"
    assert elapsed < 0.001, f"selection took {elapsed * 1000:.3f} ms"
    print(f"\nACCEPTANCE 1 PASS: worked entity -> SoccerTournament -> "
          f"Name-Event-Occasion-Game in {elapsed * 1e6:.0f} us")


def test_criterion_2_tie_rule_exhaustive():
    start = time.perf_counter()
    multisets = [
        (4, 4, 2, 2, 1),
        (5, 5, 5, 1, 1),
        (3, 3, 3, 3, 3),
        (2, 2, 2, 1, 1),
        (9, 9, 4, 4, 4),
    ]
    cases = 0
    for priorities_tuple in multisets:
        names = [f"c{i}" for i in range(5)]
        priority_map = PriorityMap(dict(zip(names, priorities_tuple)))
        maximum = max(priorities_tuple)
        for perm in itertools.permutations(names):
            expected = next(n for n in perm if priority_map.entries[n] == maximum)
            assert select_class(list(perm), priority_map) == expected
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: earliest maximal element chosen in all "
          f"{cases} permutations ({elapsed:.2f} s)")


def test_criterion_3_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    expected = (FIXTURES / "expected_corpus.conll").read_bytes()
    outputs = {}
    for concurrency in (1, 8):
        out = tmp_path / f"c{concurrency}"
        code = cli.main(
            [
                "pipeline",
                "--input", str(FIXTURES / "dump.jsonl"),
                "--cache", str(FIXTURES / "class_cache.tsv"),
                "--offline",
                "--concurrency", str(concurrency),
                "--out", str(out),
            ]
        )
        assert code == 0
        outputs[concurrency] = (out / "corpus.conll").read_bytes()
    elapsed = time.perf_counter() - start
    assert outputs[1] == outputs[8] == expected
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 PASS: byte-identical CoNLL at concurrency 1 and 8, "
          f"matches checked-in fixture ({elapsed:.2f} s)")


def test_criterion_4_iob_well_formedness_property():
    rng = random.Random(1008)
    labeled_targets = {
        "Alpha_Page": parse_uner_label("Name-Person-Name"),
        "Beta Page": parse_uner_label("Name-Location-GPE-City"),
        "Gamma": parse_uner_label("Name-Event-Occasion-Game"),
        "Delta_Q": parse_uner_label("Name-Organization-Corporation-Company"),
    }
    documents = 0
    sentences = 0
    checker = TagChecker()  # one for the whole run, as for one corpus file
    for i in range(10_000):
        markup = random_markup_document(rng, labeled_targets)
        doc = build_document(RawDocument(str(i), "t", markup))
        annotated = annotate_document(doc, labeled_targets)
        violations = oracle_document_violations(str(i), annotated)
        assert violations == [], f"doc {i}: {violations[:3]}"
        checker.check(str(i), annotated)
        assert checker.violations == [], f"doc {i}: {checker.violations[:3]}"
        documents += 1
        sentences += len(annotated)
    assert documents == 10_000
    print(f"\nACCEPTANCE 4 PASS: zero IOB violations over {documents} generated "
          f"documents ({sentences} kept sentences)")


def test_criterion_5_statistics_identities():
    rng = random.Random(55)
    checked = 0
    for _ in range(1_000):
        corpus = random_corpus(rng)
        stats = compute_stats(tag_counts(corpus))
        assert stats.total_tokens == stats.non_entity_tokens + stats.entity_tokens
        text = corpus_to_text(corpus)
        b_lines = sum(1 for line in text.splitlines() if "\tB-" in line)
        assert stats.entity_count == b_lines
        checked += 1
    assert checked == 1_000
    print(f"\nACCEPTANCE 5 PASS: token identity and B-line oracle agree on {checked} corpora")


def test_criterion_6_metrics_oracle():
    rng = random.Random(66)
    tags = ["O"] + [f"B-{l}" for l in LABEL_POOL] + [f"I-{l}" for l in LABEL_POOL]
    start = time.perf_counter()
    checked = 0
    for _ in range(10_000):
        n = rng.randint(1, 50)
        gold = [rng.choice(tags) for _ in range(n)]
        system = [rng.choice(tags) for _ in range(n)]
        depth = rng.choice([None, 1, 2])
        report = per_tag_metrics(pair_counts(gold, system), collapse_depth=depth)
        per_tag, macro, counted = brute_force_metrics(gold, system, depth)
        assert set(report.per_tag) == set(per_tag)
        for tag, expected in per_tag.items():
            got = report.per_tag[tag]
            assert (got.precision, got.recall, got.f1, got.support) == expected
        assert report.macro == macro
        assert report.counted_tags == counted
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 6 PASS: exact match with brute-force scorer on {checked} "
          f"pairs incl. collapse depths ({elapsed:.1f} s)")


def non_o_positions(corpus: AnnotatedCorpus):
    positions = set()
    for d, (_, sentences) in enumerate(corpus.documents):
        for s, sentence in enumerate(sentences):
            for t, tag in enumerate(sentence.tags):
                if tag != "O":
                    positions.add((d, s, t, tag))
    return positions


def test_criterion_7_enrichment_laws():
    rng = random.Random(77)
    equivalences = load_equivalence_map(default_equivalence_path())
    kg_classes = ["dbo:City", "dbo:Person", "dbo:Company", "owl:Thing", "dbo:Award"]
    corpora = 0
    retagged = set()
    for n in range(25):
        # random words seldom recur, so half the corpora repeat a few surfaces
        corpus = random_corpus(rng) if n % 2 else recurring_surface_corpus(rng)
        global_dictionary = build_global_dictionary(corpus)
        kg_map = {s: rng.choice(kg_classes) for s in list(global_dictionary.entries)[::2]}
        base_positions = non_o_positions(corpus)
        base_entities = compute_stats(tag_counts(corpus)).entity_count
        results = dict(run_experiments(corpus, range(1, 8), kg_map, equivalences)[1])
        assert list(results) == list(range(1, 8))
        for experiment_id, result in results.items():
            assert base_positions <= non_o_positions(result), f"exp {experiment_id} overwrote"
            assert compute_stats(tag_counts(result)).entity_count >= base_entities
            if corpus_to_text(result) != corpus_to_text(corpus):
                retagged.add(experiment_id)
        once = apply_dictionary(corpus, global_dictionary)
        assert apply_dictionary(once, global_dictionary) == once, "not idempotent"
        corpora += 1
    assert retagged == set(range(1, 8)), "a law held only because an experiment changed nothing"

    # longest-first dominance on the nested-surface fixture
    city = parse_uner_label("Name-Location-GPE-City")
    nested = corpus_from_rows(
        [("d", [[("x", "B-Name-God"), ("New", "O"), ("York", "O")]])]
    )
    dominated = apply_dictionary(nested, Dictionary({"New York": city, "York": city}))
    tags = dominated.documents[0][1][0].tags
    assert tags == ["B-Name-God", "B-Name-Location-GPE-City", "I-Name-Location-GPE-City"]
    print(f"\nACCEPTANCE 7 PASS: no-overwrite, monotonicity, idempotence on {corpora} "
          f"corpora x 7 experiments, each retagging some; New York/York dominance holds")


def test_criterion_8_dictionary_filters():
    rng = random.Random(88)
    violations = 0
    checked_dictionaries = 0
    for _ in range(200):
        rows = []
        sentences = []
        for _ in range(rng.randint(1, 5)):
            surface_kind = rng.random()
            if surface_kind < 0.35:
                surface = rng.choice(["EU", "ab", "Z9", "44", "1945", "3.5", "..."])
            else:
                surface = random_word(rng, 3, 9)
            label = rng.choice(LABEL_POOL)
            tokens = [(part, ("B-" if i == 0 else "I-") + label)
                      for i, part in enumerate(surface.split(" "))]
            sentences.append(tokens)
        rows.append(("d", sentences))
        corpus = corpus_from_rows(rows)
        dictionaries, _ = run_experiments(corpus, [1, 2])  # the two dictionaries enrich saves
        for multi in (False, True):
            dictionary = dictionaries["global_multi" if multi else "global"]
            checked_dictionaries += 1
            for surface in dictionary.entries:
                if len(surface) < 3 or not any(ch.isalpha() for ch in surface):
                    violations += 1
                if multi and surface_token_count(surface) < 2:
                    violations += 1
    assert violations == 0
    print(f"\nACCEPTANCE 8 PASS: zero inadmissible surfaces across "
          f"{checked_dictionaries} built dictionaries")


def test_criterion_9_linker_cache_idempotence(tmp_path):
    # warm cache: zero requests, catalog reproduced exactly
    warm_session = FakeSession({})
    warm_client = make_client(warm_session)
    warm_cache = ClassCatalog({"2015 European Games": list(WORKED_COMPACT)})
    warm = resolve_all(["2015 European Games"], warm_cache, warm_client)
    assert warm_session.queries == []
    assert warm.entries == {"2015 European Games": WORKED_COMPACT}

    # cold cache against a mock endpoint serving the worked class list
    cold_session = FakeSession({"2015 European Games": WORKED_TYPES})
    cold_client = make_client(cold_session)
    cold_cache = ClassCatalog()
    resolved = resolve_all(["2015 European Games"], cold_cache, cold_client)
    assert resolved.entries["2015 European Games"] == WORKED_COMPACT
    path = tmp_path / "cache.tsv"
    save_catalog(cold_cache, path)
    reloaded = load_catalog(path)
    assert reloaded.entries == cold_cache.entries
    assert list(reloaded.entries["2015 European Games"]) == WORKED_COMPACT
    print("\nACCEPTANCE 9 PASS: warm cache issues zero requests; cold catalog "
          "round-trips save/load order-preserving")


def test_criterion_10_label_grammar():
    equivalences = load_equivalence_map(default_equivalence_path())
    labels = equivalences.distinct_labels()
    assert len(labels) == 124
    for label in labels:
        assert parse_uner_label(str(label)) == label
    rejected = 0
    for bad in ("Name-A-B-C-D", "Name--Event", "Foo-Event"):
        with pytest.raises(LabelParseError):
            parse_uner_label(bad)
        rejected += 1
    assert rejected == 3
    print(f"\nACCEPTANCE 10 PASS: all {len(labels)} shipped labels accepted, "
          f"{rejected} malformed labels rejected")
