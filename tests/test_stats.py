import io
import random

from helpers import (
    corpus_from_rows,
    corpus_to_text,
    oracle_compute_stats,
    oracle_list_entities,
    oracle_objects,
    random_corpus,
    recurring_surface_corpus,
    string_sentences,
    tag_counts,
)
from uner_pipeline.annotator import AnnotatedCorpus, parse_conll
from uner_pipeline.stats import compute_stats, list_entities, read_stats, render_json, render_text


def one_sentence_corpus():
    return corpus_from_rows(
        [("d", [[("a", "O"), ("b", "B-Name-Person-Name"), ("c", "I-Name-Person-Name")]])]
    )


class TestComputeStats:
    def test_counting_definition(self):
        corpus = one_sentence_corpus()
        stats = compute_stats(tag_counts(corpus), list_entities(string_sentences(corpus)))
        assert stats.total_tokens == 3
        assert stats.entity_tokens == 2
        assert stats.non_entity_tokens == 1
        assert stats.entity_count == 1
        assert stats.distinct_entity_count == 1

    def test_empty_corpus(self):
        stats = compute_stats(tag_counts(AnnotatedCorpus()))
        assert stats.total_tokens == 0
        assert stats.entity_tokens == 0
        assert stats.entity_count == 0
        assert stats.coarse_counts["Person"] == (0, 0.0)

    def test_identity_and_grep_oracle_on_random_corpora(self):
        rng = random.Random(7)
        for _ in range(100):
            corpus = random_corpus(rng)
            stats = compute_stats(tag_counts(corpus), list_entities(string_sentences(corpus)))
            assert stats.total_tokens == stats.non_entity_tokens + stats.entity_tokens
            text = corpus_to_text(corpus)
            b_lines = sum(1 for line in text.splitlines() if "\tB-" in line)
            i_lines = sum(1 for line in text.splitlines() if "\tI-" in line)
            assert stats.entity_count == b_lines
            assert stats.entity_tokens == b_lines + i_lines
            assert stats.distinct_entity_count == len(list_entities(string_sentences(corpus)))
            b_by_tag = sum(c for tag, c in stats.per_tag_counts.items() if tag.startswith("B-"))
            assert b_by_tag == stats.entity_count

    def test_coarse_classes(self):
        corpus = corpus_from_rows(
            [
                (
                    "d",
                    [
                        [
                            ("p", "B-Name-Person-Name"),
                            ("l", "B-Name-Location-GPE-City"),
                            ("l2", "B-Name-Location-Region"),
                            ("o", "B-Name-Organization-Corporation-Company"),
                            ("x", "B-Name-Product-Award"),
                        ]
                    ],
                )
            ]
        )
        stats = compute_stats(tag_counts(corpus))
        assert stats.coarse_counts["Person"] == (1, 0.2)
        assert stats.coarse_counts["Location"] == (2, 0.4)
        assert stats.coarse_counts["Organization"] == (1, 0.2)

    def test_fictional_character_not_coarse_person(self):
        # Person is the exact Name-Person-Name label, not the Person family
        corpus = corpus_from_rows([("d", [[("x", "B-Name-Person-Fictional_Character")]])])
        assert compute_stats(tag_counts(corpus)).coarse_counts["Person"] == (0, 0.0)


    def test_distinct_entity_count_needs_the_entities(self):
        stats = compute_stats(tag_counts(one_sentence_corpus()))
        assert stats.entity_count == 1
        assert stats.distinct_entity_count is None

    def test_matches_the_token_by_token_count(self):
        rng = random.Random(8)
        for _ in range(200):
            corpus = random_corpus(rng)
            entities = list_entities(string_sentences(corpus))
            expected = oracle_compute_stats(oracle_objects(corpus), entities)
            assert compute_stats(tag_counts(corpus), entities) == expected


class TestListEntities:
    def test_duplicates_collapse(self):
        corpus = corpus_from_rows(
            [
                (
                    "d",
                    [
                        [("Paris", "B-Name-Location-GPE-City")],
                        [("Paris", "B-Name-Location-GPE-City")],
                    ],
                )
            ]
        )
        assert len(list_entities(string_sentences(corpus))) == 1

    def test_pair_distinctness(self):
        corpus = corpus_from_rows(
            [
                (
                    "d",
                    [
                        [("Paris", "B-Name-Location-GPE-City")],
                        [("Paris", "B-Name-Person-Name")],
                    ],
                )
            ]
        )
        entities = list_entities(string_sentences(corpus))
        assert len(entities) == 2
        assert [surface for surface, _ in entities] == ["Paris", "Paris"]

    def test_multi_token_surface_joined_with_spaces(self):
        corpus = corpus_from_rows(
            [("d", [[("New", "B-Name-Location-GPE-City"), ("York", "I-Name-Location-GPE-City")]])]
        )
        assert list_entities(string_sentences(corpus))[0][0] == "New York"

    def test_empty(self):
        assert list_entities(string_sentences(AnnotatedCorpus())) == []

    def test_sorted_by_surface_then_label(self):
        corpus = corpus_from_rows(
            [
                (
                    "d",
                    [
                        [("b", "B-Name-Person-Name")],
                        [("a", "B-Name-Person-Name")],
                        [("a", "B-Name-God")],
                    ],
                )
            ]
        )
        entities = [(s, str(l)) for s, l in list_entities(string_sentences(corpus))]
        assert entities == [
            ("a", "Name-God"),
            ("a", "Name-Person-Name"),
            ("b", "B-Name-Person-Name".removeprefix("B-")),
        ]


def test_renderers_smoke():
    corpus = one_sentence_corpus()
    stats = compute_stats(tag_counts(corpus), list_entities(string_sentences(corpus)))
    text = render_text(stats)
    assert "total_tokens\t3" in text
    assert "B-Name-Person-Name\t1" in text
    payload = render_json(stats)
    assert '"entity_count": 1' in payload


def test_read_stats_matches_the_stats_of_the_parsed_corpus():
    # strings read one document at a time give the stats and entities of the object corpus
    rng = random.Random(1919)
    for i in range(300):
        corpus = recurring_surface_corpus(rng) if i % 2 else random_corpus(rng)
        text = corpus_to_text(corpus)
        parsed = parse_conll(io.StringIO(text))
        objects = oracle_objects(parsed)
        entities = oracle_list_entities(objects)
        expected = compute_stats(tag_counts(parsed), entities)
        assert expected == oracle_compute_stats(objects)
        for lines in (io.StringIO(text), text.splitlines(keepends=True)):
            report, read_entities = read_stats(lines)
            assert read_entities == entities
            assert report == expected
            assert render_json(report) == render_json(expected)
        assert list_entities(string_sentences(parsed)) == entities
