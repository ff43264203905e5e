import itertools
import random
import string
import tracemalloc
from collections import Counter
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from helpers import (
    LABEL_POOL,
    corpus_from_rows,
    corpus_to_text,
    corpus_rows,
    load_dictionary,
    oracle_dictionary_pass,
    oracle_enrich,
    oracle_filter_by_kg,
    oracle_global_dictionaries,
    oracle_local_pass,
    random_corpus,
    recurring_surface_corpus,
    rows_to_text,
    tag_counts,
)
from uner_pipeline import cli
from uner_pipeline.annotator import AnnotatedCorpus, parse_conll
from uner_pipeline.enrich import (
    EXPERIMENTS,
    Dictionary,
    apply_dictionary,
    apply_local_dictionaries,
    application_order,
    build_global_dictionary,
    filter_by_kg,
    load_kg_map,
    run_experiments,
    save_dictionary,
    surface_is_admissible,
)
from uner_pipeline.mapping import (
    load_equivalence_map,
    default_equivalence_path,
    parse_uner_label,
)
from uner_pipeline.stats import compute_stats

EQUIVALENCES = load_equivalence_map(default_equivalence_path())
CITY = parse_uner_label("Name-Location-GPE-City")
PERSON = parse_uner_label("Name-Person-Name")


def tags_of(corpus: AnnotatedCorpus) -> list[list[str]]:
    return [sentence.tags for _, sentences in corpus.documents for sentence in sentences]


class TestBuildGlobalDictionary:
    def test_modal_label_wins(self):
        rows = [
            (
                "d",
                [[("Paris", "B-Name-Location-GPE-City")] for _ in range(3)]
                + [[("Paris", "B-Name-Person-Name")]],
            )
        ]
        dictionary = build_global_dictionary(corpus_from_rows(rows))
        assert dictionary.entries["Paris"] == CITY
        assert dictionary.provenance == "global"

    def test_tie_breaks_to_smallest_label_string(self):
        rows = [
            (
                "d",
                [
                    [("Paris", "B-Name-Person-Name")],
                    [("Paris", "B-Name-Location-GPE-City")],
                ],
            )
        ]
        dictionary = build_global_dictionary(corpus_from_rows(rows))
        # "Name-Location-GPE-City" < "Name-Person-Name"
        assert dictionary.entries["Paris"] == CITY

    def test_short_surface_excluded(self):
        rows = [("d", [[("EU", "B-Name-Organization-International_Organization")]])]
        dictionary = build_global_dictionary(corpus_from_rows(rows))
        assert "EU" not in dictionary.entries

    def test_numeric_surface_excluded(self):
        rows = [("d", [[("1945", "B-Name-Event-Historical-Event")]])]
        dictionary = build_global_dictionary(corpus_from_rows(rows))
        assert "1945" not in dictionary.entries

    def test_alphanumeric_surface_kept(self):
        rows = [("d", [[("B-52", "B-Name-Product-Vehicle-Aircraft")]])]
        corpus = corpus_from_rows(rows)
        assert "B-52" in build_global_dictionary(corpus).entries

    def test_multi_token_only(self):
        rows = [
            (
                "d",
                [
                    [("Paris", "B-Name-Location-GPE-City")],
                    [
                        ("New", "B-Name-Location-GPE-City"),
                        ("York", "I-Name-Location-GPE-City"),
                    ],
                ],
            )
        ]
        dictionaries, _ = run_experiments(corpus_from_rows(rows), [2])
        dictionary = dictionaries["global_multi"]
        assert list(dictionary.entries) == ["New York"]
        assert dictionary.provenance == "global_multi"


def test_surface_admissibility():
    assert not surface_is_admissible("EU")
    assert not surface_is_admissible("1945")
    assert not surface_is_admissible("3.5")
    assert not surface_is_admissible("...")
    assert surface_is_admissible("B-52")
    assert surface_is_admissible("Goa")


def test_application_order():
    surfaces = ["bb cc", "aaaaa", "bbbcc", "a b c", "zz"]
    # char length desc, then token count desc, then lexicographic
    assert application_order(surfaces) == ["a b c", "bb cc", "aaaaa", "bbbcc", "zz"]


class TestApplyDictionary:
    def test_longest_first_nested_surfaces(self):
        corpus = corpus_from_rows(
            [("d", [[("x", "B-Name-God"), ("New", "O"), ("York", "O")]])]
        )
        dictionary = Dictionary({"New York": CITY, "York": CITY})
        result = apply_dictionary(corpus, dictionary)
        assert tags_of(result)[0] == [
            "B-Name-God",
            "B-Name-Location-GPE-City",
            "I-Name-Location-GPE-City",
        ]

    def test_empty_dictionary_identity(self):
        corpus = corpus_from_rows([("d", [[("a", "B-Name-God"), ("b", "O")]])])
        assert apply_dictionary(corpus, Dictionary({})) == corpus

    def test_no_overwrite_of_existing_tags(self):
        corpus = corpus_from_rows([("d", [[("Paris", "B-Name-Person-Name")]])])
        result = apply_dictionary(corpus, Dictionary({"Paris": CITY}))
        assert tags_of(result)[0] == ["B-Name-Person-Name"]

    def test_input_corpus_unchanged(self):
        corpus = corpus_from_rows([("d", [[("x", "B-Name-God"), ("Paris", "O")]])])
        before = tags_of(corpus)
        apply_dictionary(corpus, Dictionary({"Paris": CITY}))
        assert tags_of(corpus) == before

    def test_idempotent(self):
        corpus = corpus_from_rows(
            [("d", [[("x", "B-Name-God"), ("New", "O"), ("York", "O"), ("York", "O")]])]
        )
        dictionary = Dictionary({"New York": CITY, "York": PERSON})
        once = apply_dictionary(corpus, dictionary)
        twice = apply_dictionary(once, dictionary)
        assert once == twice

    def test_later_longer_surface_beats_earlier_shorter(self):
        corpus = corpus_from_rows(
            [("d", [[("x", "B-Name-God"), ("a", "O"), ("bb", "O"), ("ccc", "O")]])]
        )
        result = apply_dictionary(corpus, Dictionary({"a bb": CITY, "bb ccc": PERSON}))
        assert tags_of(result)[0] == [
            "B-Name-God",
            "O",
            "B-Name-Person-Name",
            "I-Name-Person-Name",
        ]

    def test_partial_run_not_tagged(self):
        # only full, all-O runs spelling the surface match
        corpus = corpus_from_rows(
            [("d", [[("x", "B-Name-God"), ("New", "O"), ("Jersey", "O")]])]
        )
        result = apply_dictionary(corpus, Dictionary({"New York": CITY}))
        assert result == corpus


class TestApplyLocalDictionaries:
    def test_forward_propagation(self):
        corpus = corpus_from_rows(
            [
                (
                    "d",
                    [
                        [("Obama", "B-Name-Person-Name"), ("spoke", "O")],
                        [("x", "B-Name-God"), ("Obama", "O")],
                    ],
                )
            ]
        )
        result = apply_local_dictionaries(corpus)
        assert tags_of(result)[1] == ["B-Name-God", "B-Name-Person-Name"]

    def test_no_cross_document_leakage(self):
        corpus = corpus_from_rows(
            [
                ("d1", [[("Obama", "B-Name-Person-Name")]]),
                ("d2", [[("x", "B-Name-God"), ("Obama", "O")]]),
            ]
        )
        result = apply_local_dictionaries(corpus)
        assert tags_of(result)[1] == ["B-Name-God", "O"]

    def test_forward_only_no_backfill(self):
        corpus = corpus_from_rows(
            [
                (
                    "d",
                    [
                        [("x", "B-Name-God"), ("Obama", "O")],
                        [("Obama", "B-Name-Person-Name")],
                    ],
                )
            ]
        )
        result = apply_local_dictionaries(corpus)
        assert tags_of(result)[0] == ["B-Name-God", "O"]

    def test_forward_only_within_sentence(self):
        corpus = corpus_from_rows(
            [
                (
                    "d",
                    [
                        [
                            ("Obama", "O"),
                            ("met", "O"),
                            ("Obama", "B-Name-Person-Name"),
                            ("again", "O"),
                            ("Obama", "O"),
                        ]
                    ],
                )
            ]
        )
        result = apply_local_dictionaries(corpus)
        assert tags_of(result)[0] == [
            "O",
            "O",
            "B-Name-Person-Name",
            "O",
            "B-Name-Person-Name",
        ]

    def test_input_corpus_unchanged(self):
        corpus = corpus_from_rows(
            [("d", [[("Obama", "B-Name-Person-Name")], [("x", "B-Name-God"), ("Obama", "O")]])]
        )
        before = corpus_to_text(corpus)
        apply_local_dictionaries(corpus)
        assert corpus_to_text(corpus) == before

    def test_first_label_wins(self):
        corpus = corpus_from_rows(
            [
                (
                    "d",
                    [
                        [("Paris", "B-Name-Location-GPE-City")],
                        [("Paris", "B-Name-Person-Name")],
                        [("x", "B-Name-God"), ("Paris", "O")],
                    ],
                )
            ]
        )
        result = apply_local_dictionaries(corpus)
        assert tags_of(result)[2][1] == "B-Name-Location-GPE-City"

    def test_multi_token_propagation(self):
        corpus = corpus_from_rows(
            [
                (
                    "d",
                    [
                        [
                            ("Barack", "B-Name-Person-Name"),
                            ("Obama", "I-Name-Person-Name"),
                        ],
                        [
                            ("x", "B-Name-God"),
                            ("Barack", "O"),
                            ("Obama", "O"),
                        ],
                    ],
                )
            ]
        )
        result = apply_local_dictionaries(corpus)
        assert tags_of(result)[1] == [
            "B-Name-God",
            "B-Name-Person-Name",
            "I-Name-Person-Name",
        ]


class TestFilterByKg:
    def setup_method(self):
        self.equivalences = load_equivalence_map(default_equivalence_path())

    def test_intersection_and_retype(self):
        dictionary = Dictionary({"Alpha": PERSON, "Beta": PERSON})
        kg = {"Alpha": "dbo:City"}
        result = filter_by_kg(dictionary, kg, self.equivalences)
        assert list(result.entries) == ["Alpha"]
        assert str(result.entries["Alpha"]) == "Name-Location-GPE-City"
        assert result.provenance == "kg_filtered"

    def test_empty_kg_empty_dictionary(self):
        dictionary = Dictionary({"Alpha": PERSON})
        assert filter_by_kg(dictionary, {}, self.equivalences).entries == {}

    def test_null_class_dropped_and_counted(self):
        counters = Counter()
        dictionary = Dictionary({"Alpha": PERSON})
        kg = {"Alpha": "owl:Thing"}
        result = filter_by_kg(dictionary, kg, self.equivalences, counters)
        assert result.entries == {}
        assert counters["kg_entries_dropped"] == 1

    def test_unknown_class_dropped_and_counted(self):
        counters = Counter()
        dictionary = Dictionary({"Alpha": PERSON})
        kg = {"Alpha": "x:Bogus"}
        result = filter_by_kg(dictionary, kg, self.equivalences, counters)
        assert result.entries == {}
        assert counters["kg_entries_dropped"] == 1

    def test_multi_provenance_preserved(self):
        dictionary = Dictionary({"Alpha Beta": PERSON}, provenance="global_multi")
        kg = {"Alpha Beta": "dbo:Person"}
        assert filter_by_kg(dictionary, kg, self.equivalences).provenance == "kg_filtered_multi"


class TestRunExperiment:
    def setup_method(self):
        self.corpus = corpus_from_rows(
            [
                (
                    "d",
                    [
                        [
                            ("Barack", "B-Name-Person-Name"),
                            ("Obama", "I-Name-Person-Name"),
                            ("visited", "O"),
                            ("Paris", "B-Name-Location-GPE-City"),
                        ],
                        [
                            ("x", "B-Name-God"),
                            ("Barack", "O"),
                            ("Obama", "O"),
                            ("and", "O"),
                            ("Paris", "O"),
                        ],
                    ],
                )
            ]
        )
        self.kg_map = {"Barack Obama": "dbo:Person", "Paris": "dbo:City"}
        self.equivalences = load_equivalence_map(default_equivalence_path())

    def results(self, *experiment_ids):
        return dict(run_experiments(self.corpus, experiment_ids, self.kg_map, self.equivalences)[1])

    def test_experiment_1_fills_from_global(self):
        result = self.results(1)[1]
        assert tags_of(result)[1] == [
            "B-Name-God",
            "B-Name-Person-Name",
            "I-Name-Person-Name",
            "O",
            "B-Name-Location-GPE-City",
        ]

    def test_experiment_2_multi_only(self):
        result = self.results(2)[2]
        # "Paris" is single-token, so only "Barack Obama" fills
        assert tags_of(result)[1] == [
            "B-Name-God",
            "B-Name-Person-Name",
            "I-Name-Person-Name",
            "O",
            "O",
        ]

    def test_experiment_6_is_local_then_kg_dictionary(self):
        got = self.results(6)[6]
        rows = corpus_rows(self.corpus)
        kg_entries, _ = oracle_filter_by_kg(oracle_global_dictionaries(rows)["global"], self.kg_map, self.equivalences)
        expected = oracle_dictionary_pass(oracle_local_pass(rows), kg_entries)
        assert corpus_to_text(got) == rows_to_text(expected)

    def test_results_share_no_tag_lists(self):
        # the token texts are never changed, so results share them; each has its own tags
        base_before = corpus_to_text(self.corpus)
        results = self.results(3, 6)  # 6 starts from the very corpus 3 returns
        third, sixth = results[3], results[6]
        sixth_before = corpus_to_text(sixth)
        for _, sentences in third.documents:
            for sentence in sentences:
                sentence.tags.reverse()
                sentence.tags.pop()
            sentences.append(sentences[0])
        assert corpus_to_text(self.corpus) == base_before
        assert corpus_to_text(sixth) == sixth_before

    def test_experiment_1_on_fully_tagged_corpus_is_identity(self):
        corpus = corpus_from_rows([("d", [[("Paris", "B-Name-Location-GPE-City")]])])
        assert dict(run_experiments(corpus, [1])[1])[1] == corpus


def non_o_positions(corpus: AnnotatedCorpus) -> set[tuple[int, int, int, str]]:
    positions = set()
    for d, (_, sentences) in enumerate(corpus.documents):
        for s, sentence in enumerate(sentences):
            for t, tag in enumerate(sentence.tags):
                if tag != "O":
                    positions.add((d, s, t, tag))
    return positions


def test_experiment_laws_on_random_corpora():
    rng = random.Random(20250811)
    equivalences = load_equivalence_map(default_equivalence_path())
    kg_classes = ["dbo:City", "dbo:Person", "dbo:Company", "owl:Thing", "dbo:Award"]
    retagged = set()
    for n in range(30):
        # random words seldom recur, so half the corpora repeat a few surfaces
        corpus = random_corpus(rng) if n % 2 else recurring_surface_corpus(rng)
        global_dictionary = build_global_dictionary(corpus)
        kg = {surface: rng.choice(kg_classes) for surface in list(global_dictionary.entries)[::2]}
        base_positions = non_o_positions(corpus)
        base_entities = compute_stats(tag_counts(corpus)).entity_count
        results = dict(run_experiments(corpus, range(1, 8), kg, equivalences)[1])
        assert list(results) == list(range(1, 8))
        for experiment_id, result in results.items():
            # no-overwrite: original non-O tags survive unchanged
            assert base_positions <= non_o_positions(result)
            # monotonicity
            assert compute_stats(tag_counts(result)).entity_count >= base_entities
            if corpus_to_text(result) != corpus_to_text(corpus):
                retagged.add(experiment_id)
    assert retagged == set(range(1, 8)), "a law held only because an experiment changed nothing"


def test_run_experiments_matches_oracle_on_the_seven_way_fixture():
    with open(FIXTURES / "experiments" / "corpus.conll", encoding="utf-8") as fh:
        corpus = parse_conll(fh)
    kg_map = load_kg_map(FIXTURES / "experiments" / "kg_map.tsv")
    dictionaries, results = _check_against_oracle(corpus, range(1, 8), kg_map, EQUIVALENCES)
    # the pinned outputs follow the README's rules, not only today's code
    pinned = FIXTURES / "experiments" / "expected"
    for experiment_id, rows in results.items():
        assert rows_to_text(rows) == (pinned / f"corpus_exp{experiment_id}.conll").read_text(encoding="utf-8")
    assert list(dictionaries) == ["global", "global_multi"]
    for base, entries in dictionaries.items():
        assert load_dictionary(pinned / f"dictionary_{base}.tsv", base).entries == entries


def assert_same_dictionaries(dictionaries, oracle_dictionaries):
    """The same bases, each named by its provenance, with the reference's entries in the same order."""
    assert {base: (d.provenance, list(d.entries.items())) for base, d in dictionaries.items()} == {
        base: (base, list(entries.items())) for base, entries in oracle_dictionaries.items()
    }


def _check_against_oracle(corpus, experiment_ids, kg_map, equivalences):
    """run_experiments against the enrich reference; returns the reference's dictionaries and results."""
    before = corpus_to_text(corpus)
    counters = Counter()
    dictionaries, results = run_experiments(corpus, experiment_ids, kg_map, equivalences, counters)
    oracle_dictionaries, expected, expected_counters = oracle_enrich(
        corpus_rows(corpus), experiment_ids, kg_map, equivalences
    )
    assert counters == expected_counters  # complete before any result is computed
    results = dict(results)
    assert list(results) == list(expected) == list(experiment_ids)
    for experiment_id, result in results.items():
        assert corpus_to_text(result) == rows_to_text(expected[experiment_id]), experiment_id
    assert counters == expected_counters
    assert_same_dictionaries(dictionaries, oracle_dictionaries)
    assert corpus_to_text(corpus) == before
    return oracle_dictionaries, expected


def test_run_experiments_matches_oracle_on_random_corpora():
    rng = random.Random(1313)
    kg_classes = ["dbo:City", "dbo:Person", "dbo:Company", "owl:Thing", "dbo:Award", "x:Bogus"]
    for n in range(120):
        corpus = random_corpus(rng) if n % 2 else recurring_surface_corpus(rng)
        surfaces = list(build_global_dictionary(corpus).entries)
        kg = {surface: rng.choice(kg_classes) for surface in rng.sample(surfaces, len(surfaces) // 2)}
        experiment_ids = rng.sample(range(1, 8), rng.randint(1, 7))
        _check_against_oracle(corpus, experiment_ids, kg, EQUIVALENCES)


def _run_texts(corpus, experiment_ids, kg_map):
    """run_experiments' dictionaries, its result corpora as text by id, and its counters."""
    counters = Counter()
    dictionaries, results = run_experiments(corpus, experiment_ids, kg_map, EQUIVALENCES, counters)
    return dictionaries, {experiment_id: corpus_to_text(result) for experiment_id, result in results}, counters


def test_every_experiment_subset_matches_each_experiment_run_alone():
    with open(FIXTURES / "experiments" / "corpus.conll", encoding="utf-8") as fh:
        inputs = [(parse_conll(fh), load_kg_map(FIXTURES / "experiments" / "kg_map.tsv"))]
    rng = random.Random(127)
    for _ in range(3):
        corpus = recurring_surface_corpus(rng)
        surfaces = list(oracle_global_dictionaries(corpus_rows(corpus))["global"])
        inputs.append((corpus, {surface: rng.choice(["dbo:City", "dbo:Person", "owl:Thing"]) for surface in surfaces}))
    for corpus, kg_map in inputs:
        rows = corpus_rows(corpus)
        alone = {experiment_id: _run_texts(corpus, [experiment_id], kg_map) for experiment_id in EXPERIMENTS}
        for size in range(1, len(EXPERIMENTS) + 1):
            for subset in itertools.combinations(EXPERIMENTS, size):
                dictionaries, texts, counters = _run_texts(corpus, subset, kg_map)
                oracle_dictionaries, expected, expected_counters = oracle_enrich(rows, subset, kg_map, EQUIVALENCES)
                assert list(texts) == list(subset)
                for experiment_id in subset:
                    assert texts[experiment_id] == alone[experiment_id][1][experiment_id], subset
                    assert texts[experiment_id] == rows_to_text(expected[experiment_id]), subset
                assert counters == sum((alone[experiment_id][2] for experiment_id in subset), Counter())
                assert counters == expected_counters
                # exactly the bases the subset needs: for experiment 2 alone, no global dictionary to save
                bases = sorted({EXPERIMENTS[experiment_id].dictionary for experiment_id in subset} - {None})
                assert list(dictionaries) == bases
                assert_same_dictionaries(dictionaries, oracle_dictionaries)


def enrich_peak_bytes(corpus: AnnotatedCorpus, experiment_ids, out: Path, kg_map: Path) -> int:
    """Peak traced memory of one enrich stage that reads ``corpus`` and runs and writes ``experiment_ids``."""
    config = cli.RunConfig(out=out, experiments=experiment_ids, kg_map=kg_map)
    out.mkdir()
    corpus_path = out / "corpus.conll"
    corpus_path.write_text(corpus_to_text(corpus), encoding="utf-8")
    tracemalloc.start()
    try:
        cli.cmd_enrich(config, cli.Manifest(config, "enrich"), corpus_path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enrich_holds_one_result_corpus_at_a_time(tmp_path):
    rng = random.Random(2024)
    corpus = AnnotatedCorpus(
        [document for _ in range(400) for document in recurring_surface_corpus(rng).documents]
    )
    kg_map = tmp_path / "kg_map.tsv"
    kg_map.write_text("Paris\tdbo:City\nNew York\tdbo:City\nAnn Lee\tdbo:Person\nRome\towl:Thing\n", encoding="utf-8")
    alone = enrich_peak_bytes(corpus, (1,), tmp_path / "alone", kg_map)
    four = enrich_peak_bytes(corpus, (1, 2, 4, 5), tmp_path / "four", kg_map)
    assert (tmp_path / "four" / "corpus_exp1.conll").read_bytes() == (tmp_path / "alone" / "corpus_exp1.conll").read_bytes()
    assert four <= 1.2 * alone


def test_enrich_memory_is_a_small_multiple_of_the_corpus_file(tmp_path):
    # a sentence holds its token texts and tag strings, not an object per token
    rng = random.Random(2026)
    surfaces = [["Paris"], ["New", "York"], ["Obama"], ["Ann", "Lee"], ["Rome"], ["Barack", "Obama"]]
    rows = []
    for d in range(300):
        sentences = []
        for _ in range(rng.randint(3, 12)):
            sentence = []
            for k in range(rng.randint(5, 25)):
                if k and rng.random() > 0.15:  # lower-case filler, as in running text
                    sentence.append(("".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 9))), "O"))
                    continue
                # a sentence opens with an entity; a surface later on is one half the time
                label = rng.choice(LABEL_POOL) if k == 0 or rng.random() < 0.5 else None
                sentence += [
                    (word, "O" if label is None else f"{'I' if j else 'B'}-{label}")
                    for j, word in enumerate(rng.choice(surfaces))
                ]
            sentences.append(sentence)
        rows.append((f"doc{d}", sentences))
    peak = enrich_peak_bytes(corpus_from_rows(rows), (1,), tmp_path / "out", None)
    size = (tmp_path / "out" / "corpus.conll").stat().st_size
    assert size > 400_000
    assert (tmp_path / "out" / "corpus_exp1.conll").stat().st_size > size  # experiment 1 retagged some
    assert peak <= 14 * size, peak / size


def test_dictionary_save_load_round_trip(tmp_path):
    # a "#MeToo" link tokenizes to "#" and "MeToo"; its line holds a tab, so it is no comment
    dictionary = Dictionary(
        {"New York": CITY, "Paris": PERSON, "# MeToo": parse_uner_label("Name-Event")}, provenance="global"
    )
    path = tmp_path / "dict.tsv"
    save_dictionary(dictionary, path)
    loaded = load_dictionary(path, "global")
    assert loaded.entries == dictionary.entries


def test_kg_map_later_line_wins(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("Paris\tdbo:Person\nParis\tdbo:City\n", encoding="utf-8")
    assert load_kg_map(path) == {"Paris": "dbo:City"}


# Differential gate for the indexed appliers. A vocabulary this small makes
# surfaces nest, overlap and repeat; "a b" is one CoNLL token whose text holds
# a space, while the surface "a b" spells the two tokens "a" and "b".
VOCABULARY = ["a", "b", "a b", "cc", "ddd", "x"]
words = st.sampled_from(VOCABULARY)
labels = st.sampled_from(LABEL_POOL[:3])
# a sentence is a list of pieces: a plain O word, or a pre-tagged entity run
pieces = st.one_of(
    words.map(lambda word: [(word, "O")]),
    st.tuples(labels, st.lists(words, min_size=1, max_size=3)).map(
        lambda run: [(word, f"{'I' if k else 'B'}-{run[0]}") for k, word in enumerate(run[1])]
    ),
)


@st.composite
def small_corpora(draw):
    rows = []
    for d in range(draw(st.integers(1, 3))):
        sentences = []
        for _ in range(draw(st.integers(1, 4))):
            sentence = [pair for piece in draw(st.lists(pieces, max_size=8)) for pair in piece]
            if not any(tag.startswith("B-") for _, tag in sentence):
                sentence.insert(draw(st.integers(0, len(sentence))), (draw(words), f"B-{draw(labels)}"))
            sentences.append(sentence)
        rows.append((f"doc{d}", sentences))
    return corpus_from_rows(rows)


dictionaries = st.dictionaries(
    st.lists(words, min_size=1, max_size=3).map(" ".join), labels.map(parse_uner_label), max_size=8
).map(Dictionary)


@settings(max_examples=400, deadline=None)
@given(corpus=small_corpora(), dictionary=dictionaries)
@example(  # two surfaces of equal characters and tokens compete for "bb": the lexicographic tie decides
    corpus=corpus_from_rows([("doc0", [[("Ann", "B-Name-Person-Name"), ("aa", "O"), ("bb", "O"), ("cc", "O")]])]),
    dictionary=Dictionary({"aa bb": "Name-Location-GPE-City", "bb cc": "Name-Event-Occasion-Game"}),
)
def test_apply_dictionary_matches_oracle(corpus, dictionary):
    before = corpus_to_text(corpus)
    got = corpus_to_text(apply_dictionary(corpus, dictionary))
    assert got == rows_to_text(oracle_dictionary_pass(corpus_rows(corpus), dictionary.entries))
    assert corpus_to_text(corpus) == before


@settings(max_examples=400, deadline=None)
@given(corpus=small_corpora())
def test_apply_local_dictionaries_matches_oracle(corpus):
    before = corpus_to_text(corpus)
    got = corpus_to_text(apply_local_dictionaries(corpus))
    assert got == rows_to_text(oracle_local_pass(corpus_rows(corpus)))
    assert corpus_to_text(corpus) == before


graph_classes = st.sampled_from(["dbo:City", "dbo:Person", "owl:Thing", "x:Bogus"])


@settings(max_examples=300, deadline=None)
@given(
    corpus=small_corpora(),
    kg_map=st.dictionaries(st.lists(words, min_size=1, max_size=3).map(" ".join), graph_classes, max_size=6),
    order=st.permutations(range(1, 8)),
    size=st.integers(1, 7),
)
def test_run_experiments_matches_oracle(corpus, kg_map, order, size):
    _check_against_oracle(corpus, order[:size], kg_map, EQUIVALENCES)
