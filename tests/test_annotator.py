import io
import random
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from helpers import (
    corpus_from_rows,
    corpus_to_text,
    make_sentence,
    OracleTagChecker,
    oracle_document_violations,
    oracle_parse_conll,
    oracle_project_annotations,
    oracle_read_conll_by_lines,
    oracle_split_sentences,
    oracle_tokenize,
    random_corpus,
    recurring_surface_corpus,
)
from uner_pipeline import annotator
from uner_pipeline.annotator import (
    DOC_HEADER_PREFIX,
    O_TAG,
    AnnotatedCorpus,
    Sentence,
    TagChecker,
    Token,
    annotate_document,
    emit_conll,
    parse_conll,
    parse_iob_tag,
    project_annotations,
    read_conll_events,
    split_sentences,
    tokenize,
)
from uner_pipeline.errors import DataError
from uner_pipeline.ingest import Document, LinkSpan
from uner_pipeline.mapping import parse_uner_label

GAME = parse_uner_label("Name-Event-Occasion-Game")
CITY = parse_uner_label("Name-Location-GPE-City")
PERSON = parse_uner_label("Name-Person-Name")


class TestTokenize:
    def test_punctuation_isolated(self):
        assert [t.text for t in tokenize("Hello, world.")] == ["Hello", ",", "world", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_acronym_known_limitation(self):
        # every punctuation character becomes its own token, by design
        assert [t.text for t in tokenize("U.S.-based")] == ["U", ".", "S", ".", "-", "based"]

    def test_offsets_faithful(self):
        text = "a-b  ,c\n\ndéjà."
        for token in tokenize(text):
            assert text[token.start : token.end] == token.text

    def test_symbols_isolated_too(self):
        assert [t.text for t in tokenize("$5+€3")] == ["$", "5", "+", "€", "3"]


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_tokenize_reconstruction(text):
    tokens = tokenize(text)
    # tokens cover exactly the non-whitespace, non-overlapping, in order
    covered = []
    for token in tokens:
        assert token.text == text[token.start : token.end]
        assert token.text and not any(ch.isspace() for ch in token.text)
        covered.extend(range(token.start, token.end))
    assert covered == sorted(set(covered))
    outside = set(range(len(text))) - set(covered)
    assert all(text[i].isspace() for i in outside)


# characters where the regex scan and the per-character loop could part ways:
# Unicode spaces (no-break space, the \x1c separator), a combining accent,
# numbers that are not decimal digits, "_" (punctuation, yet a regex word
# character), sentence terminators, line breaks and capitals
ODD_CHARACTERS = list(" \xa0\x1c\u0301\u00bd\u2460_.!?\n\r\tAb9-")
texts_for_the_oracles = st.text(st.one_of(st.sampled_from(ODD_CHARACTERS), st.characters()), max_size=60)


@settings(max_examples=1000, deadline=None)
@given(texts_for_the_oracles)
@example("cafe\u0301 \u00bd\u2460 snake_case")  # combining accent, numbers, "_"
@example("A.\xa0B. c.\x1cD")  # breaks after Unicode spaces
@example("one\n \xa0\nTwo.\n\n\nthree")  # blank line of Unicode spaces, a run of blank lines
@example("end. ")  # terminator before trailing whitespace only
@example("x.\u0301Y")  # no whitespace after the terminator
def test_tokenize_and_split_sentences_match_oracles(text):
    assert tokenize(text) == oracle_tokenize(text)
    assert split_sentences(text) == oracle_split_sentences(text)


class TestSplitSentences:
    def test_two_sentences(self):
        text = "A b. C d."
        assert split_sentences(text) == [(0, 4), (5, 9)]

    def test_single_sentence(self):
        assert split_sentences("one sentence") == [(0, 12)]

    def test_abbreviation_limitation(self):
        # naive rule splits after "Mr." because an uppercase letter follows
        text = "Mr. X came."
        ranges = split_sentences(text)
        assert len(ranges) == 2
        assert text[slice(*ranges[0])] == "Mr."

    def test_blank_line_boundary(self):
        text = "first block\n\nsecond. block"
        ranges = split_sentences(text)
        assert [text[slice(*r)] for r in ranges] == ["first block", "second. block"]

    def test_no_split_without_uppercase(self):
        assert len(split_sentences("version 2.5 shipped")) == 1

    def test_ranges_cover_non_whitespace(self):
        text = "One two. Three!  Four?\n\nFive."
        ranges = split_sentences(text)
        for a, b in ranges:
            assert not text[a].isspace() and not text[b - 1].isspace()
        joined = "".join(text[a:b] for a, b in ranges)
        stripped = "".join(ch for ch in text if not ch.isspace())
        assert "".join(ch for ch in joined if not ch.isspace()) == stripped


class TestProjectAnnotations:
    def make(self, text, links, labels):
        doc = Document("d1", "t", text, tuple(links))
        return project_annotations(doc, labels, tokenize(text), split_sentences(text))

    def test_multi_token_span_projection(self):
        text = "the 2015 European Games began"
        sentences = self.make(text, [LinkSpan(4, 23, "2015 European Games", "G")], {"G": GAME})
        assert len(sentences) == 1
        assert sentences[0].tags == [
            "O",
            "B-Name-Event-Occasion-Game",
            "I-Name-Event-Occasion-Game",
            "I-Name-Event-Occasion-Game",
            "O",
        ]

    def test_sentence_without_entity_dropped(self):
        text = "Has the Games entity. Nothing here."
        sentences = self.make(text, [LinkSpan(8, 13, "Games", "G")], {"G": GAME})
        assert len(sentences) == 1
        assert sentences[0].texts[0] == "Has"

    def test_unlabeled_target_stays_o(self):
        text = "only Thing here"
        sentences = self.make(text, [LinkSpan(5, 10, "Thing", "T")], {})
        assert sentences == []

    def test_span_crossing_boundary_truncated(self):
        text = "He visited St. Petersburg yesterday."
        doc = Document("d1", "t", text, (LinkSpan(11, 25, "St. Petersburg", "SP"),))
        counters = Counter()
        sentences = project_annotations(
            doc, {"SP": CITY}, tokenize(text), split_sentences(text), counters
        )
        assert counters["spans_truncated"] == 1
        assert len(sentences) == 1
        texts_tags = list(zip(sentences[0].texts, sentences[0].tags))
        assert texts_tags == [
            ("He", "O"),
            ("visited", "O"),
            ("St", "B-Name-Location-GPE-City"),
            (".", "I-Name-Location-GPE-City"),
        ]

    def test_partial_token_overlap_greedy(self):
        # span covers only "aris" of token "Paris"; greedy inclusion tags it
        text = "in Paris now"
        sentences = self.make(text, [LinkSpan(4, 8, "aris", "P")], {"P": CITY})
        assert sentences[0].tags == [
            "O",
            "B-Name-Location-GPE-City",
            "O",
        ]


class TestConllRoundTrip:
    def test_layout_single_sentence(self):
        corpus = corpus_from_rows([("d7", [[("Hello", "B-Name"), ("there", "O")]])])
        out = io.StringIO()
        assert emit_conll(corpus, out) is None
        assert out.getvalue() == "# doc_id = d7\nHello\tB-Name\nthere\tO\n\n"

    def test_empty_corpus(self):
        out = io.StringIO()
        emit_conll(AnnotatedCorpus(), out)
        assert out.getvalue() == ""

    def test_round_trip_random_corpora(self):
        rng = random.Random(20240811)
        for _ in range(50):
            corpus = random_corpus(rng)
            text = corpus_to_text(corpus)
            reparsed = parse_conll(io.StringIO(text))
            assert reparsed == corpus
            assert corpus_to_text(reparsed) == text

    def test_parse_shares_one_tag_per_distinct_string(self):
        text = "# doc_id = d\na\tB-Name\nb\tO\n\nc\tB-Name\nd\tO\n\n# doc_id = e\nf\tB-Name\n\n"
        corpus = parse_conll(io.StringIO(text))
        tags = [tag for _, sentences in corpus.documents for s in sentences for _, tag in s.tokens]
        assert [str(tag) for tag in tags] == ["B-Name", "O", "B-Name", "O", "B-Name"]
        assert tags[0] is tags[2] is tags[4]
        assert tags[1] is tags[3] is O_TAG
        assert corpus_to_text(corpus) == text

    def test_parse_rejects_token_before_header(self):
        with pytest.raises(DataError, match="before any document header"):
            parse_conll(io.StringIO("tok\tO\n"))

    def test_parse_rejects_untabbed_line(self):
        with pytest.raises(DataError, match="token<TAB>tag"):
            parse_conll(io.StringIO("# doc_id = d\ntok O\n"))

    def test_parse_rejects_ill_formed_iob(self):
        bad = "# doc_id = d\na\tI-Name\n\n"
        with pytest.raises(DataError, match="IOB"):
            parse_conll(io.StringIO(bad))

    def test_parse_rejects_bad_tag(self):
        with pytest.raises(DataError):
            parse_conll(io.StringIO("# doc_id = d\na\tQ-Name\n\n"))


def view_outcome(parse, text):
    """Each document's sentences as (Token, prefix, label) triples, and the tag objects by string."""
    corpus = parse(io.StringIO(text))
    documents = [(doc_id, [s.tokens for s in sentences]) for doc_id, sentences in corpus.documents]
    tags = {}  # tag string -> the first tag object met for it
    for _, sentences in documents:
        for pairs in sentences:
            for _, tag in pairs:
                assert tags.setdefault(str(tag), tag) is tag, f"two objects for {tag}"
    triples = [
        (doc_id, [[(token, tag.prefix, tag.label) for token, tag in pairs] for pairs in sentences])
        for doc_id, sentences in documents
    ]
    return triples, tags


def test_tokens_view_gives_the_pairs_parse_conll_built():
    # the benchmark's checker and tracer read texts and tags; offsets count from each sentence's first token
    rng = random.Random(2020)
    texts = [(FIXTURES / "experiments" / "corpus.conll").read_text(encoding="utf-8")]
    texts += [corpus_to_text(random_corpus(rng, max_docs=6)) for _ in range(40)]
    texts += [corpus_to_text(recurring_surface_corpus(rng)) for _ in range(40)]
    for text in texts:
        got, got_tags = view_outcome(parse_conll, text)
        expected, expected_tags = view_outcome(oracle_parse_conll, text)
        assert got == expected
        assert got_tags.keys() == expected_tags.keys()
    assert got_tags["O"] is O_TAG


def iob_violations(doc_id, sentences):
    """The reference's IOB violations of one document, and those ``TagChecker`` keeps."""
    checker = TagChecker()
    checker.check(doc_id, sentences)
    return oracle_document_violations(doc_id, sentences), checker.violations


class TestValidateIob:
    def test_clean_corpus(self):
        corpus = corpus_from_rows(
            [("d", [[("a", "B-Name"), ("b", "I-Name"), ("c", "O")]])]
        )
        assert iob_violations(*corpus.documents[0]) == ([], [])

    def test_label_switch_flagged(self):
        sentence = make_sentence([("a", f"B-{parse_uner_label('Name-God')}"), ("b", f"I-{CITY}")])
        violations, kept = iob_violations("d", [sentence])
        assert len(violations) == 1 and "not preceded" in violations[0]
        assert kept == violations

    def test_missing_b_flagged(self):
        sentence = make_sentence([("a", "O")])
        assert iob_violations("d", [sentence]) == (["doc d sentence 0: no B tag"],) * 2


def test_parse_iob_tag():
    assert str(parse_iob_tag("O")) == "O"
    assert str(parse_iob_tag("B-Name-Location-GPE-City")) == "B-Name-Location-GPE-City"
    with pytest.raises(DataError):
        parse_iob_tag("X-Name")


def test_annotate_document_end_to_end():
    text = "The 2015 European Games were in Baku. No entities here."
    doc = Document(
        "42",
        "t",
        text,
        (LinkSpan(4, 23, "2015 European Games", "G"), LinkSpan(32, 36, "Baku", "B")),
    )
    counters = Counter()
    sentences = annotate_document(doc, {"G": GAME, "B": CITY}, counters)
    assert counters["sentences_kept"] == 1
    assert counters["sentences_dropped"] == 1
    tags = sentences[0].tags
    assert tags.count("B-Name-Event-Occasion-Game") == 1
    assert tags.count("B-Name-Location-GPE-City") == 1


# project_annotations against oracle_project_annotations, which states README
# "Projection" by scanning every token for each span: the kept sentences (token
# text, offsets, tag string) and every counter must be equal. A projected
# sentence holds token texts alone, so each token's text is given its source
# offsets before projection, and the texts of a kept sentence name the source
# tokens it holds.
LABELS = {"P": PERSON, "C": CITY}  # target "U" has no label


def project_both(text, links):
    """Project ``links`` over ``text`` with both functions: (got, expected)."""
    doc = Document("d", "t", text, tuple(LinkSpan(a, b, text[a:b], t) for a, b, t in links))
    tokens = [Token(f"{t.text}@{t.start}:{t.end}", t.start, t.end) for t in tokenize(text)]
    sentences = split_sentences(text)
    counters = Counter()
    annotated = project_annotations(doc, LABELS, tokens, sentences, counters)
    got = ([list(zip(s.texts, s.tags)) for s in annotated], counters)
    counters = Counter()
    expected = (oracle_project_annotations(doc, LABELS, tokens, sentences, counters), counters)
    return got, expected


PINNED_TEXT = "Ann Bob Cid went home. Dan saw St. Petersburg."


@pytest.mark.parametrize(
    "links, counter",
    [
        ([(4, 11, "P")], "spans_projected"),  # ends on a token boundary
        ([(0, 6, "P")], "spans_projected"),  # ends inside "Bob"
        ([(3, 4, "P")], "spans_without_tokens"),  # whitespace only
        ([(17, 26, "C")], "spans_truncated"),  # "home. Dan" crosses a break
        ([(17, 26, "C"), (27, 30, "P")], "spans_truncated"),  # "Dan" stays O in a kept sentence
        ([(0, 11, "P"), (4, 7, "C")], "spans_shadowed"),  # fully shadowed
        ([(0, 7, "P"), (4, 11, "C")], "spans_projected"),  # partly shadowed
        ([(4, 7, "C"), (0, 11, "P")], "spans_projected"),  # unsorted
        ([(7, 4, "P")], "spans_without_tokens"),  # end < start
        ([(5, 5, "P")], "spans_projected"),  # empty, inside "Bob": greedy
        ([(0, 3, "U")], "spans_unlabeled"),
    ],
)
def test_project_annotations_pinned_cases_match_oracle(links, counter):
    (got_rows, got_counters), expected = project_both(PINNED_TEXT, links)
    assert (got_rows, got_counters) == expected
    assert got_counters[counter] >= 1


# capitalized words after "." and "!" and blank lines make sentence breaks
WORDS = ["Ann", "Bob", "cid", "went", "St", "x"]
SEPARATORS = [" ", " ", "  ", ". ", "! ", ".\n", "\n\n", ", ", "-"]


@st.composite
def texts_with_links(draw):
    words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=10))
    text = words[0] + "".join(draw(st.sampled_from(SEPARATORS)) + word for word in words[1:])
    text += draw(st.sampled_from(["", ".", " !"]))
    tokens = tokenize(text)
    gaps = [m.span() for m in re.finditer(r"\s+", text)]
    links = []
    # drawn in any order, so spans come unsorted, nested, overlapping and shadowed
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["tokens", "inside", "whitespace", "raw"]))
        first = draw(st.integers(0, len(tokens) - 1))
        last = draw(st.integers(first, min(first + 4, len(tokens) - 1)))
        if kind == "tokens":  # from a token start to a token end, maybe across a break
            start, end = tokens[first].start, tokens[last].end
        elif kind == "inside":  # may start and end inside a token
            start = draw(st.integers(tokens[first].start, tokens[first].end - 1))
            end = draw(st.integers(tokens[last].start + 1, tokens[last].end))
        elif kind == "whitespace" and gaps:
            start, end = draw(st.sampled_from(gaps))
        else:  # anything, including end <= start and offsets past the text
            start = draw(st.integers(-1, len(text) + 1))
            end = draw(st.integers(-1, len(text) + 1))
        links.append((start, end, draw(st.sampled_from(["P", "C", "U"]))))
    return text, links


@settings(max_examples=500, deadline=None)
@given(texts_with_links())
def test_project_annotations_matches_oracle(case):
    text, links = case
    got, expected = project_both(text, links)
    assert got == expected


WORD = st.text(alphabet="ab#", min_size=1, max_size=3)
PLAIN_TAG = st.sampled_from(["O", "B-Name-Person-Name", "I-Name-Person-Name"])
# what a line may hold besides its tabs: line breaks other than \n, a lone
# surrogate, and the characters of a header
HOSTILE_CHARS = "a#-= \r\x85\u2028\ud800"
HOSTILE_LINE = st.one_of(
    st.sampled_from(["", " ", "\r", "\x85", "\t", "# doc_id =", DOC_HEADER_PREFIX]),
    # no tab, two tabs, empty cells
    st.lists(st.text(HOSTILE_CHARS, max_size=3), max_size=4).map("\t".join),
    # a header anywhere: inside a sentence, after a blank line, before it all
    st.text(HOSTILE_CHARS + "\t", max_size=3).map(DOC_HEADER_PREFIX.__add__),
)


@st.composite
def hostile_conll(draw):
    """CoNLL text in the layout emit_conll writes, with hostile lines put in anywhere,
    ending in a newline or not."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        lines.append(DOC_HEADER_PREFIX + draw(st.text("ab#\t ", max_size=3)))
        for _ in range(draw(st.integers(0, 3))):
            rows = draw(st.lists(st.tuples(WORD, PLAIN_TAG), min_size=1, max_size=4))
            lines += [f"{word}\t{tag}" for word, tag in rows] + [""]
    for line in draw(st.lists(HOSTILE_LINE, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    text = "".join(line + "\n" for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


def read_outcome(read, source):
    """The documents a reader yields, and the message of the DataError that stopped it, or None."""
    documents = []
    try:
        for document in read(source):
            documents.append(document)
    except DataError as exc:
        return documents, str(exc)
    return documents, None


@settings(max_examples=500, deadline=None)
@given(hostile_conll(), st.lists(st.integers(0, 1000), max_size=8), st.integers(1, 16))
# a line without a tab and one with two hold as many tabs as there are token lines
@example("# doc_id = d\na\tO\nb\nc\tO\tO\n\n", [], 3)
@example("# doc_id = d\na\tO\tO\nb\n\n# doc_id = e\n", [], 3)
def test_reader_matches_the_line_by_line_reader_however_the_text_is_cut(text, cut_points, block):
    # the per-line reader over the lines a text file gives: split at \n only
    expected = read_outcome(oracle_read_conll_by_lines, io.StringIO(text))
    points = sorted(point % (len(text) + 1) for point in cut_points)
    cuts = {
        "lines": list(io.StringIO(text)),
        "splitlines": text.splitlines(keepends=True),
        "characters": list(text),
        "random pieces": [text[i:j] for i, j in zip([0, *points], [*points, len(text)])],
    }
    for name, pieces in cuts.items():
        assert read_outcome(read_conll_events, pieces) == expected, name
    assert read_outcome(read_conll_events, io.StringIO(text)) == expected, "one block"
    with mock.patch.object(annotator, "READ_BLOCK", block):
        assert read_outcome(read_conll_events, io.StringIO(text)) == expected, f"blocks of {block}"


def test_reader_reads_a_file_in_blocks(tmp_path):
    path = tmp_path / "corpus.conll"
    text = corpus_to_text(random_corpus(random.Random(7), max_docs=40))
    path.write_text(text, encoding="utf-8")
    with (
        open(path, encoding="utf-8") as fh,
        mock.patch.object(annotator, "READ_BLOCK", 100),
        mock.patch.object(fh, "read", wraps=fh.read) as read,
    ):
        documents = list(read_conll_events(fh))
    assert documents == list(oracle_read_conll_by_lines(io.StringIO(text)))
    assert read.call_count == -(-len(text) // 100) + 1  # the last read returns ""
    assert all(call.args == (100,) for call in read.call_args_list)


@pytest.mark.parametrize("cut", ["stream", "lines", "characters"])
def test_the_layout_emit_conll_writes_is_never_read_line_by_line(monkeypatch, cut):
    def refuse(document, header_line, last):
        raise AssertionError(f"the document at line {header_line} was read line by line")

    monkeypatch.setattr(annotator, "_read_by_lines", refuse)
    text = corpus_to_text(random_corpus(random.Random(11), max_docs=6))
    # blank lines before the first header, and documents without a sentence
    text = "\n\n# doc_id = empty\n" + text + "# doc_id = last\n"
    source = {"stream": io.StringIO(text), "lines": io.StringIO(text).readlines(), "characters": list(text)}[cut]
    documents = list(read_conll_events(source))
    assert documents == list(oracle_read_conll_by_lines(io.StringIO(text)))
    assert len(documents) > 3


@pytest.mark.parametrize("cut", ["stream", "lines", "characters"])
def test_one_document_in_another_layout_is_the_only_one_read_line_by_line(monkeypatch, cut):
    split, by_lines = annotator._split_plain_document, annotator._read_by_lines
    split_results, by_lines_headers = [], []

    def spy_split(document, header_line):
        split_results.append(split(document, header_line))
        return split_results[-1]

    def spy_by_lines(*args):
        by_lines_headers.append(args[1])  # the line of the document's header
        return by_lines(*args)

    # the first document has an extra blank line; the rest are in emit_conll's layout
    first = "# doc_id = first\na\tB-Name\n\n\nb\tB-Name\n\n"
    rest = corpus_to_text(random_corpus(random.Random(5), max_docs=6)) + "# doc_id = last\n"
    text = first + rest
    monkeypatch.setattr(annotator, "_split_plain_document", spy_split)
    monkeypatch.setattr(annotator, "_read_by_lines", spy_by_lines)
    source = {"stream": io.StringIO(text), "lines": io.StringIO(text).readlines(), "characters": list(text)}[cut]
    documents = list(read_conll_events(source))
    assert documents == list(oracle_read_conll_by_lines(io.StringIO(text)))
    assert len(documents) == 1 + rest.count(DOC_HEADER_PREFIX) > 2
    assert split_results[0] is None and by_lines_headers == [1]
    assert len(split_results) == len(documents) and None not in split_results[1:]


# two labels, so that an I tag can follow a B or I tag of the other label, and
# a tag that does not parse
CHECKED_TAG = st.sampled_from(
    ["O", "O", "B-Name-God", "I-Name-God", "B-Name-Person-Name", "I-Name-Person-Name", "Q-Name-God"]
)


def check_outcome(checker, documents):
    """Check each document in turn: (violations kept, parsed tags, the DataError raised or the IOB one)."""
    error = None
    first_line = 1
    for d, tag_lists in enumerate(documents):
        sentences = []
        for tags in tag_lists:
            sentences.append(Sentence(first_line, [f"w{i}" for i in range(len(tags))], tags))
            first_line += len(tags) + 1
        try:
            checker.check(f"d{d}", sentences)
        except DataError as exc:
            error = exc
            break
    error = error or checker.iob_error()
    return checker.violations, sorted(checker.tags), error and str(error)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.lists(st.lists(CHECKED_TAG, min_size=1, max_size=6), max_size=4), max_size=5))
def test_tag_checker_matches_the_token_by_token_checker(documents):
    assert check_outcome(TagChecker(), documents) == check_outcome(OracleTagChecker(), documents)
