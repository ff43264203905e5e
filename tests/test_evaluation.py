import io
import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    LABEL_POOL,
    brute_force_metrics,
    corpus_from_rows,
    corpus_to_text,
    oracle_eval,
    oracle_lock_step_align,
    oracle_parse_conll,
    oracle_read_checked,
    oracle_read_conll_by_lines,
    pair_counts,
    random_corpus,
    recurring_surface_corpus,
    tag_counts,
)
from test_annotator import read_outcome
from uner_pipeline import annotator
from uner_pipeline.annotator import parse_conll, read_checked
from uner_pipeline.errors import AlignmentError, DataError
from uner_pipeline.evaluation import (
    EvalReport,
    align,
    collapse_tag,
    coarse_report,
    per_tag_metrics,
    render_json,
    render_text,
    round1,
)


CONLL_A = "# doc_id = d1\nParis\tB-Name-Location-GPE-City\nis\tO\n\nnice\tO\ntown\tB-Name-Location-GPE-City\n\n"


class TestAlign:
    def test_identical_files(self):
        alignment = align(io.StringIO(CONLL_A), io.StringIO(CONLL_A))
        assert len(alignment) == 4
        assert all(gold == system for gold, system in alignment.pair_counts)

    def test_missing_token_reports_lines(self):
        broken = CONLL_A.replace("is\tO\n", "")
        with pytest.raises(AlignmentError, match="line"):
            align(io.StringIO(CONLL_A), io.StringIO(broken))

    def test_token_text_mismatch_reports_both_lines(self):
        changed = CONLL_A.replace("Paris", "London")
        with pytest.raises(AlignmentError, match="golden line 2 / system line 2"):
            align(io.StringIO(CONLL_A), io.StringIO(changed))

    def test_doc_id_mismatch(self):
        changed = CONLL_A.replace("d1", "d2")
        with pytest.raises(AlignmentError, match="document id"):
            align(io.StringIO(CONLL_A), io.StringIO(changed))

    def test_both_empty(self):
        alignment = align(io.StringIO(""), io.StringIO(""))
        assert len(alignment) == 0
        assert alignment.pair_counts == Counter()

    def test_document_count_mismatch(self):
        with pytest.raises(AlignmentError, match="document count"):
            align(io.StringIO(CONLL_A), io.StringIO(""))


def guarded_lines(text: str, stop_line: int):
    """The lines of ``text``; asking for line ``stop_line`` fails the test."""
    for line_no, line in enumerate(text.splitlines(keepends=True), start=1):
        if line_no == stop_line:
            raise AssertionError(f"line {line_no} was read")
        yield line


def header_line(text: str, doc_id: str) -> int:
    return text.splitlines().index(f"# doc_id = {doc_id}") + 1


THREE_DOCS = "".join(CONLL_A.replace("d1", f"d{n}") for n in (1, 2, 3))
# one more blank line after the first sentence of d1 shifts the system's later line numbers by one
SHIFTED = THREE_DOCS.replace("is\tO\n\n", "is\tO\n\n\n", 1)


class TestLockStep:
    @pytest.mark.parametrize(
        "system, message",
        [
            (THREE_DOCS.replace("d1", "d0", 1), "document id mismatch: golden 'd1' vs system 'd0'"),
            (
                SHIFTED.replace("nice", "fine", 1),
                "token text mismatch at golden line 5 / system line 6: 'nice' vs 'fine'",
            ),
            (
                SHIFTED.replace("town\tB-Name-Location-GPE-City\n", "", 1),
                "sentence length mismatch near golden line 5 / system line 6",
            ),
            (
                THREE_DOCS.replace("is\tO\n\n", "is\tO\n", 1),
                "document d1: golden has 2 sentences, system has 1",
            ),
        ],
        ids=["doc-id", "token-text", "sentence-length", "sentence-count"],
    )
    def test_divergence_in_document_1_is_reported_before_document_3_is_read(self, system, message):
        golden_lines = guarded_lines(THREE_DOCS, header_line(THREE_DOCS, "d3"))
        system_lines = guarded_lines(system, header_line(system, "d3"))
        with pytest.raises(AlignmentError) as excinfo:
            align(golden_lines, system_lines)
        assert str(excinfo.value) == message

    def test_document_count_mismatch_reads_the_longer_file_to_its_end(self):
        for golden, system, counts in ((THREE_DOCS, CONLL_A, (3, 1)), (CONLL_A, THREE_DOCS, (1, 3))):
            with pytest.raises(AlignmentError) as excinfo:
                align(io.StringIO(golden), io.StringIO(system))
            assert str(excinfo.value) == "document count differs: golden has %d, system has %d" % counts

    @pytest.mark.parametrize(
        "golden, system, message",
        [
            # golden breaks the layout in d3, system names d1 differently
            (
                THREE_DOCS.replace("is\tO", "is O").replace("is O", "is\tO", 2),
                THREE_DOCS.replace("d1", "d0", 1),
                "document id mismatch: golden 'd1' vs system 'd0'",
            ),
            # system lacks d3 and names d2 differently
            (
                THREE_DOCS,
                "".join(CONLL_A.replace("d1", name) for name in ("d1", "d9")),
                "document id mismatch: golden 'd2' vs system 'd9'",
            ),
        ],
        ids=["layout-after-id", "count-after-id"],
    )
    def test_with_two_faults_the_first_in_reading_order_is_reported(self, golden, system, message):
        # the lock-step pass meets faults in reading order, not those a check of whole files meets first
        with pytest.raises(DataError) as excinfo:
            align(io.StringIO(golden), io.StringIO(system))
        assert type(excinfo.value) is AlignmentError
        assert str(excinfo.value) == message


TOKEN_TEXT = st.text(alphabet="abcXYZ", min_size=1, max_size=3)
ANY_TAG = st.sampled_from(["O"] + [f"{p}-{label}" for p in "BI" for label in LABEL_POOL[:3]])
# a prefix that does not parse, an empty label, an unknown level-1 segment
BAD_TAG = st.sampled_from(["X-Name-Person-Name", "B-", "I-Unknown-Thing"])
ENTITY = st.tuples(st.sampled_from(LABEL_POOL[:3]), st.integers(1, 3))


@st.composite
def sentence_rows(draw):
    """(text, gold tag, system tag) rows. The system tags keep the IOB rules, unless the
    sentence is all O or one tag is swapped for a bad or a random one (an I- after O)."""
    system_tags = []
    for chunk in draw(st.lists(st.one_of(ENTITY, ENTITY, st.none()), min_size=1, max_size=4)):
        if chunk is None:
            system_tags.append("O")
        else:
            label, length = chunk
            system_tags += [f"B-{label}"] + [f"I-{label}"] * (length - 1)
    if draw(st.integers(0, 3)) == 0:
        system_tags[draw(st.integers(0, len(system_tags) - 1))] = draw(st.one_of(BAD_TAG, ANY_TAG))
    return [
        (draw(TOKEN_TEXT), draw(st.one_of(st.just(tag), ANY_TAG)), tag) for tag in system_tags
    ]


DOCUMENTS = st.lists(st.lists(sentence_rows(), min_size=1, max_size=3), min_size=1, max_size=4)
FAULTS = st.sampled_from(
    [None, None, None, "token-text", "drop-token", "drop-last-document", "doc-id", "iob", "iob-then-bad-tag"]
)
# three sentences of three tokens: with every system tag an I- of alternating
# labels they break the IOB rules twelve times
IOB_PREFIX_DOCUMENT = [[("v", "O", "O")] * 3] * 3


def break_iob(system_documents, bad_tag: bool) -> None:
    """Make every system tag an I- tag of alternating labels; then, if ``bad_tag``,
    make the last one a tag that does not parse."""
    for sentences in system_documents:
        for sentence in sentences:
            sentence[:] = [(text, gold, f"I-{LABEL_POOL[i % 2]}") for i, (text, gold, _) in enumerate(sentence)]
    if bad_tag:
        text, gold, _ = system_documents[-1][-1][-1]
        system_documents[-1][-1][-1] = (text, gold, "X-Name-Person-Name")


def conll_text(documents, column: int, doc_ids: list[str]) -> str:
    lines = []
    for doc_id, sentences in zip(doc_ids, documents):
        lines.append(f"# doc_id = {doc_id}\n")
        for sentence in sentences:
            lines.extend(f"{row[0]}\t{row[column]}\n" for row in sentence)
            lines.append("\n")
    return "".join(lines)


def lock_step_eval(golden: str, system: str, collapse_depth):
    """The eval path of ``cmd_eval``: (report, aligned tokens, coarse counts or the DataError)."""
    alignment = align(io.StringIO(golden), io.StringIO(system))
    report = per_tag_metrics(alignment.pair_counts, collapse_depth)
    if alignment.system_error is not None:
        return report, len(alignment), alignment.system_error
    return report, len(alignment), coarse_report(alignment.pair_counts)


def outcome(run, *args):
    try:
        report, aligned, coarse = run(*args)
    except DataError as exc:
        return type(exc), str(exc)
    if isinstance(coarse, DataError):
        coarse = (type(coarse), str(coarse))
    return report, aligned, coarse


def faulty_pair(documents, fault, data) -> tuple[str, str]:
    """The golden and the system text of ``documents``, the system one with ``fault``."""
    if fault in ("iob", "iob-then-bad-tag"):
        documents = [IOB_PREFIX_DOCUMENT] + documents
    doc_ids = [f"d{i}" for i in range(len(documents))]
    golden = conll_text(documents, 1, doc_ids)
    system_documents = [[list(sentence) for sentence in sentences] for sentences in documents]
    system_ids = list(doc_ids)
    d = data.draw(st.integers(0, len(documents) - 1))
    s = data.draw(st.integers(0, len(documents[d]) - 1))
    t = data.draw(st.integers(0, len(documents[d][s]) - 1))
    if fault == "token-text":
        text, gold_tag, system_tag = system_documents[d][s][t]
        system_documents[d][s][t] = (text + "q", gold_tag, system_tag)
    elif fault == "drop-token":
        del system_documents[d][s][t]  # an emptied sentence drops out of the file
    elif fault == "drop-last-document":
        system_documents.pop()
    elif fault == "doc-id":
        system_ids[d] = "renamed"
    elif fault in ("iob", "iob-then-bad-tag"):
        break_iob(system_documents, bad_tag=fault == "iob-then-bad-tag")
    return golden, conll_text(system_documents, 2, system_ids)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS, FAULTS, st.sampled_from([None, 1, 2]), st.data())
def test_lock_step_eval_matches_the_reference_eval(documents, fault, depth, data):
    golden, system = faulty_pair(documents, fault, data)
    expected = outcome(oracle_eval, golden, system, depth)
    assert outcome(lock_step_eval, golden, system, depth) == expected


def align_outcome(run, golden: str, system: str):
    """(pair counts, aligned tokens, the system error's type and message), or the error raised."""
    try:
        pair_counts, aligned, system_error = run(io.StringIO(golden), io.StringIO(system))
    except DataError as exc:
        return type(exc), str(exc)
    return pair_counts, aligned, system_error and (type(system_error), str(system_error))


def whole_document_align(golden, system):
    alignment = align(golden, system)
    return alignment.pair_counts, len(alignment), alignment.system_error


def line_by_line_align(golden, system):
    pair_counts, system_error = oracle_lock_step_align(golden, system)
    return pair_counts, pair_counts.total(), system_error


@settings(max_examples=500, deadline=None)
@given(DOCUMENTS, FAULTS, st.data())
def test_align_matches_the_line_by_line_align(documents, fault, data):
    golden, system = faulty_pair(documents, fault, data)
    expected = align_outcome(line_by_line_align, golden, system)
    assert align_outcome(whole_document_align, golden, system) == expected


def parse_outcome(parse, text: str, row=tuple):
    """Each document's sentences as ``row`` gives them, or the error's type and message.

    ``row`` makes a sentence (first line, token texts, tag strings).
    """
    try:
        corpus = parse(io.StringIO(text))
    except DataError as exc:
        return type(exc), str(exc)
    return [(doc_id, [row(sentence) for sentence in sentences]) for doc_id, sentences in corpus.documents]


def oracle_row(sentence):
    """An OracleSentence, (Token, OracleTag) pairs, as (first line, token texts, tag strings)."""
    texts = [token.text for token, _ in sentence.tokens]
    return sentence.first_line, texts, [str(tag) for _, tag in sentence.tokens]


LAYOUT_FAULTS = st.sampled_from(
    [None, None, "iob", "iob-then-bad-tag", "untabbed", "header-in-sentence", "token-before-header"]
)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS, LAYOUT_FAULTS, st.data())
def test_parse_conll_matches_the_reference_parse(documents, fault, data):
    if fault in ("iob", "iob-then-bad-tag"):
        documents = [IOB_PREFIX_DOCUMENT] + documents
    system_documents = [[list(sentence) for sentence in sentences] for sentences in documents]
    if fault in ("iob", "iob-then-bad-tag"):
        break_iob(system_documents, bad_tag=fault == "iob-then-bad-tag")
    text = conll_text(system_documents, 2, [f"d{i}" for i in range(len(documents))])
    lines = text.splitlines(keepends=True)
    if fault == "untabbed":
        i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if "\t" in line]))
        lines[i] = lines[i].replace("\t", " ")
    elif fault == "header-in-sentence":
        i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if "\t" in line]))
        lines.insert(i, "# doc_id = inserted\n")
    elif fault == "token-before-header":
        lines.insert(0, "stray\tO\n")
    text = "".join(lines)
    assert parse_outcome(parse_conll, text) == parse_outcome(oracle_parse_conll, text, oracle_row)
    # each document is yielded as it is read, and the IOB error only after the last one
    assert read_outcome(read_checked, io.StringIO(text)) == read_outcome(oracle_read_checked, io.StringIO(text))


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.lists(st.integers(0, 10**5), max_size=12))
def test_emitted_corpora_read_back_whole(rng, recurring, cut_points):
    corpus = recurring_surface_corpus(rng) if recurring else random_corpus(rng)
    text = corpus_to_text(corpus)
    points = sorted(point % (len(text) + 1) for point in cut_points)
    pieces = [text[i:j] for i, j in zip([0, *points], [*points, len(text)])]
    lines = text.splitlines(keepends=True)
    rows = [
        (doc_id, [list(zip(sentence.texts, sentence.tags)) for sentence in sentences])
        for doc_id, sentences in oracle_read_conll_by_lines(lines)
    ]
    for source in (lines, pieces):
        reparsed = parse_conll(source)
        assert [
            (doc_id, [list(zip(s.texts, s.tags)) for s in sentences]) for doc_id, sentences in reparsed.documents
        ] == rows
        assert corpus_to_text(reparsed) == text

    def refuse(*args):
        raise AssertionError("a clean document was walked token by token")

    # the set operations alone find a corpus clean
    with mock.patch.object(annotator, "_sentence_violations", refuse):
        alignment = align(lines, pieces)
    tags = [tag for _, sentences in rows for sentence in sentences for _, tag in sentence]
    assert alignment.pair_counts == Counter((tag, tag) for tag in tags)
    assert alignment.system_error is None
    assert (alignment.documents, alignment.sentences) == (len(rows), sum(len(s) for _, s in rows))
    assert per_tag_metrics(alignment.pair_counts).macro[2] == 100.0


class TestStrictCheckPrecedence:
    # system d1 breaks the IOB rules fourteen times; system d2 may hold a tag
    # that does not parse, on line 18
    GOLDEN = "# doc_id = d1\n" + "a\tO\n\n" * 7 + "# doc_id = d2\nb\tO\nc\tO\n\n"
    VIOLATIONS = "# doc_id = d1\n" + "a\tI-Name-God\n\n" * 7
    FIRST_FIVE = [
        "doc d1 sentence 0 token 0 ('a'): I-Name-God not preceded by B/I of the same label",
        "doc d1 sentence 0: no B tag",
        "doc d1 sentence 1 token 0 ('a'): I-Name-God not preceded by B/I of the same label",
        "doc d1 sentence 1: no B tag",
        "doc d1 sentence 2 token 0 ('a'): I-Name-God not preceded by B/I of the same label",
    ]

    @pytest.mark.parametrize("last_tag", ["Q-Name", "O"], ids=["then-bad-tag", "violations-only"])
    def test_a_later_bad_tag_beats_more_than_five_iob_violations(self, last_tag):
        system = self.VIOLATIONS + f"# doc_id = d2\nb\tB-Name-God\nc\t{last_tag}\n\n"
        if last_tag == "O":
            error = (DataError, "corpus violates IOB invariants: " + "; ".join(self.FIRST_FIVE))
        else:
            error = (DataError, "line 18: bad IOB tag 'Q-Name'")
        alignment = align(io.StringIO(self.GOLDEN), io.StringIO(system))
        assert len(alignment) == 9
        assert (type(alignment.system_error), str(alignment.system_error)) == error
        assert parse_outcome(parse_conll, system) == error
        assert outcome(oracle_eval, self.GOLDEN, system, None)[2] == error


def lazy_conll(documents: int, label: str):
    """The lines of a CoNLL file of ``documents`` documents, each made when it is read.

    Every sentence holds three four-token entities of ``label``; token texts
    differ from document to document.
    """
    for d in range(documents):
        yield f"# doc_id = d{d}\n"
        for s in range(4):
            for t in range(12):
                yield f"w{d}.{s}.{t}\t{'I' if t % 4 else 'B'}-{label}\n"
            yield "\n"


def eval_peak_bytes(documents: int) -> int:
    """Peak traced memory of ``align`` plus ``coarse_report`` over lazily made files."""
    tracemalloc.start()
    try:
        alignment = align(lazy_conll(documents, "Name-Person-Name"), lazy_conll(documents, "Name-God"))
        assert alignment.system_error is None and len(alignment) == documents * 48
        assert coarse_report(alignment.pair_counts)["Person"] == (0, 0.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_builds_no_token(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eval built a Token")

    monkeypatch.setattr(annotator.Token, "__init__", refuse)
    report, aligned, coarse = lock_step_eval(THREE_DOCS, THREE_DOCS, 2)
    assert aligned == 12 and coarse["Location"] == (6, 1.0)


def test_eval_memory_holds_one_document_of_each_file():
    assert eval_peak_bytes(400) <= 1.2 * eval_peak_bytes(100)


class TestPerTagMetrics:
    def test_hand_computed_example(self):
        # gold [B-X, O, B-Y], system [B-X, O, O]:
        #   B-X: TP=1 FP=0 FN=0 -> P=R=F1=100
        #   B-Y: TP=0 FP=0 FN=1 -> all zero -> excluded from macro
        report = per_tag_metrics(pair_counts(["B-X", "O", "B-Y"], ["B-X", "O", "O"]))
        assert report.per_tag["B-X"].precision == 100.0
        assert report.per_tag["B-X"].recall == 100.0
        assert report.per_tag["B-Y"].f1 == 0.0
        assert report.counted_tags == ["B-X"]
        assert report.macro == (100.0, 100.0, 100.0)

    def test_identity_gives_perfect_macro(self):
        gold = ["B-X", "I-X", "O", "B-Y", "O"]
        report = per_tag_metrics(pair_counts(gold, list(gold)))
        assert report.macro == (100.0, 100.0, 100.0)

    def test_collapse_merges_location_tags(self):
        report = per_tag_metrics(
            pair_counts(["B-Name-Location-GPE-City"], ["B-Name-Location-Region"]),
            collapse_depth=2,
        )
        assert set(report.per_tag) == {"B-Name-Location"}
        assert report.per_tag["B-Name-Location"].precision == 100.0
        assert report.per_tag["B-Name-Location"].recall == 100.0

    def test_o_never_in_macro(self):
        report = per_tag_metrics(pair_counts(["O", "B-X"], ["O", "B-X"]))
        assert "O" in report.per_tag
        assert "O" not in report.counted_tags

    def test_empty_pairs_rejected(self):
        with pytest.raises(DataError, match="empty"):
            per_tag_metrics(Counter())

    def test_partial_scores(self):
        # gold: B-X B-X O ; system: B-X O B-X
        # B-X: TP=1 FP=1 FN=1 -> P=50 R=50 F1=50
        report = per_tag_metrics(pair_counts(["B-X", "B-X", "O"], ["B-X", "O", "B-X"]))
        m = report.per_tag["B-X"]
        assert (m.precision, m.recall, m.f1) == (50.0, 50.0, 50.0)
        assert m.support == 2

    def test_symmetry_swap_gold_system(self):
        rng = random.Random(99)
        tags = ["O"] + [f"B-{l}" for l in LABEL_POOL] + [f"I-{l}" for l in LABEL_POOL]
        gold = [rng.choice(tags) for _ in range(60)]
        system = [rng.choice(tags) for _ in range(60)]
        forward = per_tag_metrics(pair_counts(gold, system))
        backward = per_tag_metrics(pair_counts(system, gold))
        for tag, metrics in forward.per_tag.items():
            swapped = backward.per_tag[tag]
            assert metrics.precision == swapped.recall
            assert metrics.recall == swapped.precision
            assert metrics.f1 == pytest.approx(swapped.f1)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(4242)
        tags = ["O"] + [f"B-{l}" for l in LABEL_POOL] + [f"I-{l}" for l in LABEL_POOL]
        for _ in range(200):
            n = rng.randint(1, 50)
            gold = [rng.choice(tags) for _ in range(n)]
            system = [rng.choice(tags) for _ in range(n)]
            for depth in (None, 1, 2, 3, 4):
                report = per_tag_metrics(pair_counts(gold, system), collapse_depth=depth)
                per_tag, macro, counted = brute_force_metrics(gold, system, depth)
                assert set(report.per_tag) == set(per_tag)
                for tag, expected in per_tag.items():
                    got = report.per_tag[tag]
                    assert (got.precision, got.recall, got.f1, got.support) == expected
                assert report.macro == macro
                assert report.counted_tags == counted

    def test_each_distinct_tag_is_collapsed_once(self):
        tags = ["O"] + [f"{prefix}-{label}" for prefix in "BI" for label in LABEL_POOL]
        gold = [g for g in tags for _ in tags]
        system = [s for _ in tags for s in tags]  # every (golden, system) pair once
        with mock.patch("uner_pipeline.evaluation.collapse_tag", wraps=collapse_tag) as spy:
            report = per_tag_metrics(pair_counts(gold, system), collapse_depth=2)
        assert sorted(call.args[0] for call in spy.call_args_list) == sorted(tags)
        assert "B-Name-Location" in report.per_tag

    def test_collapse_monotone_true_positives(self):
        rng = random.Random(5)
        tags = [f"B-{l}" for l in LABEL_POOL] + ["O"]
        for _ in range(50):
            n = rng.randint(1, 40)
            gold = [rng.choice(tags) for _ in range(n)]
            system = [rng.choice(tags) for _ in range(n)]
            full_tp = sum(1 for g, s in zip(gold, system) if g == s and g != "O")
            collapsed = sum(
                1
                for g, s in zip(gold, system)
                if g != "O" and s != "O" and collapse_tag(g, 1) == collapse_tag(s, 1)
            )
            assert collapsed >= full_tp


class TestCollapseTag:
    def test_depth_two(self):
        assert collapse_tag("B-Name-Location-GPE-City", 2) == "B-Name-Location"

    def test_depth_beyond_label(self):
        assert collapse_tag("B-Name-God", 3) == "B-Name-God"

    def test_o_unchanged(self):
        assert collapse_tag("O", 2) == "O"

    def test_tag_without_label_unchanged(self):
        # golden tags are not validated; a collapsed tag never gains a hyphen
        assert collapse_tag("B", 2) == "B"
        assert collapse_tag("I", 1) == "I"
        report = per_tag_metrics(pair_counts(["B", "B-Name-God"], ["B", "B-Name-God"]), collapse_depth=1)
        assert set(report.per_tag) == {"B", "B-Name"}


def test_coarse_report():
    corpus = corpus_from_rows(
        [
            (
                "d",
                [
                    [
                        ("p", "B-Name-Person-Name"),
                        ("c", "B-Name-Location-GPE-City"),
                        ("a", "B-Name-Product-Award"),
                    ]
                ],
            )
        ]
    )
    report = coarse_report({(tag, tag): count for tag, count in tag_counts(corpus).items()})
    assert report["Person"][0] == 1
    assert report["Location"][0] == 1
    assert report["Organization"][0] == 0


def test_round1_half_up():
    assert round1(37.25) == 37.3
    assert round1(37.24) == 37.2
    assert round1(0.05) == 0.1
    assert round1(100.0) == 100.0


def test_renderers_smoke():
    report = per_tag_metrics(pair_counts(["B-X", "O"], ["B-X", "O"]), collapse_depth=None)
    text = render_text(report)
    assert "macro (1 tags)\t100.0\t100.0\t100.0" in text
    assert "O\t" not in text.splitlines()[1]
    payload = render_json(report, include_o=True)
    assert '"O"' in payload
