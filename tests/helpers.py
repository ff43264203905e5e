"""Shared test utilities: corpus builders, random generators, brute-force oracles."""

from __future__ import annotations

import io
import itertools
import random
import string
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Collection, Iterable, Iterator
from urllib.parse import unquote

from uner_pipeline.annotator import (
    DOC_HEADER_PREFIX,
    AnnotatedCorpus,
    Sentence,
    Token,
    emit_conll,
    parse_conll,
)
from uner_pipeline.enrich import Dictionary, surface_is_admissible, surface_token_count
from uner_pipeline.errors import AlignmentError, DataError, LabelParseError
from uner_pipeline.evaluation import EvalReport, TagMetrics
from uner_pipeline.ingest import Document
from uner_pipeline.linker import DEFAULT_RESOURCE_BASE, ClassCatalog
from uner_pipeline.mapping import EquivalenceMap, parse_uner_label
from uner_pipeline.stats import COARSE_CLASSES, CorpusStats, coarse_class

LABEL_POOL = [
    "Name-Person-Name",
    "Name-Location-GPE-City",
    "Name-Location-Region",
    "Name-Organization-Corporation-Company",
    "Name-Event-Occasion-Game",
]


def make_sentence(pairs: list[tuple[str, str]]) -> Sentence:
    """A sentence of (token text, tag string) pairs, made as projection makes one: unchecked."""
    return Sentence(0, [text for text, _ in pairs], [tag for _, tag in pairs])


Rows = list[tuple[str, list[list[tuple[str, str]]]]]  # (doc_id, sentences of (token text, tag string))


def rows_to_text(rows: Rows) -> str:
    """Rows in CoNLL layout: a header per document, a line per token, a blank line after each sentence."""
    lines: list[str] = []
    for doc_id, sentences in rows:
        lines.append(f"{DOC_HEADER_PREFIX}{doc_id}\n")
        for sentence in sentences:
            lines.extend(f"{text}\t{tag}\n" for text, tag in sentence)
            lines.append("\n")
    return "".join(lines)


def corpus_from_rows(rows: Rows) -> AnnotatedCorpus:
    """Build a corpus from (doc_id, sentences of (token, tag))."""
    return parse_conll(io.StringIO(rows_to_text(rows)))


def corpus_rows(corpus: AnnotatedCorpus) -> Rows:
    """The rows ``corpus_from_rows`` would build ``corpus`` from."""
    return [(doc_id, [list(zip(s.texts, s.tags)) for s in sentences]) for doc_id, sentences in corpus.documents]


def corpus_to_text(corpus: AnnotatedCorpus) -> str:
    buffer = io.StringIO()
    emit_conll(corpus, buffer)
    return buffer.getvalue()


def string_sentences(corpus: AnnotatedCorpus) -> Iterator[list[tuple[str, str]]]:
    """Each sentence of a corpus as the (token text, tag string) pairs ``stats.iter_entities`` walks."""
    return (sentence for _, sentences in corpus_rows(corpus) for sentence in sentences)


def tag_counts(corpus: AnnotatedCorpus) -> Counter[str]:
    """How many tokens of the corpus carry each tag string, ``O`` included."""
    return Counter(tag for _, sentences in corpus.documents for s in sentences for tag in s.tags)


def random_word(rng: random.Random, min_len: int = 1, max_len: int = 8) -> str:
    return "".join(
        rng.choice(string.ascii_letters) for _ in range(rng.randint(min_len, max_len))
    )


def random_corpus(rng: random.Random, max_docs: int = 3) -> AnnotatedCorpus:
    """Random well-formed corpus: every sentence gets at least one entity."""
    rows = []
    for d in range(rng.randint(1, max_docs)):
        sentences = []
        for _ in range(rng.randint(1, 4)):
            n_tokens = rng.randint(1, 12)
            tokens = [random_word(rng) for _ in range(n_tokens)]
            tags = ["O"] * n_tokens
            for _ in range(rng.randint(1, 3)):
                start = rng.randrange(n_tokens)
                length = min(rng.randint(1, 3), n_tokens - start)
                if any(tags[i] != "O" for i in range(start, start + length)):
                    continue
                label = rng.choice(LABEL_POOL)
                tags[start] = f"B-{label}"
                for i in range(start + 1, start + length):
                    tags[i] = f"I-{label}"
            if all(tag == "O" for tag in tags):
                label = rng.choice(LABEL_POOL)
                tags[0] = f"B-{label}"
            sentences.append(list(zip(tokens, tags)))
        rows.append((f"doc{d}", sentences))
    return corpus_from_rows(rows)


def recurring_surface_corpus(rng: random.Random) -> AnnotatedCorpus:
    """A random corpus over a few surfaces, each tagged or left O, so they recur
    within and across documents and before and after their tagged mentions."""
    surfaces = [["Paris"], ["New", "York"], ["Obama"], ["Ann", "Lee"], ["the"], ["Rome"]]
    rows = []
    for d in range(rng.randint(1, 3)):
        sentences = []
        for _ in range(rng.randint(1, 4)):
            sentence = []
            for _ in range(rng.randint(1, 6)):
                # a sentence opens with a tagged surface, as every corpus sentence holds one
                label = rng.choice([None, None, *LABEL_POOL[:3]] if sentence else LABEL_POOL[:3])
                sentence += [
                    (word, "O" if label is None else f"{'I' if k else 'B'}-{label}")
                    for k, word in enumerate(rng.choice(surfaces))
                ]
            sentences.append(sentence)
        rows.append((f"doc{d}", sentences))
    return corpus_from_rows(rows)


def random_markup_document(rng: random.Random, labeled_targets: dict[str, str]):
    """Random markup text mixing plain words, linked spans, and noise.

    Returns (markup_text, expected-labelable target pool was given).
    """
    target_pool = list(labeled_targets) + ["Unlabeled_Page", "Another_Unknown"]
    pieces: list[str] = []
    for _ in range(rng.randint(1, 6)):
        n = rng.randint(0, 6)
        words = [random_word(rng) for _ in range(n)]
        pieces.extend(words)
        roll = rng.random()
        if roll < 0.55:
            target = rng.choice(target_pool)
            surface_words = [random_word(rng) for _ in range(rng.randint(1, 3))]
            surface = " ".join(surface_words)
            if rng.random() < 0.5:
                pieces.append(f"[[{target}|{surface}]]")
            else:
                pieces.append(f'<a href="{target}">{surface}</a>')
        elif roll < 0.65:
            pieces.append("[[")  # unclosed markup noise
        elif roll < 0.75:
            pieces.append(f'<a href="{rng.choice(target_pool)}">no close')
        if rng.random() < 0.3:
            pieces.append(rng.choice([".", "!", "?"]))
        if rng.random() < 0.2:
            pieces.append("\n\n")
    return " ".join(pieces)


def brute_force_metrics(
    gold_tags: list[str], system_tags: list[str], collapse_depth: int | None = None
):
    """Independent confusion-matrix scorer over raw tag strings.

    Walks every (tag, position) combination explicitly; returns
    (per_tag, macro, counted) with percentages at full precision.
    """

    def collapse(tag: str) -> str:
        if collapse_depth is None or tag == "O":
            return tag
        parts = tag.split("-")
        return "-".join(parts[: 1 + max(1, collapse_depth)])

    gold = [collapse(t) for t in gold_tags]
    system = [collapse(t) for t in system_tags]
    tags = sorted(set(gold) | set(system))
    per_tag = {}
    for tag in tags:
        tp = sum(1 for g, s in zip(gold, system) if g == tag and s == tag)
        fp = sum(1 for g, s in zip(gold, system) if g != tag and s == tag)
        fn = sum(1 for g, s in zip(gold, system) if g == tag and s != tag)
        precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
        recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_tag[tag] = (precision, recall, f1, tp + fn)
    counted = [t for t in tags if t != "O" and per_tag[t][:3] != (0.0, 0.0, 0.0)]
    if counted:
        macro = (
            sum(per_tag[t][0] for t in counted) / len(counted),
            sum(per_tag[t][1] for t in counted) / len(counted),
            sum(per_tag[t][2] for t in counted) / len(counted),
        )
    else:
        macro = (0.0, 0.0, 0.0)
    return per_tag, macro, counted


def pair_counts(gold_tags: list[str], system_tags: list[str]) -> Counter:
    """The (gold tag, system tag) counts that ``evaluation.align`` would return."""
    return Counter(zip(gold_tags, system_tags))


# One reference per rule of a CoNLL file: ``oracle_read_conll_by_lines`` for
# the layout, ``oracle_parse_tag`` and ``oracle_sentence_violations`` (run by
# ``OracleTagChecker``) for the tag grammar and the IOB rules,
# ``oracle_read_checked`` for the strict parse, ``oracle_lock_step_align`` for
# the pairing of two files and ``brute_force_metrics`` (above) for the scores.
# Each works a line, or a token, at a time.


def oracle_read_conll_by_lines(lines: Iterable[str]) -> Iterator[tuple[str, list[Sentence]]]:
    """Structural CoNLL reader: yields (doc_id, sentences) one document at a time.

    Validates layout only (headers, tab-separated token lines); tags are kept
    as raw strings so files with unusual tag inventories still load. A
    sentence's token lines are consecutive, so each sentence keeps only the
    line number of its first token.
    """
    doc_id: str | None = None
    sentences: list[Sentence] = []
    texts: list[str] = []
    tags: list[str] = []
    first_line = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line.startswith(DOC_HEADER_PREFIX):
            if texts:
                raise DataError(f"line {line_no}: document header inside a sentence")
            if doc_id is not None:
                yield doc_id, sentences
            doc_id = line[len(DOC_HEADER_PREFIX) :]
            sentences = []
            continue
        if not line:
            if texts:
                sentences.append(Sentence(first_line, texts, tags))
                texts, tags = [], []
            continue
        if doc_id is None:
            raise DataError(f"line {line_no}: token line before any document header")
        text, sep, tag = line.partition("\t")
        if not sep or not text or not tag:
            raise DataError(f"line {line_no}: expected 'token<TAB>tag', got {line!r}")
        if not texts:
            first_line = line_no
        texts.append(text)
        tags.append(tag)
    if texts:
        sentences.append(Sentence(first_line, texts, tags))
    if doc_id is not None:
        yield doc_id, sentences


@dataclass(frozen=True)
class OracleTag:
    """A parsed IOB tag: prefix O carries no label, B/I carry exactly one."""

    prefix: str  # "B", "I", or "O"
    label: str | None = None

    def __str__(self) -> str:
        if self.prefix == "O":
            return "O"
        return f"{self.prefix}-{self.label}"


ORACLE_O = OracleTag("O")


def oracle_parse_tag(s: str) -> OracleTag:
    """Parse ``O``, or ``B`` or ``I``, a hyphen and a UNER label; DataError otherwise."""
    if s == "O":
        return ORACLE_O
    prefix, sep, label = s.partition("-")
    if prefix not in ("B", "I") or not sep:
        raise DataError(f"bad IOB tag {s!r}")
    return OracleTag(prefix, parse_uner_label(label))


def oracle_sentence_violations(doc_id: str, s_idx: int, texts: list[str], tags: list[str]) -> Iterator[str]:
    """IOB violations of one sentence whose tag strings all parse.

    Such a tag is ``O`` or its prefix, a hyphen and its label, so two labels
    are equal exactly when the tags agree from their third character on.
    """
    previous = "O"
    saw_b = False
    for t_idx, tag in enumerate(tags):
        if tag[0] == "B":
            saw_b = True
        elif tag[0] == "I" and (previous == "O" or previous[2:] != tag[2:]):
            yield (
                f"doc {doc_id} sentence {s_idx} token {t_idx} ({texts[t_idx]!r}): "
                f"{tag} not preceded by B/I of the same label"
            )
        previous = tag
    if not saw_b:
        yield f"doc {doc_id} sentence {s_idx}: no B tag"


def oracle_document_violations(doc_id: str, sentences: list[Sentence]) -> list[str]:
    """IOB violations of one document whose tag strings all parse, in reading order."""
    return [
        violation
        for s_idx, (_, texts, tags) in enumerate(sentences)
        for violation in oracle_sentence_violations(doc_id, s_idx, texts, tags)
    ]


class OracleTagChecker:
    """The strict tag and IOB check of a CoNLL file, one document at a time.

    Each distinct tag string is parsed once; ``tags`` holds those that
    pass. The first tag that does not parse, in file order, is the error,
    and ``check`` raises it. Otherwise the document's violations are
    listed (``oracle_document_violations``) and the first five in the file
    are kept for ``iob_error``, which reports them once the whole file has
    been checked.
    """

    def __init__(self) -> None:
        self.tags: set[str] = set()
        self.violations: list[str] = []

    def check(self, doc_id: str, sentences: list[Sentence]) -> None:
        """Check one document; a tag that does not parse raises DataError naming its line."""
        tags = self.tags
        for first_line, _, sentence_tags in sentences:
            for i, tag_string in enumerate(sentence_tags):
                if tag_string not in tags:
                    try:
                        oracle_parse_tag(tag_string)
                    except DataError as exc:
                        raise DataError(f"line {first_line + i}: {exc}") from exc
                    tags.add(tag_string)
        self.violations.extend(oracle_document_violations(doc_id, sentences))
        del self.violations[5:]

    def iob_error(self) -> DataError | None:
        """The IOB error of everything checked so far, or None."""
        if not self.violations:
            return None
        return DataError("corpus violates IOB invariants: " + "; ".join(self.violations))


@dataclass
class OracleSentence:
    """A sentence as (Token, OracleTag) pairs; one read from a file keeps its first token's line.

    A corpus sentence was such a list of pairs before it held strings. Token
    offsets are made up: tokens joined by single spaces, from zero at the
    sentence's first token.
    """

    tokens: list[tuple[Token, OracleTag]]
    first_line: int = 0


def oracle_read_checked(lines: Iterable[str]) -> Iterator[tuple[str, list[Sentence]]]:
    """``oracle_read_conll_by_lines`` under one ``OracleTagChecker``: the strict read of a CoNLL stream.

    A tag that does not parse raises DataError as its document is read; the
    IOB error, if any, is raised once the last document has been yielded.
    """
    checker = OracleTagChecker()
    for doc_id, sentences in oracle_read_conll_by_lines(lines):
        checker.check(doc_id, sentences)
        yield doc_id, sentences
    error = checker.iob_error()
    if error is not None:
        raise error


def oracle_parse_conll(lines: Iterable[str]) -> AnnotatedCorpus:
    """The strict read of a CoNLL stream as a corpus of OracleSentences.

    Every token with the same tag string shares one OracleTag.
    """
    tags: dict[str, OracleTag] = {}
    corpus = AnnotatedCorpus()
    for doc_id, raw_sentences in oracle_read_checked(lines):
        sentences: list[OracleSentence] = []
        for first_line, texts, tag_strings in raw_sentences:
            pairs: list[tuple[Token, OracleTag]] = []
            offset = 0
            for text, tag_string in zip(texts, tag_strings):
                if tag_string not in tags:
                    tags[tag_string] = oracle_parse_tag(tag_string)
                end = offset + len(text)
                pairs.append((Token(text, offset, end), tags[tag_string]))
                offset = end + 1  # one space
            sentences.append(OracleSentence(pairs, first_line))
        corpus.documents.append((doc_id, sentences))
    return corpus


def oracle_objects(corpus: AnnotatedCorpus) -> AnnotatedCorpus:
    """The corpus of OracleSentences that ``oracle_parse_conll`` reads from a corpus's text."""
    return oracle_parse_conll(io.StringIO(corpus_to_text(corpus)))


def oracle_lock_step_align(
    golden: Iterable[str], system: Iterable[str]
) -> tuple[Counter[tuple[str, str]], DataError | None]:
    """Position-wise pairing of two CoNLL streams in one lock-step pass.

    The two files are read one document at a time, side by side, and each is
    read once. Document ids, sentence boundaries, and token texts must
    coincide; the first divergence aborts with both line numbers. When one
    file runs out of documents first, the rest of the other is read so that
    the error gives both document counts. Errors surface in reading order: a
    divergence in an early document is reported before a layout error or a
    count mismatch further on.

    Each system document also goes through one ``OracleTagChecker``. Its
    first DataError (a tag that does not parse, or at the end the IOB
    violations) is kept in the result, while the scoring carries on.
    """
    pair_counts: Counter[tuple[str, str]] = Counter()
    checker = OracleTagChecker()
    system_error: DataError | None = None
    golden_docs, system_docs = oracle_read_conll_by_lines(golden), oracle_read_conll_by_lines(system)
    for index, (gold_doc, sys_doc) in enumerate(zip_longest(golden_docs, system_docs)):
        if gold_doc is None or sys_doc is None:
            golden_count = index + (gold_doc is not None) + sum(1 for _ in golden_docs)
            system_count = index + (sys_doc is not None) + sum(1 for _ in system_docs)
            raise AlignmentError(
                f"document count differs: golden has {golden_count}, system has {system_count}"
            )
        (gold_id, gold_sentences), (sys_id, sys_sentences) = gold_doc, sys_doc
        if gold_id != sys_id:
            raise AlignmentError(f"document id mismatch: golden {gold_id!r} vs system {sys_id!r}")
        if len(gold_sentences) != len(sys_sentences):
            raise AlignmentError(
                f"document {gold_id}: golden has {len(gold_sentences)} sentences, "
                f"system has {len(sys_sentences)}"
            )
        for gold_sentence, sys_sentence in zip(gold_sentences, sys_sentences):
            gold_texts, sys_texts = gold_sentence.texts, sys_sentence.texts
            if len(gold_texts) != len(sys_texts):
                raise AlignmentError(
                    f"sentence length mismatch near golden line {gold_sentence.first_line} "
                    f"/ system line {sys_sentence.first_line}"
                )
            if gold_texts != sys_texts:
                i = next(i for i, (g, s) in enumerate(zip(gold_texts, sys_texts)) if g != s)
                raise AlignmentError(
                    f"token text mismatch at golden line {gold_sentence.first_line + i} / "
                    f"system line {sys_sentence.first_line + i}: {gold_texts[i]!r} vs {sys_texts[i]!r}"
                )
            pair_counts.update(zip(gold_sentence.tags, sys_sentence.tags))
        if system_error is None:
            try:
                checker.check(sys_id, sys_sentences)
            except DataError as exc:
                system_error = exc
    if system_error is None:
        system_error = checker.iob_error()
    return pair_counts, system_error


def oracle_eval(golden: str, system: str, collapse_depth: int | None = None):
    """The eval of two CoNLL texts by the references: (report, aligned tokens, coarse counts).

    The coarse counts are those of the strictly parsed system file; when the
    align found that file faulty, its DataError stands in their place.
    """
    pair_counts, system_error = oracle_lock_step_align(io.StringIO(golden), io.StringIO(system))
    if not pair_counts:
        raise DataError("nothing to score: empty pair counts")
    gold_tags, system_tags = zip(*pair_counts.elements())
    per_tag, macro, counted = brute_force_metrics(list(gold_tags), list(system_tags), collapse_depth)
    metrics = {tag: TagMetrics(*values) for tag, values in per_tag.items()}
    report = EvalReport(metrics, macro, counted, collapse_depth)
    if system_error is None:
        coarse = oracle_compute_stats(oracle_parse_conll(io.StringIO(system))).coarse_counts
    else:
        coarse = system_error
    return report, pair_counts.total(), coarse


# The stats references. ``oracle_iter_entities`` gives the entity runs of
# (text, tag) string pairs, for them and for the enrich reference;
# ``oracle_list_entities`` and ``oracle_compute_stats`` walk a corpus of
# OracleSentences (``oracle_objects``) token by token.


def oracle_iter_entities(sentences: Iterable[Iterable[tuple[str, str]]]) -> Iterator[tuple[str, str]]:
    """Yield (surface, label) for every B..I run of sentences of (token text, tag string) pairs."""
    for sentence in sentences:
        run, label = [], None  # the open run's token texts and label
        for text, tag_string in [*sentence, ("", "O")]:  # an O after the last token closes its run
            tag = oracle_parse_tag(tag_string)
            if tag.prefix == "I" and run:
                run.append(text)
                continue
            if run:
                yield " ".join(run), label
            run, label = ([text], tag.label) if tag.prefix == "B" else ([], None)


def oracle_list_entities(corpus: AnnotatedCorpus) -> list[tuple[str, str]]:
    """Distinct (surface, label) pairs, sorted by surface then label."""
    pairs = ([(token.text, str(tag)) for token, tag in s.tokens] for _, doc in corpus.documents for s in doc)
    return sorted(set(oracle_iter_entities(pairs)))


def oracle_compute_stats(
    corpus: AnnotatedCorpus, entities: list[tuple[str, str]] | None = None
) -> CorpusStats:
    """Count tokens, entities, per-tag occurrences, and coarse classes.

    ``entities`` is the corpus's ``list_entities``, when the caller has it.
    """
    stats = CorpusStats()
    tag_counts: Counter[str] = Counter()
    coarse: Counter[str] = Counter()
    for _, sentences in corpus.documents:
        for sentence in sentences:
            for _, tag in sentence.tokens:
                stats.total_tokens += 1
                if tag.prefix == "O":
                    stats.non_entity_tokens += 1
                    continue
                stats.entity_tokens += 1
                tag_counts[str(tag)] += 1
                if tag.prefix == "B":
                    stats.entity_count += 1
                    bucket = coarse_class(tag.label)
                    if bucket is not None:
                        coarse[bucket] += 1
    stats.per_tag_counts = dict(tag_counts)
    stats.coarse_counts = {
        name: (coarse[name], coarse[name] / stats.entity_count if stats.entity_count else 0.0)
        for name in COARSE_CLASSES
    }
    if entities is None:
        entities = oracle_list_entities(corpus)
    stats.distinct_entity_count = len(entities)
    assert stats.total_tokens == stats.non_entity_tokens + stats.entity_tokens
    return stats


# References for annotate and the class cache, each written from its README
# section and testing every character, token or line in turn, so keep inputs
# small: tokenizing and sentence splitting from "CoNLL output", projection from
# "Projection", and the cache from "Class lookup" over "Label scheme"'s TSV rule.


def oracle_tokenize(text: str) -> list[Token]:
    """Split ``text`` into runs of whitespace, of P or S characters and of other characters;
    each P or S character is a token, and so is each run of other characters."""

    def kind(ch: str) -> str:
        return "space" if ch.isspace() else "mark" if unicodedata.category(ch)[0] in "PS" else "word"

    tokens: list[Token] = []
    start = 0
    for run_kind, run in itertools.groupby(text, kind):
        run = "".join(run)
        if run_kind == "mark":
            tokens += [Token(ch, start + k, start + k + 1) for k, ch in enumerate(run)]
        elif run_kind == "word":
            tokens.append(Token(run, start, start + len(run)))
        start += len(run)
    return tokens


def oracle_split_sentences(text: str) -> list[tuple[int, int]]:
    """A sentence ends after a ``.``, ``!`` or ``?`` that whitespace and then an uppercase letter
    follow, and after a line break that opens a blank line; each piece is trimmed of whitespace."""

    def ends_sentence(i: int) -> bool:
        rest = text[i + 1 :]
        if text[i] in ".!?":
            return rest[:1].isspace() and rest.lstrip()[:1].isupper()
        return text[i] == "\n" and "\n" in rest and not rest.partition("\n")[0].strip()

    breaks = [i + 1 for i in range(len(text)) if ends_sentence(i)]
    pieces = [(start, text[start:end]) for start, end in zip([0, *breaks], [*breaks, len(text)])]
    return [(start + len(p) - len(p.lstrip()), start + len(p.rstrip())) for start, p in pieces if p.strip()]


def oracle_project_annotations(
    doc: Document,
    labels: dict[str, str],
    tokens: list[Token],
    sentences: list[tuple[int, int]],
    counters: Counter,
) -> list[list[tuple[str, str]]]:
    """Each span in turn tags the tokens that start before it ends and end after it starts, if its
    target has a label: those in the sentence of the first of them, B on the first still O and I on
    the other O ones. The sentences with a B tag, as (token text, tag) rows; ``counters`` gets the
    fate of each span and of each sentence."""
    home = [next((k for k, (a, b) in enumerate(sentences) if a <= t.start < b), None) for t in tokens]
    tags = ["O"] * len(tokens)
    for span in doc.links:
        if span.target not in labels:
            counters["spans_unlabeled"] += 1
            continue
        overlapping = [i for i, t in enumerate(tokens) if t.start < span.end and t.end > span.start]
        if not overlapping:
            counters["spans_without_tokens"] += 1
            continue
        kept = [i for i in overlapping if home[i] == home[overlapping[0]]]
        if kept != overlapping:
            counters["spans_truncated"] += 1
        untagged = [i for i in kept if tags[i] == "O"]
        if not untagged:
            counters["spans_shadowed"] += 1
            continue
        counters["spans_projected"] += 1
        for i in untagged:
            tags[i] = ("B-" if i == untagged[0] else "I-") + labels[span.target]
    rows = [[(t.text, tag) for t, tag, h in zip(tokens, tags, home) if h == k] for k in range(len(sentences))]
    rows = [row for row in rows if row]
    kept_rows = [row for row in rows if any(tag.startswith("B-") for _, tag in row)]
    counters["sentences_total"] += len(rows)
    counters["sentences_kept"] += len(kept_rows)
    counters["sentences_dropped"] += len(rows) - len(kept_rows)
    return kept_rows


def oracle_tsv_rows(path: str | Path) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) of each row of a TSV table. A blank line is skipped, and so is a
    comment: past its leading whitespace, tabs included, it starts with ``#`` and holds no tab. A
    row's key is what its first tab follows, and must not be empty."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.removesuffix("\n")
            content = line.lstrip()
            if not content or (content.startswith("#") and "\t" not in content):
                continue
            if "\t" not in line:
                raise DataError(f"{path}:{line_no}: expected two tab-separated columns")
            key, value = line.split("\t", 1)
            if not key:
                raise DataError(f"{path}:{line_no}: empty first column")
            yield line_no, key, value


def oracle_load_catalog(path: str | Path, keep: Collection[str] | None = None) -> ClassCatalog:
    """Each target of the cache with its class field split at commas, empty names dropped; with
    ``keep``, only those targets. A duplicate target anywhere in the file is a data error."""
    entries, seen = {}, set()
    for line_no, target, classes in oracle_tsv_rows(path):
        if target in seen:
            raise DataError(f"{path}:{line_no}: duplicate target {target!r}")
        seen.add(target)
        if keep is None or target in keep:
            entries[target] = [name for name in classes.split(",") if name]
    return ClassCatalog(entries)


# The enrich reference, written from README "Enrichment experiments" and using
# no name of ``uner_pipeline.enrich``. It works on rows and tries every surface
# at every position, so keep inputs small. Its appliers take any dictionary.

ORACLE_EXPERIMENTS = {  # README's table: id -> (local propagation first, base dictionary, kg filter)
    1: (False, "global", False),
    2: (False, "global_multi", False),
    3: (True, None, False),
    4: (False, "global", True),
    5: (False, "global_multi", True),
    6: (True, "global", True),
    7: (True, "global_multi", True),
}


def oracle_global_dictionaries(rows: Rows) -> dict[str, dict[str, str]]:
    """``global`` gives each entity surface of three or more characters, one a letter, its most
    frequent label, ties to the smallest; ``global_multi`` is its surfaces of two or more tokens,
    the texts between single spaces. Surfaces keep the order they first occur in."""
    counts: dict[str, Counter[str]] = {}
    for surface, label in oracle_iter_entities(sentence for _, sentences in rows for sentence in sentences):
        counts.setdefault(surface, Counter())[label] += 1
    whole = {
        surface: max(sorted(labels), key=labels.__getitem__)  # max keeps the first of equal counts
        for surface, labels in counts.items()
        if len(surface) >= 3 and any(ch.isalpha() for ch in surface)
    }
    return {"global": whole, "global_multi": {surface: label for surface, label in whole.items() if " " in surface}}


def oracle_filter_by_kg(entries: dict[str, str], kg_map: dict[str, str], equivalences: EquivalenceMap):
    """The entries whose surface the kg map names, retyped to its class's label, and the counters: a class
    that maps to NULL or that the table lacks drops its entry, counted; a surface the map lacks, uncounted."""
    kept, counters = {}, Counter()
    for surface in filter(kg_map.__contains__, entries):
        cls = kg_map[surface]
        if cls not in equivalences.entries:
            counters["class_not_in_equivalence"] += 1
        if equivalences.entries.get(cls) is None:
            counters["kg_entries_dropped"] += 1
        else:
            kept[surface] = equivalences.entries[cls]
    return kept, counters


def _oracle_lists(rows: Rows) -> list[tuple[str, list[tuple[list[str], list[str]]]]]:
    """Each document's sentences as (texts, tags) lists, to be retagged in place."""
    return [(doc_id, [([t for t, _ in s], [tag for _, tag in s]) for s in sentences]) for doc_id, sentences in rows]


def _oracle_rows(documents: list[tuple[str, list[tuple[list[str], list[str]]]]]) -> Rows:
    return [(doc_id, [list(zip(texts, tags)) for texts, tags in sentences]) for doc_id, sentences in documents]


def _oracle_fill(texts: list[str], tags: list[str], start: int, surface: str, label: str) -> int:
    """Retag the run at ``start`` if it is all O and spells ``surface``; the number of tokens retagged."""
    parts = surface.split(" ")
    end = start + len(parts)
    if texts[start:end] != parts or any(tag != "O" for tag in tags[start:end]):
        return 0
    tags[start:end] = [f"B-{label}"] + [f"I-{label}"] * (len(parts) - 1)
    return len(parts)


def oracle_dictionary_pass(rows: Rows, entries: dict[str, str]) -> Rows:
    """Surface by surface in (characters desc, tokens desc, lexicographic) order, each
    sentence scanned left to right: every all-O run that spells the surface is retagged."""
    documents = _oracle_lists(rows)
    order = sorted(entries, key=lambda surface: (-len(surface), -len(surface.split(" ")), surface))
    for surface, (_, sentences) in itertools.product(order, documents):
        for texts, tags in sentences:
            start = 0
            while start < len(texts):
                start += _oracle_fill(texts, tags, start, surface, entries[surface]) or 1
    return _oracle_rows(documents)


def oracle_local_pass(rows: Rows) -> Rows:
    """Forward propagation, each document read left to right with a cache of its own. An entity
    run caches its surface unless it is cached (the first label wins); an all-O run that spells
    cached surfaces takes the label of the one with the most tokens."""
    documents = _oracle_lists(rows)
    for _, sentences in documents:
        cache: dict[str, str] = {}
        for texts, tags in sentences:
            start = 0
            while start < len(tags):
                if tags[start].startswith("B-"):
                    end = start + 1
                    while end < len(tags) and tags[end].startswith("I-"):
                        end += 1
                    cache.setdefault(" ".join(texts[start:end]), tags[start][2:])
                    start = end
                    continue
                surfaces = sorted(cache, key=lambda surface: -surface.count(" "))  # most tokens first
                start += next(filter(None, (_oracle_fill(texts, tags, start, s, cache[s]) for s in surfaces)), 1)
    return _oracle_rows(documents)


def oracle_enrich(rows: Rows, experiment_ids, kg_map: dict[str, str] | None, equivalences: EquivalenceMap | None):
    """The base dictionaries the experiments use, each experiment's result rows
    by id, and the counters of its kg filter prefixed ``exp<N>_``."""
    bases, local = oracle_global_dictionaries(rows), oracle_local_pass(rows)
    results, counters = {}, Counter()
    for experiment_id in experiment_ids:
        local_first, base, kg_filter = ORACLE_EXPERIMENTS[experiment_id]
        entries = bases.get(base)
        if kg_filter:
            entries, filter_counters = oracle_filter_by_kg(entries, kg_map, equivalences)
            counters.update({f"exp{experiment_id}_{name}": count for name, count in filter_counters.items()})
        start = local if local_first else rows
        results[experiment_id] = start if entries is None else oracle_dictionary_pass(start, entries)
    used = sorted({ORACLE_EXPERIMENTS[experiment_id][1] for experiment_id in experiment_ids} - {None})
    return {base: bases[base] for base in used}, results, counters


# Readers that only the tests need, for round trips through the writers they
# invert: ``enrich.save_dictionary`` (read through ``oracle_tsv_rows``) and
# ``linker.build_entity_uri``.


def load_dictionary(path, provenance: str = "global") -> Dictionary:
    """Read a ``surface<TAB>label`` TSV; ``#`` lines without a tab are comments."""
    entries: dict[str, str] = {}
    for line_no, surface, label in oracle_tsv_rows(path):
        if surface in entries:
            raise DataError(f"{path}:{line_no}: duplicate surface {surface!r}")
        if not surface_is_admissible(surface):
            raise DataError(f"{path}:{line_no}: inadmissible surface {surface!r}")
        if provenance.endswith("_multi") and surface_token_count(surface) < 2:
            raise DataError(f"{path}:{line_no}: single-token surface in multi dictionary")
        try:
            entries[surface] = parse_uner_label(label)
        except LabelParseError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
    return Dictionary(entries, provenance)


def target_from_uri(uri: str, resource_base: str = DEFAULT_RESOURCE_BASE) -> str:
    """Inverse of build_entity_uri."""
    tail = uri[len(resource_base) + 1 :]
    return unquote(tail.replace("_", " "))
