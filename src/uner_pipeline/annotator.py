"""Tokenization, sentence splitting, IOB projection, and CoNLL serialization.

Tokens are whitespace-delimited chunks with every punctuation or symbol
character isolated into its own token; offsets always address the source
text. Sentences are split by a deliberately simple rule (terminator followed
by whitespace and an uppercase letter, or a blank line): determinism matters
more here than linguistic perfection, and the known abbreviation errors are
fixture-documented. Both scan the text with compiled regular expressions;
the tokenizer loops over characters only inside a chunk that is not all
letters and digits. Projection tags every token a link span overlaps
(greedy inclusion), truncates a span at a sentence break, counts what became
of each span, and finds each span's tokens by bisection, so it runs in
O((tokens + spans) x log tokens). Only sentences carrying at least one B tag
survive projection. A corpus sentence is its token texts and its tag strings,
as a CoNLL file holds them: projection writes them, ``emit_conll`` joins them.

Reading CoNLL back is split in two. ``read_conll_events`` checks the layout
and yields each document's sentences. ``TagChecker`` applies the tag grammar
and the IOB rules to those tag strings, checking each distinct tag once.
``read_checked`` is the reader under the checker: ``parse_conll`` keeps what
it yields and ``stats`` counts it, while ``evaluation`` runs the checker
itself so that it can go on scoring after an error. Both work on whole
documents: the reader reads a file in blocks, cuts it at header lines and
splits each document in the layout ``emit_conll`` writes with a few string
operations, reading any other document line by line; the checker tests a
document with set operations and walks its tokens only when it may break a
rule.
"""

from __future__ import annotations

import re
import unicodedata
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, groupby, islice
from operator import itemgetter
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import DataError
from .ingest import Document
from .mapping import parse_uner_label

# ``\s`` is exactly ``str.isspace()``; tests check every code point
_CHUNK = re.compile(r"\S+")
# a terminator before whitespace, capturing the first character after it, or
# a newline that ends a blank (whitespace-only) line
_BREAK_CANDIDATE = re.compile(r"[.!?](?=\s+(\S))|\n(?=[^\S\n]*\n)")

DOC_HEADER_PREFIX = "# doc_id = "


class Token(NamedTuple):
    """Non-empty text chunk at [start, end) in the document text."""

    text: str
    start: int
    end: int


@dataclass(frozen=True)
class IobTag:
    """IOB tag of the ``Sentence.tokens`` view: prefix O carries no label, B/I carry exactly one."""

    prefix: str  # "B", "I", or "O"
    label: str | None = None

    def __str__(self) -> str:
        if self.prefix == "O":
            return "O"
        return f"{self.prefix}-{self.label}"


O_TAG = IobTag("O")


def _check_tag(s: str) -> None:
    """Raise DataError unless ``s`` is ``O``, or ``B`` or ``I``, a hyphen and a UNER label."""
    if s != "O":
        prefix, sep, rest = s.partition("-")
        if prefix not in ("B", "I") or not sep:
            raise DataError(f"bad IOB tag {s!r}")
        parse_uner_label(rest)


@cache
def parse_iob_tag(s: str) -> IobTag:
    """Parse a tag string like ``O`` or ``B-Name-Location-GPE-City``; one IobTag per distinct string."""
    _check_tag(s)
    return O_TAG if s == "O" else IobTag(s[0], s[2:])


class Sentence(NamedTuple):
    """One corpus sentence: token ``i`` is ``texts[i]``, tagged with the string ``tags[i]``.

    Token ``i`` of a sentence read from a CoNLL file is on line
    ``first_line + i``; a projected sentence has 0. Texts are never changed,
    so copies may share them.
    """

    first_line: int
    texts: list[str]
    tags: list[str]

    @property
    def tokens(self) -> list[tuple[Token, IobTag]]:
        """The sentence as (Token, IobTag) pairs; read-only.

        Offsets are made up: tokens joined by single spaces, from zero at the
        sentence's first token. Each distinct tag string gives one shared
        IobTag. Only the benchmark's checker and tracer read this view, for
        token texts and tags. Once they read CoNLL with a reader of their own
        (ROADMAP item 1), it goes, with ``IobTag``, ``O_TAG`` and
        ``parse_iob_tag``.
        """
        pairs = []
        offset = 0
        for text, tag in zip(self.texts, self.tags):
            end = offset + len(text)
            pairs.append((Token(text, offset, end), parse_iob_tag(tag)))
            offset = end + 1  # one space
        return pairs


@dataclass
class AnnotatedCorpus:
    """Documents (id, sentences) in deterministic input order."""

    documents: list[tuple[str, list[Sentence]]] = field(default_factory=list)


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def tokenize(text: str) -> list[Token]:
    """Whitespace-split, then isolate each punctuation/symbol character.

    Offset-faithful: every token's text equals the source substring at its
    offsets, so tokens plus the original whitespace reproduce the text. A
    chunk of letters and digits only is one token as it stands (no P or S
    character is alphanumeric); any other chunk is split character by
    character.
    """
    tokens: list[Token] = []
    for chunk in _CHUNK.finditer(text):
        word = chunk.group()
        i, n = chunk.span()
        if word.isalnum():
            tokens.append(Token(word, i, n))
            continue
        while i < n:
            if _is_punct(text[i]):
                tokens.append(Token(text[i], i, i + 1))
                i += 1
                continue
            j = i + 1
            while j < n and not _is_punct(text[j]):
                j += 1
            tokens.append(Token(text[i:j], i, j))
            i = j
    return tokens


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Sentence ranges covering all non-whitespace text, in order.

    Boundaries fall after ``.``, ``!``, ``?`` followed by whitespace and an
    uppercase letter, and at blank lines. Returned ranges are trimmed of
    surrounding whitespace and never overlap.
    """
    n = len(text)
    # positions where a new sentence may start
    breaks = [
        match.start() + 1
        for match in _BREAK_CANDIDATE.finditer(text)
        if match.group(1) is None or match.group(1).isupper()
    ]
    ranges: list[tuple[int, int]] = []
    start = 0
    for brk in breaks + [n]:
        piece_start, piece_end = start, brk
        while piece_start < piece_end and text[piece_start].isspace():
            piece_start += 1
        while piece_end > piece_start and text[piece_end - 1].isspace():
            piece_end -= 1
        if piece_start < piece_end:
            ranges.append((piece_start, piece_end))
        start = brk
    return ranges


def project_annotations(
    doc: Document,
    labels: dict[str, str],
    tokens: list[Token],
    sentences: list[tuple[int, int]],
    counters: Counter | None = None,
) -> list[Sentence]:
    """Project link spans onto tokens as B/I tags, keep entity sentences only.

    A token overlapping a labeled span counts as inside the entity (greedy
    inclusion); the first overlapping token still untagged gets B, the rest I.
    A span keeps only its tokens in the sentence of its first token: one
    crossing a sentence break is truncated there. Each span lands in exactly
    one of ``spans_unlabeled`` (its target has no label),
    ``spans_without_tokens``, ``spans_shadowed`` (every token it keeps is
    already tagged) and ``spans_projected`` (it tagged at least one token);
    ``spans_truncated`` also counts truncated spans of the last two kinds.

    Tokens come in order and never overlap, so their starts and ends are both
    sorted: a span's tokens and its sentence's prefix of them are found by
    bisection, and the sentences are grouped in one pass. The cost is
    O((tokens + spans) x log tokens), plus the tokens the spans cover.
    """
    counters = counters if counters is not None else Counter()
    starts = [token.start for token in tokens]
    ends = [token.end for token in tokens]
    sentence_ends = [end for _, end in sentences]
    # non-decreasing; len(sentences) marks a token after the last sentence
    sentence_of_token = [bisect_right(sentence_ends, start) for start in starts]
    tags = ["O"] * len(tokens)
    b_sentences: set[int] = set()  # the sentences given a B tag

    for span in doc.links:
        label = labels.get(span.target)
        if label is None:
            counters["spans_unlabeled"] += 1
            continue
        # the overlapping tokens are [lo, hi): end > span.start and start < span.end
        lo = bisect_right(ends, span.start)
        hi = bisect_left(starts, span.end)
        if hi <= lo:
            counters["spans_without_tokens"] += 1
            continue
        home_end = bisect_right(sentence_of_token, sentence_of_token[lo], lo, hi)
        if home_end != hi:
            counters["spans_truncated"] += 1
        untagged = [i for i in range(lo, home_end) if tags[i] == "O"]
        if not untagged:
            counters["spans_shadowed"] += 1
            continue
        counters["spans_projected"] += 1
        b_tag, i_tag = "B-" + label, "I-" + label
        tags[untagged[0]] = b_tag
        b_sentences.add(sentence_of_token[lo])
        for i in untagged[1:]:
            tags[i] = i_tag

    result: list[Sentence] = []
    lo = 0
    while lo < len(tokens) and sentence_of_token[lo] < len(sentences):
        hi = bisect_right(sentence_of_token, sentence_of_token[lo], lo)
        counters["sentences_total"] += 1
        if sentence_of_token[lo] in b_sentences:
            counters["sentences_kept"] += 1
            result.append(Sentence(0, [token.text for token in tokens[lo:hi]], tags[lo:hi]))
        else:
            counters["sentences_dropped"] += 1
        lo = hi
    return result


def annotate_document(
    doc: Document, labels: dict[str, str], counters: Counter | None = None
) -> list[Sentence]:
    """Tokenize, split, and project one document."""
    tokens = tokenize(doc.text)
    sentences = split_sentences(doc.text)
    return project_annotations(doc, labels, tokens, sentences, counters)


def _sentence_violations(doc_id: str, s_idx: int, texts: list[str], tags: list[str]) -> Iterator[str]:
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


def emit_conll(corpus: AnnotatedCorpus, writer: IO[str]) -> None:
    """Write the corpus in CoNLL layout.

    Per document: a ``# doc_id = <id>`` header, one ``token<TAB>tag`` line per
    token, and a blank line after every sentence. Each document is one write;
    annotate calls this once per document, with a corpus of that one.
    """
    for doc_id, sentences in corpus.documents:
        lines = [f"{DOC_HEADER_PREFIX}{doc_id}\n"]
        for sentence in sentences:
            lines.extend(f"{text}\t{tag}\n" for text, tag in zip(sentence.texts, sentence.tags))
            lines.append("\n")
        writer.write("".join(lines))


# a file is read this many characters at a time; any other iterable in its own pieces
READ_BLOCK = 1 << 16
# a header line, with the newline that ends the line before it
_CUT = "\n" + DOC_HEADER_PREFIX
# every byte but the tab and the newline
_NOT_LAYOUT = bytes(b for b in range(256) if b not in b"\t\n")


def read_conll_events(lines: Iterable[str]) -> Iterator[tuple[str, list[Sentence]]]:
    """Structural CoNLL reader: yields (doc_id, sentences) one document at a time.

    Validates layout only (headers, tab-separated token lines); tags are kept
    as raw strings so files with unusual tag inventories still load. A
    sentence's token lines are consecutive, so each sentence keeps only the
    line number of its first token.

    A text stream (anything with ``read``) is read ``READ_BLOCK`` characters
    at a time; the elements of any other iterable are the pieces, so an
    iterable of lines is read no further than a file of them would be. Lines
    end at ``\n``, as a text file iterates them. The text is cut at header
    lines, and each document is read on its own: one in the layout
    ``emit_conll`` writes is split whole, with no work per line, and any
    other goes line by line through ``_read_by_lines``, which words every
    layout error. A document is yielded once the next header line has been
    read, so memory holds one document and one piece.
    """
    read = getattr(lines, "read", None)
    pieces = iter(lambda: read(READ_BLOCK), "") if read is not None else iter(lines)
    blank_lines, head = _skip_blank_lines(pieces)
    if not head:
        return
    header_line = blank_lines + 1  # the line of the first header not yet yielded
    if not head.startswith(DOC_HEADER_PREFIX):
        raise DataError(f"line {header_line}: token line before any document header")
    parts = ["\n"]  # the text not yet yielded, from the cut of that header on
    tail = "\n"  # the last characters read, all of a cut but one
    for piece in chain([head], pieces):
        edge = tail + piece[: len(_CUT) - 1]  # where a cut may span two pieces
        tail = (tail + piece[1 - len(_CUT) :])[1 - len(_CUT) :]
        parts.append(piece)
        if _CUT not in piece and _CUT not in edge:
            continue
        text = "".join(parts)
        start = 0
        while (cut := text.find(_CUT, start + 1)) >= 0:
            document = text[start + len(_CUT) : cut + 1]
            yield _split_plain_document(document, header_line) or _read_by_lines(document, header_line, False)
            header_line += document.count("\n")
            start = cut
        parts = [text[start:]]
    document = "".join(parts)[len(_CUT) :]
    yield _split_plain_document(document, header_line) or _read_by_lines(document, header_line, True)


def _skip_blank_lines(pieces: Iterator[str]) -> tuple[int, str]:
    """Read past the blank lines that open a stream.

    Returns their number and the text after them: at least a header's length
    of it, or all of it when the stream is shorter.
    """
    blank_lines, head = 0, ""
    for piece in pieces:
        if not head:
            stripped = piece.lstrip("\n")
            blank_lines += len(piece) - len(stripped)
            piece = stripped
        head += piece
        if len(head) >= len(DOC_HEADER_PREFIX):
            break
    return blank_lines, head


def _split_plain_document(document: str, header_line: int) -> tuple[str, list[Sentence]] | None:
    """One document in the layout ``emit_conll`` writes, split whole; None for any other layout.

    ``document`` is the header line without its prefix, then the document's
    lines. In that layout each sentence's token lines are closed by one blank
    line, and each token line is two non-empty cells around one tab. Splitting
    at blank lines, newlines and tabs finds it when no cell is empty, nothing
    follows the last blank line, no line holds two tabs, and the tabs number
    the tokens: a sentence's cells are its tabs plus its lines, and its tokens
    half its cells rounded up, so with at most one tab a line there are more
    tokens than tabs unless every line holds one.
    """
    doc_id, _, body = document.partition("\n")
    blocks = body.split("\n\n")
    if blocks.pop():  # text after the last blank line
        return None
    sentences: list[Sentence] = []
    first_line = header_line + 1
    for block in blocks:
        cells = block.replace("\n", "\t").split("\t")
        if not all(cells):
            return None
        texts = cells[::2]
        sentences.append(Sentence(first_line, texts, cells[1::2]))
        first_line += len(texts) + 1  # its token lines and the blank line after them
    tokens = first_line - header_line - 1 - len(blocks)  # the lines split, less the blank ones
    # the body's tabs and newlines alone; a lone surrogate, which text from a string may hold, is neither
    layout = body.encode("utf-8", "surrogatepass").translate(None, _NOT_LAYOUT)
    if layout.count(b"\t") != tokens or b"\t\t" in layout:
        return None
    return doc_id, sentences


def _read_by_lines(document: str, header_line: int, last: bool) -> tuple[str, list[Sentence]]:
    """One document in any layout, read line by line; ``document`` is as ``_split_plain_document`` takes it.

    Only the last document of a stream may end inside a sentence; any other
    is followed by a header, which then stands inside that sentence.
    """
    doc_id, *lines = document.removesuffix("\n").split("\n")
    sentences: list[Sentence] = []
    texts: list[str] = []
    tags: list[str] = []
    first_token_line = 0
    for line_no, line in enumerate(lines, start=header_line + 1):
        if not line:
            if texts:
                sentences.append(Sentence(first_token_line, texts, tags))
                texts, tags = [], []
            continue
        text, sep, tag = line.partition("\t")
        if not sep or not text or not tag:
            raise DataError(f"line {line_no}: expected 'token<TAB>tag', got {line!r}")
        if not texts:
            first_token_line = line_no
        texts.append(text)
        tags.append(tag)
    if texts:
        if not last:
            raise DataError(f"line {header_line + 1 + len(lines)}: document header inside a sentence")
        sentences.append(Sentence(first_token_line, texts, tags))
    return doc_id, sentences


class TagChecker:
    """The strict tag and IOB check of a CoNLL file, one document at a time.

    Each distinct tag string is checked once; ``tags`` holds those that pass.
    The first tag that does not parse, in file order, is the error, and
    ``check`` raises it. Otherwise the IOB rules (a B tag in each sentence, an
    I tag only after a B or I tag of its label) are applied, and the first
    five violations are kept for ``iob_error``, which reports them at the end.

    A document is checked as a whole, with set operations: its distinct tags
    are known, each sentence holds a B tag and opens with no I tag, and each
    distinct pair of adjacent tags is one the rules allow. A run of one tag
    counts once, as a tag after itself keeps the rules. Only a document that
    fails this is walked token by token to word its violations.
    """

    def __init__(self) -> None:
        self.tags: set[str] = set()
        self.violations: list[str] = []
        self._b_tags: set[str] = set()  # the known tags with prefix B
        self._allowed_pairs: set[tuple[str, str]] = set()  # adjacent tags that keep the rules

    def check(self, doc_id: str, sentences: list[Sentence]) -> None:
        """Check one document; a tag that does not parse raises DataError naming its line."""
        tags = self.tags
        runs = list(map(itemgetter(0), groupby(chain.from_iterable(s.tags for s in sentences))))
        if not tags.issuperset(runs):
            for sentence in sentences:
                if tags.issuperset(sentence.tags):
                    continue
                for i, tag_string in enumerate(sentence.tags):
                    if tag_string not in tags:
                        try:
                            _check_tag(tag_string)
                        except DataError as exc:
                            raise DataError(f"line {sentence.first_line + i}: {exc}") from exc
                        tags.add(tag_string)
                        if tag_string[0] == "B":
                            self._b_tags.add(tag_string)
        if len(self.violations) >= 5 or self._keeps_iob(sentences, runs):
            return
        for s_idx, sentence in enumerate(sentences):
            if len(self.violations) >= 5:
                break
            self.violations.extend(_sentence_violations(doc_id, s_idx, sentence.texts, sentence.tags))
        del self.violations[5:]

    def _keeps_iob(self, sentences: list[Sentence], runs: list[str]) -> bool:
        """Whether the document keeps the IOB rules; its tags all parse.

        ``runs`` is the document's tags with each run of one tag cut to one.
        Its pairs are taken across sentence ends too. Such a pair breaks a
        rule only when its second tag is an I tag that opens a sentence,
        which is a violation already.
        """
        b_tags = self._b_tags
        if any(b_tags.isdisjoint(s.tags) or s.tags[0][0] == "I" for s in sentences):
            return False
        pairs = set(zip(runs, islice(runs, 1, None)))
        pairs -= self._allowed_pairs
        for previous, tag in pairs:
            if tag[0] == "I" and (previous == "O" or previous[2:] != tag[2:]):
                return False
        self._allowed_pairs |= pairs
        return True

    def iob_error(self) -> DataError | None:
        """The IOB error of everything checked so far, or None."""
        if not self.violations:
            return None
        return DataError("corpus violates IOB invariants: " + "; ".join(self.violations))


def read_checked(lines: Iterable[str]) -> Iterator[tuple[str, list[Sentence]]]:
    """``read_conll_events`` under one ``TagChecker``: the strict read of a CoNLL stream.

    A tag that does not parse raises DataError as its document is read; the
    IOB error, if any, is raised after the last document.
    """
    checker = TagChecker()
    for doc_id, sentences in read_conll_events(lines):
        checker.check(doc_id, sentences)
        yield doc_id, sentences
    error = checker.iob_error()
    if error is not None:
        raise error


def parse_conll(lines: Iterable[str]) -> AnnotatedCorpus:
    """Read a CoNLL stream into a corpus of the strings it holds, through ``read_checked``."""
    return AnnotatedCorpus(list(read_checked(lines)))
