"""Streaming ingestion of extracted dump files.

Recovers each article's plain text plus the character spans of its
hyperlinks, and collects the sorted set of unique link targets. Two inline
markups are recognized: HTML-style anchors ``<a href="TARGET">SURFACE</a>``
(href percent-decoded, underscores kept) and wiki brackets
``[[TARGET|SURFACE]]`` / ``[[TARGET]]``. Malformed markup never aborts a run;
it degrades to plain text and is counted.

An id or a target must fit on one line of every file the pipeline writes:
a document whose id holds a line break is dropped, and a link whose target
holds a line break or a tab is kept as plain text; both are counted. A line
break is any character ``str.splitlines`` breaks on.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator
from urllib.parse import unquote

from .errors import UsageError

DUMP_FORMATS = ("json_lines", "plain_anchored")

_ANCHOR_OPEN = re.compile(r'<a\s+href="([^"]*)"[^>]*>')
_MARKUP_START = re.compile(r'<a\s+href="|\[\[')
_DOC_OPEN = re.compile(r"<doc\b([^>]*)>")
_DOC_ATTR = re.compile(r'(\w+)="([^"]*)"')

# every character str.splitlines breaks a line on; tests/test_unicode_rules.py checks it
LINE_BREAKS = frozenset("\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029")
_TARGET_BREAKS = LINE_BREAKS | {"\t"}
# a JSON escape such as "\ud800" decodes to a lone surrogate, which UTF-8 cannot encode
LONE_SURROGATE = re.compile("[\ud800-\udfff]")


@dataclass(frozen=True)
class RawDocument:
    """One article as read from the dump, markup still inline."""

    doc_id: str
    title: str
    markup_text: str


@dataclass(frozen=True)
class LinkSpan:
    """Hyperlink span addressed in plain-text character offsets.

    ``surface`` equals the plain-text substring [start, end); ``target`` is
    the unescaped link target page title.
    """

    start: int
    end: int
    surface: str
    target: str


@dataclass(frozen=True)
class Document:
    """Plain article text with its resolved link spans, sorted by start."""

    doc_id: str
    title: str
    text: str
    links: tuple[LinkSpan, ...]


def parse_dump_stream(
    lines: Iterable[str],
    fmt: str = "json_lines",
    counters: Counter | None = None,
) -> Iterator[RawDocument]:
    """Yield documents from the lines of an extracted dump, in file order.

    Malformed lines/blocks are skipped and counted under ``malformed_lines``,
    among them a JSON record whose id, title or text holds a lone surrogate;
    documents whose id holds a line break under ``unwritable_doc_id``, and
    duplicate document ids under ``duplicate_doc_id``. The lines are text:
    the CLI opens the dump as UTF-8, so a bad byte raises UnicodeDecodeError
    as it is read, which the CLI reports as a data error (exit 2).
    """
    if fmt not in DUMP_FORMATS:
        raise UsageError(f"unknown dump format {fmt!r}; expected one of {DUMP_FORMATS}")
    counters = counters if counters is not None else Counter()
    if fmt == "json_lines":
        yield from _parse_json_lines(lines, counters)
    else:
        yield from _parse_plain_anchored(lines, counters)


def _parse_json_lines(lines: Iterable[str], counters: Counter) -> Iterator[RawDocument]:
    seen_ids: set[str] = set()
    for line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            counters["malformed_lines"] += 1
            continue
        if not isinstance(obj, dict) or "id" not in obj or "title" not in obj or "text" not in obj:
            counters["malformed_lines"] += 1
            continue
        doc_id, title, text = str(obj["id"]), str(obj["title"]), str(obj["text"])
        if not doc_id or any(LONE_SURROGATE.search(field) for field in (doc_id, title, text)):
            counters["malformed_lines"] += 1
            continue
        if not _is_new_id(doc_id, seen_ids, counters):
            continue
        yield RawDocument(doc_id=doc_id, title=title, markup_text=text)


def _parse_plain_anchored(lines: Iterable[str], counters: Counter) -> Iterator[RawDocument]:
    """Blocks delimited by ``<doc id=".." url=".." title="..">`` ... ``</doc>``."""
    seen_ids: set[str] = set()
    attrs: dict[str, str] | None = None
    body: list[str] = []
    for line in lines:
        open_match = _DOC_OPEN.match(line.strip())
        if open_match:
            if attrs is not None:
                counters["malformed_lines"] += 1  # previous block never closed
            attrs = dict(_DOC_ATTR.findall(open_match.group(1)))
            body = []
            continue
        if line.strip() == "</doc>":
            if attrs is None:
                counters["malformed_lines"] += 1
                continue
            doc = _finish_block(attrs, body, seen_ids, counters)
            if doc is not None:
                yield doc
            attrs = None
            continue
        if attrs is not None:
            body.append(line)
    if attrs is not None:
        counters["malformed_lines"] += 1


def _finish_block(attrs, body, seen_ids, counters) -> RawDocument | None:
    doc_id = attrs.get("id", "")
    if not doc_id or "title" not in attrs:
        counters["malformed_lines"] += 1
        return None
    if not _is_new_id(doc_id, seen_ids, counters):
        return None
    return RawDocument(doc_id=doc_id, title=attrs["title"], markup_text="".join(body))


def _is_new_id(doc_id: str, seen_ids: set[str], counters: Counter) -> bool:
    """Admit a document id that fits on one line and was not seen before."""
    if not LINE_BREAKS.isdisjoint(doc_id):
        counters["unwritable_doc_id"] += 1
        return False
    if doc_id in seen_ids:
        counters["duplicate_doc_id"] += 1
        return False
    seen_ids.add(doc_id)
    counters["documents"] += 1
    return True


class _PlainTextBuilder:
    """Accumulates output text and the spans addressed into it."""

    def __init__(self) -> None:
        self._pieces: list[str] = []
        self.length = 0
        self.links: list[LinkSpan] = []

    def emit(self, s: str) -> None:
        if s:
            self._pieces.append(s)
            self.length += len(s)

    def emit_link(self, surface: str, target: str) -> None:
        self.links.append(
            LinkSpan(start=self.length, end=self.length + len(surface), surface=surface, target=target)
        )
        self.emit(surface)

    def text(self) -> str:
        return "".join(self._pieces)


def _strip_fragment(target: str, counters: Counter) -> str:
    """Drop a trailing "#section" fragment, counting the occurrence."""
    if "#" in target:
        counters["fragment_stripped"] += 1
        return target.split("#", 1)[0]
    return target


def extract_links(
    markup_text: str, counters: Counter | None = None
) -> tuple[str, list[LinkSpan]]:
    """Strip link markup from text, returning plain text plus link spans.

    Offsets address the returned text in Unicode code points. Malformed
    constructs (unclosed or nested markup, empty targets or surfaces) lose
    their recognized delimiters and keep their content as plain text, counted
    under ``malformed_markup``; the output never re-parses as markup, so the
    function is idempotent on its own text output. A link whose target holds
    a line break or a tab keeps its surface as plain text, counted under
    ``unwritable_target``.
    """
    counters = counters if counters is not None else Counter()
    out = _PlainTextBuilder()
    pos = 0
    while True:
        start_match = _MARKUP_START.search(markup_text, pos)
        if start_match is None:
            out.emit(markup_text[pos:])
            break
        out.emit(markup_text[pos : start_match.start()])
        if start_match.group(0) == "[[":
            pos = _consume_wiki(markup_text, start_match.start(), out, counters)
        else:
            pos = _consume_anchor(markup_text, start_match.start(), out, counters)
    return out.text(), out.links


def _consume_anchor(markup_text: str, start: int, out: _PlainTextBuilder, counters: Counter) -> int:
    m = _ANCHOR_OPEN.match(markup_text, start)
    if m is None:
        # the trigger matched but the full open tag does not parse; drop the
        # trigger text and rescan what follows it
        counters["malformed_markup"] += 1
        trigger_end = _MARKUP_START.match(markup_text, start).end()
        return trigger_end
    close = markup_text.find("</a>", m.end())
    if close == -1:
        counters["malformed_markup"] += 1
        return m.end()
    surface = markup_text[m.end() : close]
    if "<a" in surface or "[[" in surface:
        counters["malformed_markup"] += 1
        return m.end()
    target = unquote(_strip_fragment(m.group(1), counters))
    _emit_link(out, surface, target, counters)
    return close + len("</a>")


def _consume_wiki(markup_text: str, start: int, out: _PlainTextBuilder, counters: Counter) -> int:
    close = markup_text.find("]]", start + 2)
    if close == -1:
        counters["malformed_markup"] += 1
        return start + 2
    content = markup_text[start + 2 : close]
    if "[[" in content or "<a" in content:
        counters["malformed_markup"] += 1
        return start + 2
    target_part, sep, surface = content.partition("|")
    if not sep:
        surface = target_part
    target = _strip_fragment(target_part, counters)
    _emit_link(out, surface, target, counters)
    return close + 2


def _emit_link(out: _PlainTextBuilder, surface: str, target: str, counters: Counter) -> None:
    """Emit a link span, or only its surface when the target is empty or
    holds a line break or a tab."""
    if not target or not surface:
        counters["malformed_markup"] += 1
        out.emit(surface)
    elif not _TARGET_BREAKS.isdisjoint(target):
        counters["unwritable_target"] += 1
        out.emit(surface)
    else:
        out.emit_link(surface, target)


def build_document(raw: RawDocument, counters: Counter | None = None) -> Document:
    """Extract links from a raw document and package the result."""
    text, links = extract_links(raw.markup_text, counters)
    return Document(doc_id=raw.doc_id, title=raw.title, text=text, links=tuple(links))


def collect_unique_targets(documents: Iterable[Document]) -> list[str]:
    """Sorted (by code point), duplicate-free list of all link targets."""
    targets = {span.target for doc in documents for span in doc.links}
    return sorted(targets)
