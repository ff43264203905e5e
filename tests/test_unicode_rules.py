"""The Unicode facts the compiled-regex tokenizer and splitter, and ingest's
line-break rule, rest on, checked over every code point of this
interpreter's Unicode database.

``annotator`` finds chunks and blank lines with ``re``'s ``\\s``, where README
"CoNLL output" and its test references say ``str.isspace()``, and keeps an
alphanumeric chunk whole, where they test each character for a P or S
category. Each Python release ships its own Unicode database, so every
interpreter the tests run under checks it again.
"""

from __future__ import annotations

import re
import sys
import unicodedata

from uner_pipeline.ingest import LINE_BREAKS

EVERY_CODE_POINT = "".join(map(chr, range(sys.maxunicode + 1)))


def regex_space_mismatches() -> list[int]:
    """Code points where ``re``'s ``\\s`` and ``str.isspace()`` disagree."""
    by_regex = {match.start() for match in re.finditer(r"\s", EVERY_CODE_POINT)}
    by_method = {i for i, ch in enumerate(EVERY_CODE_POINT) if ch.isspace()}
    return sorted(by_regex ^ by_method)


def alphanumeric_punctuation() -> list[int]:
    """Code points that ``str.isalnum()`` accepts but are in a P or S category."""
    return [
        ord(ch)
        for ch in EVERY_CODE_POINT
        if ch.isalnum() and unicodedata.category(ch)[0] in ("P", "S")
    ]


def test_every_code_point_is_checked():
    assert len(EVERY_CODE_POINT) == 0x110000


def test_regex_whitespace_is_str_isspace():
    assert regex_space_mismatches() == []


def test_no_punctuation_or_symbol_is_alphanumeric():
    assert alphanumeric_punctuation() == []



def test_line_breaks_are_what_splitlines_breaks_on():
    # ingest drops an id, and unlinks a target, that holds one of these
    breaks = {ch for ch in EVERY_CODE_POINT if len(f"a{ch}b".splitlines()) > 1}
    assert breaks == LINE_BREAKS
