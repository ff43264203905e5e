"""Deterministic pipeline turning hyperlink-bearing dump text into
IOB-annotated named-entity corpora via a knowledge-base class hierarchy."""

__version__ = "0.1.0"

from .annotator import (  # noqa: F401
    AnnotatedCorpus,
    Sentence,
    Token,
    emit_conll,
    parse_conll,
    split_sentences,
    tokenize,
)
from .ingest import Document, LinkSpan, RawDocument, extract_links, parse_dump_stream  # noqa: F401
from .mapping import parse_uner_label  # noqa: F401
