"""Corpus statistics and entity inventories.

Counts tokens, entity tokens (B/I), entities (B), occurrences per tag, and
the coarse Person/Location/Organization split: Person is the exact label
Name-Person-Name, Location and Organization are label-prefix families. A
label is the string a tag carries after its ``B-``/``I-`` prefix. All of
these come from a tag histogram (tag string -> token count), which
``read_stats`` counts from a CoNLL file of strings, one document at a time,
and ``evaluation`` from the system column of its tag pairs. Only the distinct
entity count needs the entities themselves (``list_entities``).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .annotator import read_checked

COARSE_CLASSES = ("Person", "Location", "Organization")

_PERSON_LABEL = "Name-Person-Name"
# a family is the label itself or any label under it
_LOCATION_FAMILY = "Name-Location-"
_ORGANIZATION_FAMILY = "Name-Organization-"


@dataclass
class CorpusStats:
    total_tokens: int = 0
    non_entity_tokens: int = 0
    entity_tokens: int = 0
    entity_count: int = 0
    distinct_entity_count: int | None = None  # known only when the entities are passed
    per_tag_counts: dict[str, int] = field(default_factory=dict)
    coarse_counts: dict[str, tuple[int, float]] = field(default_factory=dict)


def coarse_class(label: str) -> str | None:
    """Coarse bucket for a label, or None if it falls outside all three."""
    if label == _PERSON_LABEL:
        return "Person"
    family = label + "-"
    if family.startswith(_LOCATION_FAMILY):
        return "Location"
    if family.startswith(_ORGANIZATION_FAMILY):
        return "Organization"
    return None


def iter_entities(sentences: Iterable[Iterable[tuple[str, str]]]) -> Iterator[tuple[str, str]]:
    """Yield (surface, label) for every B..I run of sentences of (token text, tag string) pairs."""
    for sentence in sentences:
        run: list[str] = []  # the token texts of the open run
        for text, tag in sentence:
            if run and tag[0] != "I":
                yield " ".join(run), label
                run = []
            if tag[0] == "B":
                run, label = [text], tag[2:]
            elif run:  # an I tag that continues the run
                run.append(text)
        if run:
            yield " ".join(run), label


def list_entities(sentences: Iterable[Iterable[tuple[str, str]]]) -> list[tuple[str, str]]:
    """Distinct (surface, label) pairs, sorted by surface then label."""
    return sorted(set(iter_entities(sentences)))


def compute_stats(
    counts: Mapping[str, int], entities: list[tuple[str, str]] | None = None
) -> CorpusStats:
    """Count tokens, entities, per-tag occurrences, and coarse classes.

    ``counts`` maps each tag string of well-formed IOB tags (``O``,
    ``B-<label>``, ``I-<label>``) to its token count. ``entities`` is the
    corpus's ``list_entities``; without it ``distinct_entity_count`` is None.
    """
    stats = CorpusStats()
    coarse: Counter[str] = Counter()
    for tag, count in counts.items():
        stats.total_tokens += count
        if tag == "O":
            stats.non_entity_tokens += count
            continue
        stats.entity_tokens += count
        stats.per_tag_counts[tag] = count
        if tag.startswith("B-"):
            stats.entity_count += count
            bucket = coarse_class(tag[2:])
            if bucket is not None:
                coarse[bucket] += count
    stats.coarse_counts = {
        name: (coarse[name], coarse[name] / stats.entity_count if stats.entity_count else 0.0)
        for name in COARSE_CLASSES
    }
    if entities is not None:
        stats.distinct_entity_count = len(entities)
    assert stats.total_tokens == stats.non_entity_tokens + stats.entity_tokens
    return stats


def read_stats(lines: Iterable[str]) -> tuple[CorpusStats, list[tuple[str, str]]]:
    """Stats and distinct entities of a CoNLL stream, read as strings through ``read_checked``."""
    counts: Counter[str] = Counter()

    def sentences() -> Iterator[Iterable[tuple[str, str]]]:
        for _, document in read_checked(lines):
            for _, texts, tags in document:
                counts.update(tags)
                yield zip(texts, tags)

    entities = list_entities(sentences())
    return compute_stats(counts, entities), entities


def _sorted_tag_counts(stats: CorpusStats) -> list[tuple[str, int]]:
    return sorted(stats.per_tag_counts.items(), key=lambda item: (-item[1], item[0]))


def render_text(stats: CorpusStats) -> str:
    """Human-readable report; per-tag counts by descending count then tag."""
    lines = [
        f"total_tokens\t{stats.total_tokens}",
        f"non_entity_tokens\t{stats.non_entity_tokens}",
        f"entity_tokens\t{stats.entity_tokens}",
        f"entity_count\t{stats.entity_count}",
        f"distinct_entity_count\t{stats.distinct_entity_count}",
        "",
        "per-tag counts:",
    ]
    for tag, count in _sorted_tag_counts(stats):
        lines.append(f"{tag}\t{count}")
    lines.append("")
    lines.append("coarse classes:")
    for name in COARSE_CLASSES:
        count, share = stats.coarse_counts.get(name, (0, 0.0))
        lines.append(f"{name}\t{count}\t{share * 100:.1f}%")
    return "\n".join(lines) + "\n"


def coarse_json(coarse_counts: dict[str, tuple[int, float]]) -> dict[str, dict]:
    """Coarse (count, share) pairs in the shape the JSON reports hold them."""
    return {name: {"count": count, "share": share} for name, (count, share) in coarse_counts.items()}


def render_json(stats: CorpusStats) -> str:
    payload = {
        "total_tokens": stats.total_tokens,
        "non_entity_tokens": stats.non_entity_tokens,
        "entity_tokens": stats.entity_tokens,
        "entity_count": stats.entity_count,
        "distinct_entity_count": stats.distinct_entity_count,
        "per_tag_counts": dict(_sorted_tag_counts(stats)),
        "coarse_counts": coarse_json(stats.coarse_counts),
    }
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
