"""Dictionary-based annotation completion.

Builds annotation dictionaries out of an annotated corpus (global, global
multi-token, knowledge-graph-filtered) and applies them to retag runs of
O tokens, plus per-document local lookup propagation. Seven experiment
wirings combine these strategies. EXPERIMENTS is the one table of what each
experiment needs; run_experiments reads it. One corpus walk builds global,
whose multi-token entries are global_multi; each kg filter and the local
pass run once, and the result corpora are handed out one at a time.
Existing non-O tags are never overwritten.

A dictionary is applied in (application rank, position) order over the runs
that are still all O: surfaces longest first, each scanned left to right.
Surfaces are indexed by their token tuple, so each token position is probed
once per distinct surface length and the cost is O(tokens x distinct surface
lengths), whatever the dictionary size. A corpus is its sentences' token
texts and tag strings; a result copies each sentence's tag list and shares
its token texts, which are never changed, with its input.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .annotator import AnnotatedCorpus, Sentence
from .atomic import atomic_output
from .errors import DataError
from .mapping import EquivalenceMap, iter_tsv, map_to_uner
from .stats import iter_entities


class ExperimentSpec(NamedTuple):
    """What one experiment needs and the order it applies things in."""

    local_first: bool  # propagate per-document dictionaries before the base dictionary
    dictionary: str | None  # base dictionary: "global", "global_multi" or None
    kg_filter: bool  # filter and retype the base dictionary through the kg map


EXPERIMENTS = {
    1: ExperimentSpec(False, "global", False),
    2: ExperimentSpec(False, "global_multi", False),
    3: ExperimentSpec(True, None, False),
    4: ExperimentSpec(False, "global", True),
    5: ExperimentSpec(False, "global_multi", True),
    6: ExperimentSpec(True, "global", True),
    7: ExperimentSpec(True, "global_multi", True),
}

MIN_SURFACE_CHARS = 3


@dataclass
class Dictionary:
    """Surface -> label map with its build provenance.

    Invariants enforced at build time: every surface has at least
    MIN_SURFACE_CHARS characters and at least one alphabetic character;
    multi-token variants hold only surfaces spanning two or more tokens.
    """

    entries: dict[str, str] = field(default_factory=dict)
    provenance: str = "global"


def surface_token_count(surface: str) -> int:
    # corpus-derived surfaces are token texts joined by single spaces
    return len(surface.split(" "))


def surface_is_admissible(surface: str) -> bool:
    """Dictionary filter: length over two characters, not purely non-alphabetic."""
    if len(surface) < MIN_SURFACE_CHARS:
        return False
    return any(ch.isalpha() for ch in surface)


def application_order(surfaces) -> list[str]:
    """Longest first: char count desc, then token count desc, then lexicographic."""
    return sorted(surfaces, key=lambda s: (-len(s), -surface_token_count(s), s))


def build_global_dictionary(corpus: AnnotatedCorpus) -> Dictionary:
    """Modal label per distinct entity surface, ties to the smallest label string.

    Surfaces shorter than three characters or with no alphabetic character are
    excluded.
    """
    occurrences: dict[str, Counter[str]] = {}
    sentences = (zip(s.texts, s.tags) for _, doc in corpus.documents for s in doc)
    for surface, label in iter_entities(sentences):
        occurrences.setdefault(surface, Counter())[label] += 1
    entries: dict[str, str] = {}
    for surface, counts in occurrences.items():
        if surface_is_admissible(surface):
            entries[surface] = min(counts, key=lambda label: (-counts[label], label))
    return Dictionary(entries, "global")


def save_dictionary(dictionary: Dictionary, path) -> None:
    """Write entries in application order so the file mirrors matching behavior."""
    with atomic_output(path) as fh:
        fh.write(f"# provenance = {dictionary.provenance}\n")
        for surface in application_order(dictionary.entries):
            fh.write(f"{surface}\t{dictionary.entries[surface]}\n")


def load_kg_map(path) -> dict[str, str]:
    """Read a graph's ``surface<TAB>class`` TSV into surface -> class name; a later line wins."""
    entries: dict[str, str] = {}
    for line_no, key, cls in iter_tsv(path):
        if not cls:
            raise DataError(f"{path}:{line_no}: empty class")
        entries[key] = cls
    return entries


def filter_by_kg(
    dictionary: Dictionary,
    kg: dict[str, str],
    equivalences: EquivalenceMap,
    counters: Counter | None = None,
) -> Dictionary:
    """Keep only surfaces known to the graph, retyped through its class.

    Entries whose graph class maps to NULL or is absent from the equivalence
    table are dropped and counted.
    """
    counters = counters if counters is not None else Counter()
    entries: dict[str, str] = {}
    for surface in dictionary.entries:
        cls = kg.get(surface)
        if cls is None:
            continue
        label = map_to_uner(cls, equivalences, counters)
        if label is None:
            counters["kg_entries_dropped"] += 1
            continue
        entries[surface] = label
    provenance = "kg_filtered_multi" if dictionary.provenance == "global_multi" else "kg_filtered"
    return Dictionary(entries, provenance)


def _copy_sentences(corpus: AnnotatedCorpus) -> AnnotatedCorpus:
    """A corpus whose tag lists can be changed without touching ``corpus``; it shares the texts."""
    return AnnotatedCorpus(
        [
            (doc_id, [Sentence(line, texts, tags.copy()) for line, texts, tags in sentences])
            for doc_id, sentences in corpus.documents
        ]
    )


def _all_o(tags: list[str], start: int, length: int) -> bool:
    return all(tag == "O" for tag in tags[start : start + length])


def _retag(tags: list[str], start: int, length: int, label: str) -> None:
    tags[start] = "B-" + label
    tags[start + 1 : start + length] = ["I-" + label] * (length - 1)


def apply_dictionary(corpus: AnnotatedCorpus, dictionary: Dictionary) -> AnnotatedCorpus:
    """Retag O-token runs that spell out dictionary surfaces; input unchanged.

    Every run that spells a surface is a candidate. Candidates are applied in
    (application rank, position) order, and one whose tokens are no longer
    all O is skipped: surfaces go longest first, each left to right without
    overlapping its own matches. Non-O tags are never modified. Each token
    position is probed once per distinct surface length.
    """
    index = {
        tuple(surface.split(" ")): (rank, dictionary.entries[surface])
        for rank, surface in enumerate(application_order(dictionary.entries))
    }
    lengths = sorted({len(parts) for parts in index})
    result = _copy_sentences(corpus)
    for _, sentences in result.documents:
        for _, texts, tags in sentences:
            candidates = []
            for start in range(len(texts)):
                for length in lengths:
                    if start + length > len(texts):
                        break
                    hit = index.get(tuple(texts[start : start + length]))
                    if hit is not None:
                        candidates.append((hit[0], start, length, hit[1]))
            candidates.sort()  # (rank, start) pairs are unique, so labels are never compared
            for _, start, length, label in candidates:
                if _all_o(tags, start, length):
                    _retag(tags, start, length, label)
    return result


def apply_local_dictionaries(corpus: AnnotatedCorpus) -> AnnotatedCorpus:
    """Per document, propagate each linked entity's label forward.

    A single left-to-right pass: when an entity run is seen its surface is
    cached (first label wins); when an O run spells out a cached surface it is
    retagged, the longest cached surface that matches there winning. Earlier
    occurrences are never back-filled, and nothing leaks across documents.
    """
    result = _copy_sentences(corpus)
    for _, sentences in result.documents:
        cache: dict[tuple[str, ...], str] = {}  # surface.split(" ") -> label
        lengths: set[int] = set()
        for _, texts, tags in sentences:
            i = 0
            while i < len(tags):
                tag = tags[i]
                if tag[0] == "B":
                    j = i + 1
                    while j < len(tags) and tags[j][0] == "I":
                        j += 1
                    parts = tuple(" ".join(texts[i:j]).split(" "))
                    if parts not in cache:
                        cache[parts] = tag[2:]
                        lengths.add(len(parts))
                    i = j
                    continue
                if tag == "O":
                    matches = [
                        parts
                        for parts in (tuple(texts[i : i + length]) for length in lengths)
                        if parts in cache and _all_o(tags, i, len(parts))
                    ]
                    if matches:
                        # from one start a longer run has more characters, so
                        # the most tokens is the first match in application order
                        parts = max(matches, key=len)
                        _retag(tags, i, len(parts), cache[parts])
                        i += len(parts)
                        continue
                i += 1
    return result


def run_experiments(
    corpus: AnnotatedCorpus,
    experiment_ids,
    kg_map: dict[str, str] | None = None,
    equivalences: EquivalenceMap | None = None,
    counters: Counter | None = None,
) -> tuple[dict[str, Dictionary], Iterator[tuple[int, AnnotatedCorpus]]]:
    """Run the selected experiments as EXPERIMENTS wires them.

    One walk over the corpus builds the global dictionary; global_multi is
    its entries of two or more tokens. Each knowledge-graph filter runs once
    per base and the local pass once, however many experiments share them.
    Every experiment that uses a filter reports its counters in ``counters``
    as ``exp<N>_<name>``. Returns the base dictionaries the experiments need
    (global first) and an iterator of (experiment id, result corpus) in the
    given order. It computes each result when asked, so a caller that drops
    one result before it asks for the next holds one at a time.
    """
    specs = {experiment_id: EXPERIMENTS[experiment_id] for experiment_id in experiment_ids}
    bases = sorted({spec.dictionary for spec in specs.values()} - {None})
    whole = build_global_dictionary(corpus) if bases else Dictionary()
    multi = {surface: label for surface, label in whole.entries.items() if surface_token_count(surface) > 1}
    dictionaries = {base: whole if base == "global" else Dictionary(multi, base) for base in bases}
    filtered: dict[str, tuple[Dictionary, Counter]] = {}  # base -> its kg-filtered dictionary, counters
    for base in sorted({spec.dictionary for spec in specs.values() if spec.kg_filter}):
        filter_counters: Counter = Counter()
        dictionary = filter_by_kg(dictionaries[base], kg_map, equivalences, filter_counters)
        filtered[base] = (dictionary, filter_counters)
    local = apply_local_dictionaries(corpus) if any(spec.local_first for spec in specs.values()) else None
    applied: dict[int, tuple[AnnotatedCorpus, Dictionary | None]] = {}  # id -> start corpus, its dictionary
    for experiment_id, (local_first, base, kg_filter) in specs.items():
        dictionary = dictionaries.get(base)
        if kg_filter:
            dictionary, filter_counters = filtered[base]
            if counters is not None:
                for name, count in filter_counters.items():
                    counters[f"exp{experiment_id}_{name}"] += count
        applied[experiment_id] = (local if local_first else corpus, dictionary)
    return dictionaries, (
        (experiment_id, start if dictionary is None else apply_dictionary(start, dictionary))
        for experiment_id, (start, dictionary) in applied.items()
    )
