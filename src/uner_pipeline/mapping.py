"""UNER label grammar and the knowledge-base class translation tables.

A label is a string of 1-4 hyphen-joined segments under an implicit root,
e.g. ``Name-Event-Natural_Phenomenon-Earthquake``. ``parse_uner_label`` checks
the grammar and returns the string itself; every table and file holds labels
in that form, so no other representation exists. Two checked-in TSV tables
drive annotation: an equivalence table mapping ontology classes to labels (or
NULL for "never annotate") and a priority table that ranks classes by
specificity so one class can be selected per entity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import DataError, LabelParseError

LEVEL1_SEGMENTS = ("Name", "Time_Expression", "Numerical_Expression")
MAX_DEPTH = 4

NULL_MARKER = "NULL"

_DATA_PACKAGE = "uner_pipeline"


def parse_uner_label(s: str) -> str:
    """Check a hyphen-joined label string and return it unchanged.

    Raises LabelParseError naming the offending segment and its character
    position for empty segments, segments holding whitespace, more than four
    segments, or an unknown level-1 segment.
    """
    if not s:
        raise LabelParseError("empty label string")
    segments = s.split("-")
    if len(segments) > MAX_DEPTH:
        raise LabelParseError(
            f"label {s!r} has {len(segments)} segments, at most {MAX_DEPTH} allowed"
        )
    offset = 0
    for i, segment in enumerate(segments):
        if not segment:
            raise LabelParseError(
                f"label {s!r} has an empty segment at position {offset} (segment {i + 1})"
            )
        if any(ch.isspace() for ch in segment):
            raise LabelParseError(
                f"label {s!r} has whitespace in segment {segment!r} at position {offset} "
                f"(segment {i + 1})"
            )
        offset += len(segment) + 1
    if segments[0] not in LEVEL1_SEGMENTS:
        raise LabelParseError(
            f"label {s!r} starts with unknown level-1 segment {segments[0]!r}; "
            f"expected one of {', '.join(LEVEL1_SEGMENTS)}"
        )
    return s


@dataclass
class EquivalenceMap:
    """Ontology class name -> label, or None for classes never annotated."""

    entries: dict[str, str | None] = field(default_factory=dict)

    def distinct_labels(self) -> set[str]:
        return {label for label in self.entries.values() if label is not None}


@dataclass
class PriorityMap:
    """Ontology class name -> integer priority; higher means more specific."""

    entries: dict[str, int] = field(default_factory=dict)


def iter_tsv(path: str | Path):
    """Yield (line_no, key, value) for each ``key<TAB>value`` line of a TSV table.

    Blank lines are skipped, and so are comments: lines that start with
    ``#`` after any leading whitespace and hold no tab, so a ``#`` key such as
    the surface ``# MeToo`` is still read. A line without a tab or with an
    empty key raises a DataError starting with ``path:line``; each loader
    applies its own rules to the value, which may be empty.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            head = line.lstrip()
            if not head or (head[0] == "#" and "\t" not in head):
                continue
            key, sep, value = line.partition("\t")
            if not sep:
                raise DataError(f"{path}:{line_no}: expected two tab-separated columns")
            if not key:
                raise DataError(f"{path}:{line_no}: empty first column")
            yield line_no, key, value


def load_equivalence_map(path: str | Path) -> EquivalenceMap:
    """Load the class -> label table; raises on duplicates or bad labels."""
    path = Path(path)
    entries: dict[str, str | None] = {}
    for line_no, cls, value in iter_tsv(path):
        if cls in entries:
            raise DataError(f"{path}:{line_no}: duplicate class {cls!r}")
        if value == NULL_MARKER:
            entries[cls] = None
        else:
            try:
                entries[cls] = parse_uner_label(value)
            except LabelParseError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from exc
    return EquivalenceMap(entries)


def load_priority_map(path: str | Path) -> PriorityMap:
    """Load the class -> priority table; priorities are integers >= 1."""
    path = Path(path)
    entries: dict[str, int] = {}
    for line_no, cls, value in iter_tsv(path):
        if cls in entries:
            raise DataError(f"{path}:{line_no}: duplicate class {cls!r}")
        try:
            priority = int(value)
        except ValueError:
            raise DataError(f"{path}:{line_no}: priority {value!r} is not an integer")
        if priority < 1:
            raise DataError(f"{path}:{line_no}: priority must be >= 1, got {priority}")
        entries[cls] = priority
    return PriorityMap(entries)


def validate_coverage(equivalences: EquivalenceMap, priorities: PriorityMap) -> None:
    """Every class in the equivalence table must carry a priority."""
    missing = [cls for cls in equivalences.entries if cls not in priorities.entries]
    if missing:
        raise DataError(
            "classes missing from the priority table: " + ", ".join(sorted(missing))
        )


def load_mapping_tables(
    equivalence_path: str | Path, priority_path: str | Path
) -> tuple[EquivalenceMap, PriorityMap]:
    """Load both tables and cross-validate priority coverage."""
    equivalences = load_equivalence_map(equivalence_path)
    priorities = load_priority_map(priority_path)
    validate_coverage(equivalences, priorities)
    return equivalences, priorities


def select_class(
    classes: list[str], priorities: PriorityMap, counters: Counter | None = None
) -> str | None:
    """Pick the class with the highest priority; earliest wins on ties.

    Classes without a priority entry are skipped (and counted under
    ``class_without_priority`` when counters are supplied). Returns None for
    an empty list or when no class has a priority.
    """
    best: str | None = None
    best_priority: int | None = None
    for cls in classes:
        priority = priorities.entries.get(cls)
        if priority is None:
            if counters is not None:
                counters["class_without_priority"] += 1
            continue
        if best_priority is None or priority > best_priority:
            best, best_priority = cls, priority
    return best


def map_to_uner(
    cls: str | None, equivalences: EquivalenceMap, counters: Counter | None = None
) -> str | None:
    """Translate a class to its label; None for NULL-mapped or unknown classes."""
    if cls is None:
        return None
    if cls not in equivalences.entries:
        if counters is not None:
            counters["class_not_in_equivalence"] += 1
        return None
    return equivalences.entries[cls]


def label_for_classes(
    classes: list[str],
    equivalences: EquivalenceMap,
    priorities: PriorityMap,
    counters: Counter | None = None,
) -> str | None:
    """Full selection chain: pick the top-priority class, translate it."""
    return map_to_uner(select_class(classes, priorities, counters), equivalences, counters)


def default_equivalence_path() -> Path:
    return Path(str(resources.files(_DATA_PACKAGE) / "data" / "uner_dbpedia_equivalence.tsv"))


def default_priority_path() -> Path:
    return Path(str(resources.files(_DATA_PACKAGE) / "data" / "dbpedia_priority.tsv"))
