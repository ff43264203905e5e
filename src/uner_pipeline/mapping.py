"""UNER label grammar and the knowledge-base class translation tables.

A label is 1-4 hyphen-joined segments under an implicit root, e.g.
``Name-Event-Natural_Phenomenon-Earthquake``. Two checked-in TSV tables drive
annotation: an equivalence table mapping ontology classes to labels (or NULL
for "never annotate") and a priority table that ranks classes by specificity
so one class can be selected per entity.
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


@dataclass(frozen=True, order=True)
class UnerLabel:
    """Ordered multi-level entity label; ``levels[0]`` is the level-1 segment."""

    levels: tuple[str, ...]

    def __str__(self) -> str:
        return "-".join(self.levels)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def truncated(self, depth: int) -> "UnerLabel":
        """Label cut down to its first ``depth`` segments (at least one)."""
        return UnerLabel(self.levels[: max(1, depth)])


def parse_uner_label(s: str) -> UnerLabel:
    """Parse and validate a hyphen-joined label string.

    Raises LabelParseError naming the offending segment and its character
    position for empty segments, more than four segments, or an unknown
    level-1 segment.
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
        offset += len(segment) + 1
    if segments[0] not in LEVEL1_SEGMENTS:
        raise LabelParseError(
            f"label {s!r} starts with unknown level-1 segment {segments[0]!r}; "
            f"expected one of {', '.join(LEVEL1_SEGMENTS)}"
        )
    return UnerLabel(tuple(segments))


@dataclass
class EquivalenceMap:
    """Ontology class name -> UnerLabel, or None for classes never annotated."""

    entries: dict[str, UnerLabel | None] = field(default_factory=dict)

    def distinct_labels(self) -> set[UnerLabel]:
        return {label for label in self.entries.values() if label is not None}


@dataclass
class PriorityMap:
    """Ontology class name -> integer priority; higher means more specific."""

    entries: dict[str, int] = field(default_factory=dict)


def iter_tsv(path: str | Path):
    """Yield (line_no, key, value) for each ``key<TAB>value`` line of a TSV table.

    Blank and ``#`` lines are skipped. A line without a tab or with an empty
    key raises a DataError starting with ``path:line``; each loader applies
    its own rules to the value, which may be empty.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            head = line.lstrip()
            if not head or head.startswith("#"):
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
    entries: dict[str, UnerLabel | None] = {}
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
) -> UnerLabel | None:
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
) -> UnerLabel | None:
    """Full selection chain: pick the top-priority class, translate it."""
    return map_to_uner(select_class(classes, priorities, counters), equivalences, counters)


def hierarchy_level_counts(equivalences: EquivalenceMap) -> dict[int, int]:
    """Distinct node count per hierarchy level over all non-NULL labels.

    Level n counts unique n-segment prefixes; reported for inspection, not
    asserted against any fixed shape.
    """
    nodes: dict[int, set[tuple[str, ...]]] = {}
    for label in equivalences.distinct_labels():
        for depth in range(1, label.depth + 1):
            nodes.setdefault(depth, set()).add(label.levels[:depth])
    return {depth: len(prefixes) for depth, prefixes in sorted(nodes.items())}


def default_equivalence_path() -> Path:
    return Path(str(resources.files(_DATA_PACKAGE) / "data" / "uner_dbpedia_equivalence.tsv"))


def default_priority_path() -> Path:
    return Path(str(resources.files(_DATA_PACKAGE) / "data" / "dbpedia_priority.tsv"))
