"""Token-level scoring of a system corpus against a golden corpus, and the
``eval.txt``/``eval.json`` reports.

Both CoNLL files are read once, side by side, one document at a time, so
memory holds one document and one read block of each file. The pass
compares a document's token texts in one list comparison, counts its
(golden tag, system tag) pairs in one update, and runs the strict tag and
IOB check over the system tags; no corpus is built. Tags are scored as the
plain strings the CoNLL files hold. B-X and I-X count as distinct classes.
Per-tag precision/recall/F1 are computed from token-level confusion counts
with the 0/0 -> 0 convention, and the macro mean runs over tags whose three
values are not all zero. An optional collapse depth rewrites every non-O tag
to its prefix plus the first d label segments before counting, scoring the
hierarchy coarsely. ``eval.json``
holds the collapse depth, the macro, the counted tags, the per-tag table and,
when the caller passes them, the system file's coarse Person/Location/
Organization counts, which come from the system tag counts.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from itertools import chain, zip_longest
from typing import Iterable, Mapping

from .annotator import Sentence, TagChecker, read_conll_events
from .errors import AlignmentError, DataError
from .stats import coarse_json, compute_stats


@dataclass(frozen=True)
class TagMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    per_tag: dict[str, TagMetrics] = field(default_factory=dict)
    macro: tuple[float, float, float] = (0.0, 0.0, 0.0)
    counted_tags: list[str] = field(default_factory=list)
    collapse_depth: int | None = None


@dataclass(frozen=True)
class Alignment:
    """The result of one lock-step pass over a golden and a system file.

    ``pair_counts`` counts each (golden tag, system tag) pair over the aligned
    tokens; ``len()`` is the number of aligned tokens. ``system_error`` is the
    first DataError the strict check of the system tags met (a tag that does
    not parse, or else the IOB violations), or None when the file is clean.
    ``documents`` and ``sentences`` count what was aligned.
    """

    pair_counts: Counter[tuple[str, str]]
    system_error: DataError | None
    documents: int
    sentences: int

    def __len__(self) -> int:
        return self.pair_counts.total()


def align(golden: Iterable[str], system: Iterable[str]) -> Alignment:
    """Position-wise pairing of two CoNLL streams in one lock-step pass.

    The two files are read one document at a time, side by side, and each is
    read once. Document ids, sentence boundaries, and token texts must
    coincide; the first divergence aborts with both line numbers. When one
    file runs out of documents first, the rest of the other is read so that
    the error gives both document counts. Errors surface in reading order: a
    divergence in an early document is reported before a layout error or a
    count mismatch further on.

    Each system document also goes through the ``TagChecker`` that
    ``parse_conll`` uses. Its first DataError (a tag that does not parse, or
    at the end the IOB violations) is kept in the result, while the scoring
    carries on. Memory holds one document and one read block of each file.
    A document's sentences are walked only to word a divergence.
    """
    pair_counts: Counter[tuple[str, str]] = Counter()
    checker = TagChecker()
    system_error: DataError | None = None
    documents = sentences = 0
    golden_docs, system_docs = read_conll_events(golden), read_conll_events(system)
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
        if [s.texts for s in gold_sentences] != [s.texts for s in sys_sentences]:
            raise _token_divergence(gold_sentences, sys_sentences)
        pair_counts.update(
            zip(
                chain.from_iterable(s.tags for s in gold_sentences),
                chain.from_iterable(s.tags for s in sys_sentences),
            )
        )
        documents += 1
        sentences += len(gold_sentences)
        if system_error is None:
            try:
                checker.check(sys_id, sys_sentences)
            except DataError as exc:
                system_error = exc
    if system_error is None:
        system_error = checker.iob_error()
    return Alignment(pair_counts, system_error, documents, sentences)


def _token_divergence(
    gold_sentences: list[Sentence], sys_sentences: list[Sentence]
) -> AlignmentError:
    """The error for the first sentence whose token texts differ between the two files."""
    for gold_sentence, sys_sentence in zip(gold_sentences, sys_sentences):
        gold_texts, sys_texts = gold_sentence.texts, sys_sentence.texts
        if len(gold_texts) != len(sys_texts):
            return AlignmentError(
                f"sentence length mismatch near golden line {gold_sentence.first_line} "
                f"/ system line {sys_sentence.first_line}"
            )
        if gold_texts != sys_texts:
            i = next(i for i, (g, s) in enumerate(zip(gold_texts, sys_texts)) if g != s)
            return AlignmentError(
                f"token text mismatch at golden line {gold_sentence.first_line + i} / "
                f"system line {sys_sentence.first_line + i}: {gold_texts[i]!r} vs {sys_texts[i]!r}"
            )
    raise AssertionError("the sentences' token texts do not differ")


def collapse_tag(tag: str, depth: int | None) -> str:
    """Rewrite a tag with a label to prefix + first ``depth`` label segments.

    ``O``, and any other tag without a hyphen, has no label and is returned
    unchanged.
    """
    prefix, sep, rest = tag.partition("-")
    if depth is None or not sep:
        return tag
    return prefix + "-" + "-".join(rest.split("-")[: max(1, depth)])


def per_tag_metrics(
    pair_counts: Mapping[tuple[str, str], int], collapse_depth: int | None = None
) -> EvalReport:
    """Precision/recall/F1 per tag (percent), macro over non-all-zero tags.

    ``pair_counts`` maps each (golden tag, system tag) pair to its token
    count, as ``align`` returns it; each distinct tag is collapsed once and
    each distinct pair counted once. O is scored in the per-tag table when
    present but never enters the macro. Values are kept at full precision;
    rounding happens only at rendering.
    """
    if not pair_counts:
        raise DataError("nothing to score: empty pair counts")
    true_positive: Counter[str] = Counter()
    false_positive: Counter[str] = Counter()
    false_negative: Counter[str] = Counter()
    collapsed = {tag: collapse_tag(tag, collapse_depth) for tag in set(chain.from_iterable(pair_counts))}
    for (gold, system), count in pair_counts.items():
        gold, system = collapsed[gold], collapsed[system]
        if gold == system:
            true_positive[gold] += count
        else:
            false_negative[gold] += count
            false_positive[system] += count
    tags = sorted(true_positive.keys() | false_positive.keys() | false_negative.keys())
    report = EvalReport(collapse_depth=collapse_depth)
    for tag in tags:
        tp, fp, fn = true_positive[tag], false_positive[tag], false_negative[tag]
        precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
        recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        report.per_tag[tag] = TagMetrics(precision, recall, f1, support=tp + fn)
    counted = [
        tag
        for tag in tags
        if tag != "O"
        and (report.per_tag[tag].precision, report.per_tag[tag].recall, report.per_tag[tag].f1)
        != (0.0, 0.0, 0.0)
    ]
    report.counted_tags = counted
    if counted:
        report.macro = (
            sum(report.per_tag[t].precision for t in counted) / len(counted),
            sum(report.per_tag[t].recall for t in counted) / len(counted),
            sum(report.per_tag[t].f1 for t in counted) / len(counted),
        )
    return report


def coarse_report(pair_counts: Mapping[tuple[str, str], int]) -> dict[str, tuple[int, float]]:
    """Entity counts and shares of the Person/Location/Organization buckets in the system file.

    The system tag counts are the system column of ``pair_counts``; the
    system file must have passed the strict check (``Alignment.system_error``
    is None).
    """
    system_counts: Counter[str] = Counter()
    for (_, system), count in pair_counts.items():
        system_counts[system] += count
    return compute_stats(system_counts).coarse_counts


def round1(value: float) -> float:
    """Half-up rounding to one decimal, applied only when rendering."""
    return float(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def render_text(report: EvalReport, include_o: bool = False) -> str:
    lines = ["tag\tprecision\trecall\tf1\tsupport"]
    for tag in sorted(report.per_tag):
        if tag == "O" and not include_o:
            continue
        m = report.per_tag[tag]
        lines.append(
            f"{tag}\t{round1(m.precision):.1f}\t{round1(m.recall):.1f}"
            f"\t{round1(m.f1):.1f}\t{m.support}"
        )
    p, r, f1 = report.macro
    lines.append(
        f"macro ({len(report.counted_tags)} tags)\t{round1(p):.1f}\t{round1(r):.1f}\t{round1(f1):.1f}"
    )
    if report.collapse_depth is not None:
        lines.append(f"collapse_depth\t{report.collapse_depth}")
    return "\n".join(lines) + "\n"


def render_json(
    report: EvalReport,
    include_o: bool = False,
    coarse: dict[str, tuple[int, float]] | None = None,
) -> str:
    """The ``eval.json`` text; ``coarse`` (from coarse_report) adds system_coarse_counts."""
    payload = {
        "collapse_depth": report.collapse_depth,
        "macro": {
            "precision": round1(report.macro[0]),
            "recall": round1(report.macro[1]),
            "f1": round1(report.macro[2]),
        },
        "counted_tags": report.counted_tags,
        "per_tag": {
            tag: {
                "precision": round1(m.precision),
                "recall": round1(m.recall),
                "f1": round1(m.f1),
                "support": m.support,
            }
            for tag, m in sorted(report.per_tag.items())
            if include_o or tag != "O"
        },
    }
    if coarse is not None:
        payload["system_coarse_counts"] = coarse_json(coarse)
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
