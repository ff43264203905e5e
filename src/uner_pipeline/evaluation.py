"""Token-level scoring of a system corpus against a golden corpus, and the
``eval.txt``/``eval.json`` reports.

Tags are scored as the plain strings the CoNLL files hold. B-X and I-X count
as distinct classes. Per-tag precision/recall/F1 are computed from
token-level confusion counts with the 0/0 -> 0 convention, and the macro
mean runs over tags whose three values are not all zero. An optional
collapse depth rewrites every non-O tag to its prefix plus the first d label
segments before counting, scoring the hierarchy coarsely. ``eval.json``
holds the collapse depth, the macro, the counted tags, the per-tag table and,
when the caller passes them, the system file's coarse Person/Location/
Organization counts.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, NamedTuple

from .annotator import AnnotatedCorpus, read_conll_events
from .errors import AlignmentError, DataError
from .stats import coarse_json, compute_stats


class TagPair(NamedTuple):
    """One aligned token with its golden and system tags."""

    token_text: str
    gold: str
    system: str


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


def align(golden: Iterable[str], system: Iterable[str]) -> list[TagPair]:
    """Position-wise pairing of two CoNLL streams.

    Document ids, sentence boundaries, and token texts must coincide; the
    first divergence aborts with both line numbers.
    """
    golden_docs = list(read_conll_events(golden))
    system_docs = list(read_conll_events(system))
    if len(golden_docs) != len(system_docs):
        raise AlignmentError(
            f"document count differs: golden has {len(golden_docs)}, system has {len(system_docs)}"
        )
    pairs: list[TagPair] = []
    for (gold_id, gold_sentences), (sys_id, sys_sentences) in zip(golden_docs, system_docs):
        if gold_id != sys_id:
            raise AlignmentError(f"document id mismatch: golden {gold_id!r} vs system {sys_id!r}")
        if len(gold_sentences) != len(sys_sentences):
            raise AlignmentError(
                f"document {gold_id}: golden has {len(gold_sentences)} sentences, "
                f"system has {len(sys_sentences)}"
            )
        for gold_sentence, sys_sentence in zip(gold_sentences, sys_sentences):
            if len(gold_sentence) != len(sys_sentence):
                raise AlignmentError(
                    f"sentence length mismatch near golden line {gold_sentence[0][2]} "
                    f"/ system line {sys_sentence[0][2]}"
                )
            for (g_text, g_tag, g_line), (s_text, s_tag, s_line) in zip(gold_sentence, sys_sentence):
                if g_text != s_text:
                    raise AlignmentError(
                        f"token text mismatch at golden line {g_line} / system line {s_line}: "
                        f"{g_text!r} vs {s_text!r}"
                    )
                pairs.append(TagPair(g_text, g_tag, s_tag))
    return pairs


def collapse_tag(tag: str, depth: int | None) -> str:
    """Rewrite a non-O tag to prefix + first ``depth`` label segments."""
    if depth is None or tag == "O":
        return tag
    prefix, _, rest = tag.partition("-")
    segments = rest.split("-")
    return prefix + "-" + "-".join(segments[: max(1, depth)])


def per_tag_metrics(pairs: list[TagPair], collapse_depth: int | None = None) -> EvalReport:
    """Precision/recall/F1 per tag (percent), macro over non-all-zero tags.

    O is scored in the per-tag table when present but never enters the macro.
    Values are kept at full precision; rounding happens only at rendering.
    """
    if not pairs:
        raise DataError("nothing to score: empty pair list")
    true_positive: Counter[str] = Counter()
    false_positive: Counter[str] = Counter()
    false_negative: Counter[str] = Counter()
    for _, gold, system in pairs:
        if collapse_depth is not None:
            gold, system = collapse_tag(gold, collapse_depth), collapse_tag(system, collapse_depth)
        if gold == system:
            true_positive[gold] += 1
        else:
            false_negative[gold] += 1
            false_positive[system] += 1
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


def coarse_report(corpus: AnnotatedCorpus) -> dict[str, tuple[int, float]]:
    """Entity counts and shares for the Person/Location/Organization buckets."""
    return compute_stats(corpus).coarse_counts


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
