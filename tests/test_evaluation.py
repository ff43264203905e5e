import io
import random

import pytest

from helpers import LABEL_POOL, brute_force_metrics, corpus_from_rows, corpus_to_text
from uner_pipeline.errors import AlignmentError, DataError
from uner_pipeline.evaluation import (
    EvalReport,
    TagPair,
    align,
    collapse_tag,
    coarse_report,
    per_tag_metrics,
    render_json,
    render_text,
    round1,
)


def pairs_from(gold: list[str], system: list[str]) -> list[TagPair]:
    return [TagPair(f"t{i}", g, s) for i, (g, s) in enumerate(zip(gold, system))]


CONLL_A = "# doc_id = d1\nParis\tB-Name-Location-GPE-City\nis\tO\n\nnice\tO\ntown\tB-Name-Location-GPE-City\n\n"


class TestAlign:
    def test_identical_files(self):
        pairs = align(io.StringIO(CONLL_A), io.StringIO(CONLL_A))
        assert len(pairs) == 4
        assert all(pair.gold == pair.system for pair in pairs)

    def test_missing_token_reports_lines(self):
        broken = CONLL_A.replace("is\tO\n", "")
        with pytest.raises(AlignmentError, match="line"):
            align(io.StringIO(CONLL_A), io.StringIO(broken))

    def test_token_text_mismatch_reports_both_lines(self):
        changed = CONLL_A.replace("Paris", "London")
        with pytest.raises(AlignmentError, match="golden line 2 / system line 2"):
            align(io.StringIO(CONLL_A), io.StringIO(changed))

    def test_doc_id_mismatch(self):
        changed = CONLL_A.replace("d1", "d2")
        with pytest.raises(AlignmentError, match="document id"):
            align(io.StringIO(CONLL_A), io.StringIO(changed))

    def test_both_empty(self):
        assert align(io.StringIO(""), io.StringIO("")) == []

    def test_document_count_mismatch(self):
        with pytest.raises(AlignmentError, match="document count"):
            align(io.StringIO(CONLL_A), io.StringIO(""))


class TestPerTagMetrics:
    def test_hand_computed_example(self):
        # gold [B-X, O, B-Y], system [B-X, O, O]:
        #   B-X: TP=1 FP=0 FN=0 -> P=R=F1=100
        #   B-Y: TP=0 FP=0 FN=1 -> all zero -> excluded from macro
        report = per_tag_metrics(pairs_from(["B-X", "O", "B-Y"], ["B-X", "O", "O"]))
        assert report.per_tag["B-X"].precision == 100.0
        assert report.per_tag["B-X"].recall == 100.0
        assert report.per_tag["B-Y"].f1 == 0.0
        assert report.counted_tags == ["B-X"]
        assert report.macro == (100.0, 100.0, 100.0)

    def test_identity_gives_perfect_macro(self):
        gold = ["B-X", "I-X", "O", "B-Y", "O"]
        report = per_tag_metrics(pairs_from(gold, list(gold)))
        assert report.macro == (100.0, 100.0, 100.0)

    def test_collapse_merges_location_tags(self):
        report = per_tag_metrics(
            pairs_from(["B-Name-Location-GPE-City"], ["B-Name-Location-Region"]),
            collapse_depth=2,
        )
        assert set(report.per_tag) == {"B-Name-Location"}
        assert report.per_tag["B-Name-Location"].precision == 100.0
        assert report.per_tag["B-Name-Location"].recall == 100.0

    def test_o_never_in_macro(self):
        report = per_tag_metrics(pairs_from(["O", "B-X"], ["O", "B-X"]))
        assert "O" in report.per_tag
        assert "O" not in report.counted_tags

    def test_empty_pairs_rejected(self):
        with pytest.raises(DataError, match="empty"):
            per_tag_metrics([])

    def test_partial_scores(self):
        # gold: B-X B-X O ; system: B-X O B-X
        # B-X: TP=1 FP=1 FN=1 -> P=50 R=50 F1=50
        report = per_tag_metrics(pairs_from(["B-X", "B-X", "O"], ["B-X", "O", "B-X"]))
        m = report.per_tag["B-X"]
        assert (m.precision, m.recall, m.f1) == (50.0, 50.0, 50.0)
        assert m.support == 2

    def test_symmetry_swap_gold_system(self):
        rng = random.Random(99)
        tags = ["O"] + [f"B-{l}" for l in LABEL_POOL] + [f"I-{l}" for l in LABEL_POOL]
        gold = [rng.choice(tags) for _ in range(60)]
        system = [rng.choice(tags) for _ in range(60)]
        forward = per_tag_metrics(pairs_from(gold, system))
        backward = per_tag_metrics(pairs_from(system, gold))
        for tag, metrics in forward.per_tag.items():
            swapped = backward.per_tag[tag]
            assert metrics.precision == swapped.recall
            assert metrics.recall == swapped.precision
            assert metrics.f1 == pytest.approx(swapped.f1)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(4242)
        tags = ["O"] + [f"B-{l}" for l in LABEL_POOL] + [f"I-{l}" for l in LABEL_POOL]
        for _ in range(200):
            n = rng.randint(1, 50)
            gold = [rng.choice(tags) for _ in range(n)]
            system = [rng.choice(tags) for _ in range(n)]
            for depth in (None, 1, 2):
                report = per_tag_metrics(pairs_from(gold, system), collapse_depth=depth)
                per_tag, macro, counted = brute_force_metrics(gold, system, depth)
                assert set(report.per_tag) == set(per_tag)
                for tag, expected in per_tag.items():
                    got = report.per_tag[tag]
                    assert (got.precision, got.recall, got.f1, got.support) == expected
                assert report.macro == macro
                assert report.counted_tags == counted

    def test_collapse_monotone_true_positives(self):
        rng = random.Random(5)
        tags = [f"B-{l}" for l in LABEL_POOL] + ["O"]
        for _ in range(50):
            n = rng.randint(1, 40)
            gold = [rng.choice(tags) for _ in range(n)]
            system = [rng.choice(tags) for _ in range(n)]
            full_tp = sum(1 for g, s in zip(gold, system) if g == s and g != "O")
            collapsed = sum(
                1
                for g, s in zip(gold, system)
                if g != "O" and s != "O" and collapse_tag(g, 1) == collapse_tag(s, 1)
            )
            assert collapsed >= full_tp


class TestCollapseTag:
    def test_depth_two(self):
        assert collapse_tag("B-Name-Location-GPE-City", 2) == "B-Name-Location"

    def test_depth_beyond_label(self):
        assert collapse_tag("B-Name-God", 3) == "B-Name-God"

    def test_o_unchanged(self):
        assert collapse_tag("O", 2) == "O"


def test_coarse_report():
    corpus = corpus_from_rows(
        [
            (
                "d",
                [
                    [
                        ("p", "B-Name-Person-Name"),
                        ("c", "B-Name-Location-GPE-City"),
                        ("a", "B-Name-Product-Award"),
                    ]
                ],
            )
        ]
    )
    report = coarse_report(corpus)
    assert report["Person"][0] == 1
    assert report["Location"][0] == 1
    assert report["Organization"][0] == 0


def test_round1_half_up():
    assert round1(37.25) == 37.3
    assert round1(37.24) == 37.2
    assert round1(0.05) == 0.1
    assert round1(100.0) == 100.0


def test_renderers_smoke():
    report = per_tag_metrics(pairs_from(["B-X", "O"], ["B-X", "O"]), collapse_depth=None)
    text = render_text(report)
    assert "macro (1 tags)\t100.0\t100.0\t100.0" in text
    assert "O\t" not in text.splitlines()[1]
    payload = render_json(report, include_o=True)
    assert '"O"' in payload
