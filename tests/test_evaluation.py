import pytest

from docalign import evaluation
from docalign.align_cda import AlignmentPair
from docalign.corpus import domain_of
from docalign.errors import FormatError, UsageError


def pred(purl, ourl, score=0.9):
    return AlignmentPair(
        domain="d.com", pivot_url=purl, other_url=ourl,
        other_lang="fr", score=score, method="cda",
    )


def gold_of(pairs):
    """Gold pairs as ``load_gold`` returns them: each mapped to its domain."""
    return {pair: domain_of(pair[0]) for pair in pairs}


GOLD4 = gold_of([
    ("http://a.com/e1", "http://a.com/f1"),
    ("http://a.com/e2", "http://a.com/f2"),
    ("http://b.com/e3", "http://b.com/f3"),
    ("http://b.com/e4", "http://b.com/f4"),
])


class TestEvaluateRecall:
    def test_three_of_four(self):
        preds = [pred("http://a.com/e1", "http://a.com/f1"),
                 pred("http://a.com/e2", "http://a.com/f2"),
                 pred("http://b.com/e3", "http://b.com/f3"),
                 pred("http://b.com/e4", "http://b.com/f9")]
        report = evaluation.evaluate_recall(preds, GOLD4)
        assert report.recall == pytest.approx(75.0)
        assert (report.found, report.total) == (3, 4)

    def test_perfect(self):
        preds = [pred(p, o) for p, o in GOLD4]
        report = evaluation.evaluate_recall(preds, GOLD4)
        assert report.recall == 100.0

    def test_empty_predictions(self):
        assert evaluation.evaluate_recall([], GOLD4).recall == 0.0

    def test_empty_gold_rejected(self):
        with pytest.raises(UsageError):
            evaluation.evaluate_recall([], {})

    def test_refilter_enforces_one_to_one(self):
        # the same pivot predicted twice: only the higher-scored pair counts
        preds = [pred("http://a.com/e1", "http://a.com/f9", score=0.95),
                 pred("http://a.com/e1", "http://a.com/f1", score=0.90)]
        report = evaluation.evaluate_recall(preds, GOLD4, enforce_one_to_one=True)
        assert report.found == 0
        report = evaluation.evaluate_recall(preds, GOLD4, enforce_one_to_one=False)
        assert report.found == 1

    def test_refilter_is_per_language(self):
        # a pivot page links one page per other language; its higher-scored
        # German pair does not push out its French gold pair
        fr = pred("http://a.com/en/1", "http://a.com/fr/1", score=0.8)
        de = AlignmentPair(domain="a.com", pivot_url="http://a.com/en/1",
                           other_url="http://a.com/de/9", other_lang="de",
                           score=0.9, method="cda")
        gold = gold_of([("http://a.com/en/1", "http://a.com/fr/1")])
        assert evaluation.evaluate_recall([fr, de], gold).recall == 100.0
        assert evaluation.refilter_one_to_one([fr, de]) == [de, fr]

    def test_refilter_idempotent_on_one_to_one_input(self):
        preds = [pred(p, o) for p, o in sorted(GOLD4)]
        once = evaluation.refilter_one_to_one(preds)
        twice = evaluation.refilter_one_to_one(once)
        assert [(p.pivot_url, p.other_url) for p in once] == \
               [(p.pivot_url, p.other_url) for p in twice]

    def test_case_insensitive_url_match(self):
        preds = [pred("HTTP://A.COM/E1", "http://a.com/F1")]
        assert evaluation.evaluate_recall(preds, GOLD4).found == 1

    def test_non_gold_pair_never_increases_recall(self):
        preds = [pred("http://a.com/e1", "http://a.com/f1")]
        base = evaluation.evaluate_recall(preds, GOLD4).found
        noisy = preds + [pred("http://a.com/e9", "http://a.com/f8", score=0.1)]
        assert evaluation.evaluate_recall(noisy, GOLD4).found == base

    def test_per_domain_sums_to_found(self):
        preds = [pred("http://a.com/e1", "http://a.com/f1"),
                 pred("http://b.com/e3", "http://b.com/f3")]
        report = evaluation.evaluate_recall(preds, GOLD4)
        assert sum(row["found"] for row in report.per_domain.values()) == report.found
        assert sum(row["total"] for row in report.per_domain.values()) == report.total
        assert report.per_domain["a.com"] == {"found": 1, "total": 2}


class TestGoldIO:
    def test_load(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("http://A.com/e1\thttp://a.com/f1\nhttp://a.com/e2\thttp://a.com/f2\n")
        gold = evaluation.load_gold(path)
        assert gold == {("http://a.com/e1", "http://a.com/f1"): "a.com",
                        ("http://a.com/e2", "http://a.com/f2"): "a.com"}
        assert evaluation.evaluate_recall([], gold).per_domain == {
            "a.com": {"found": 0, "total": 2}}

    def test_reused_url_rejected(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("e1\tf1\ne2\tf1\n")
        with pytest.raises(FormatError, match=r"gold\.tsv:2: URL 'f1' appears in two "):
            evaluation.load_gold(path)

    @pytest.mark.parametrize("text", ["e1\tf1\nf1\tf2\n", "e1\tf1\ne2\te1\n",
                                      "e1\tf1\ne2\te2\n"])
    def test_url_on_both_sides_rejected(self, tmp_path, text):
        path = tmp_path / "gold.tsv"
        path.write_text(text)
        with pytest.raises(FormatError, match=r"gold\.tsv:2: URL '.*' is both a pivot"):
            evaluation.load_gold(path)

    def test_pivot_page_with_one_counterpart_per_language(self, tmp_path):
        path = tmp_path / "gold.tsv"
        langs = ["fr", "de", "es", "it"]
        path.write_text("".join(f"http://a.com/en/1\thttp://a.com/{lang}/1\n"
                                for lang in langs))
        gold = evaluation.load_gold(path)
        assert len(gold) == 4
        preds = [AlignmentPair(domain="a.com", pivot_url="http://a.com/en/1",
                               other_url=f"http://a.com/{lang}/1", other_lang=lang,
                               score=0.5, method="cda") for lang in langs]
        assert evaluation.evaluate_recall(preds, gold).recall == 100.0

    # urlsplit's ValueError escaped as a traceback
    @pytest.mark.parametrize("url, reason", [
        ("http://[::1/x", "Invalid IPv6 URL"),
        ("http://[zz]/x", "'zz' does not appear to be an IPv4 or IPv6 address"),
        ("http://x\u2100y.com/p", "netloc 'x\u2100y.com' contains invalid characters "
                                   "under NFKC normalization"),
    ])
    def test_pivot_url_urllib_cannot_split(self, tmp_path, url, reason):
        path = tmp_path / "gold.tsv"
        path.write_text(f"http://a.com/e1\thttp://a.com/f1\n{url}\thttp://a.com/f2\n",
                        encoding="utf-8")
        with pytest.raises(FormatError) as info:
            evaluation.load_gold(path)
        assert str(info.value) == f"{path}:2: URL {url!r} cannot be split: {reason}"

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("justone\n")
        with pytest.raises(FormatError):
            evaluation.load_gold(path)


class TestFormatReport:
    def test_human_readable(self):
        report = evaluation.evaluate_recall(
            [pred("http://a.com/e1", "http://a.com/f1")], GOLD4
        )
        text = evaluation.format_report(report)
        assert "25.00%" in text
        assert "a.com" in text
