import pytest
from hypothesis import given
from hypothesis import strategies as st

from nextpage.errors import GraphFormatError, ModLogFormatError, ValidationError
from nextpage.sitegraph import (
    ModificationLog,
    SiteGraph,
    _check_url,
    parse_graph,
    parse_modlog,
    render_graph,
)

from strategies import site_graphs


class TestParseGraph:
    def test_micro_site(self, micro_graph_text, micro_site):
        g = parse_graph(micro_graph_text)
        assert g == micro_site
        assert g.pages == ("H", "S", "M", "a", "b", "c")
        assert g.links["S"] == ("a", "b")
        assert g.links["b"] == ()
        assert g.dominants == ("S", "M")
        assert g.home == "H"

    def test_comments_and_blank_lines(self):
        g = parse_graph("# top\n\na -> b   # trailing\nb ->\n@dominant a\n")
        assert g.pages == ("a", "b")
        assert g.links["a"] == ("b",)

    def test_dominant_lines_accumulate(self):
        g = parse_graph("a -> b\nb -> c\nc ->\n@dominant a\n@dominant b c\n")
        assert g.dominants == ("a", "b", "c")

    def test_dominants_fall_back_to_home_links(self):
        g = parse_graph("h -> a b a\na ->\nb ->\n@home h\n")
        # deduped, file order
        assert g.dominants == ("a", "b")

    def test_duplicate_links_kept(self):
        g = parse_graph("a -> b b\nb ->\n@dominant a\n")
        assert g.links["a"] == ("b", "b")

    def test_self_link_allowed(self):
        g = parse_graph("a -> a\n@dominant a\n")
        assert g.links["a"] == ("a",)

    @pytest.mark.parametrize(
        "text,fragment,lineno",
        [
            ("a -> z\n@dominant a\n", "unknown page z", 1),
            ("a ->\nb -> a z\n@dominant a\n", "unknown page z", 2),
            ("a -> b\nb ->\na ->\n@dominant a\n", "duplicate page a", 3),
            ("a b\n@dominant a\n", "expected", 1),
            ("a\n@dominant a\n", "expected", 1),
            ("@dominant\na ->\n", "@dominant needs", 1),
            ("a ->\n@home\n", "@home needs exactly one", 2),
            ("a ->\n@home a\n@home a\n", "duplicate @home", 3),
            ("a ->\n@zoom a\n", "unknown directive @zoom", 2),
            ("a -> b;c\n@dominant a\n", "illegal character", 1),
            ("a,b ->\n@dominant a,b\n", "illegal character", 1),
        ],
    )
    def test_line_errors(self, text, fragment, lineno):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert fragment in str(exc.value)
        assert f"line {lineno}:" in str(exc.value)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "no pages"),
            ("# only comments\n", "no pages"),
            ("a -> b\nb ->\n@dominant z\n", "unknown page z in @dominant"),
            ("a ->\n@dominant a a\n", "duplicate page in @dominant"),
            ("a ->\n@home z\n", "unknown page z in @home"),
            ("a -> b\nb ->\n", "no @dominant pages and no @home"),
            ("h ->\n@home h\n", "has no out-links"),
        ],
    )
    def test_file_errors(self, text, fragment):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert fragment in str(exc.value)


class TestSiteGraphValidation:
    def test_links_must_cover_pages(self):
        with pytest.raises(ValidationError):
            SiteGraph(pages=("a", "b"), links={"a": ()}, dominants=("a",))
        with pytest.raises(ValidationError):
            SiteGraph(
                pages=("a",), links={"a": (), "b": ()}, dominants=("a",)
            )

    def test_link_targets_must_exist(self):
        with pytest.raises(ValidationError):
            SiteGraph(pages=("a",), links={"a": ("z",)}, dominants=("a",))

    def test_dominants_checked(self):
        with pytest.raises(ValidationError):
            SiteGraph(pages=("a",), links={"a": ()}, dominants=())
        with pytest.raises(ValidationError):
            SiteGraph(pages=("a",), links={"a": ()}, dominants=("z",))
        with pytest.raises(ValidationError):
            SiteGraph(pages=("a",), links={"a": ()}, dominants=("a", "a"))

    def test_home_checked(self):
        with pytest.raises(ValidationError):
            SiteGraph(pages=("a",), links={"a": ()}, dominants=("a",), home="z")

    @pytest.mark.parametrize("bad", ["", "@x", "->", "a b", "a,b", "a;b", "a#b"])
    def test_bad_urls(self, bad):
        with pytest.raises(ValidationError):
            SiteGraph(pages=(bad,), links={bad: ()}, dominants=(bad,))

    @given(st.text(alphabet=st.sampled_from("ab@->,;#\t \u00a0\u2028\u3000\x1c"), max_size=5))
    def test_url_rule_is_per_character(self, url):
        """A URL is illegal when empty, '->' or starting with '@', and has an
        illegal character when any of its characters is ',', ';', '#' or
        whitespace by str.isspace."""
        if not url or url.startswith("@") or url == "->":
            expected = "illegal URL"
        elif any(c in ",;#" or c.isspace() for c in url):
            expected = "illegal character in URL"
        else:
            expected = None
        try:
            _check_url(url)
            message = None
        except ValidationError as e:
            message = str(e)
        assert (message and message[: message.index("URL") + 3]) == expected


class TestRenderRoundTrip:
    def test_micro_site(self, micro_site):
        assert parse_graph(render_graph(micro_site)) == micro_site

    @given(site_graphs())
    def test_round_trip(self, g):
        assert parse_graph(render_graph(g)) == g


class TestModificationLog:
    def test_latest_takes_last_entry(self):
        log = ModificationLog(entries=(("a", 3), ("b", 4), ("a", 9)))
        assert log.latest() == {"a": 9, "b": 4}

    def test_empty(self):
        assert ModificationLog().latest() == {}

    def test_equal_ticks_allowed(self):
        ModificationLog(entries=(("a", 5), ("a", 5)))

    def test_decreasing_ticks_rejected(self):
        with pytest.raises(ValidationError):
            ModificationLog(entries=(("a", 5), ("a", 4)))

    def test_negative_tick_rejected(self):
        with pytest.raises(ValidationError):
            ModificationLog(entries=(("a", -1),))

    def test_parse(self):
        log = parse_modlog("# changes\n10 a\n12 b\n\n20 a\n")
        assert log.entries == (("a", 10), ("b", 12), ("a", 20))

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("10\n", "line 1:"),
            ("10 a b\n", "line 1:"),
            ("x a\n", "bad tick 'x'"),
            ("5 a\n3 a\n", "ticks decrease"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ModLogFormatError) as exc:
            parse_modlog(text)
        assert fragment in str(exc.value)
