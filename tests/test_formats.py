import pytest
from hypothesis import given, settings

from strategies import connected_multigraphs
from zonoharm.errors import ParseError
from zonoharm.formats import parse_arrangement, parse_graph, serialize_graph


class TestGraphFormat:
    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# heading\n\nvertex a\nvertex b  # trailing\narrow 1 a b\n")
        assert g.vertices == ("a", "b")
        assert g.arrows[0].tail == "a"

    def test_unknown_vertex(self):
        with pytest.raises(ParseError) as err:
            parse_graph("vertex a\narrow 1 a b\n")
        assert err.value.line == 2

    def test_duplicate_arrow_id(self):
        with pytest.raises(ParseError):
            parse_graph("vertex a\narrow 1 a a\narrow 1 a a\n")

    def test_bad_directive(self):
        with pytest.raises(ParseError) as err:
            parse_graph("vertx a\n")
        assert (err.value.line, err.value.column) == (1, 1)

    def test_non_integer_id(self):
        with pytest.raises(ParseError):
            parse_graph("vertex a\narrow one a a\n")

    @given(connected_multigraphs(max_edges=6))
    @settings(max_examples=30)
    def test_roundtrip(self, g):
        assert parse_graph(serialize_graph(g)) == g


class TestArrangementFormat:
    def test_parse_house(self, house_arrangement):
        assert house_arrangement.lattice_rank == 2
        assert house_arrangement.ground == ("e1", "e2", "e3", "e4", "e5", "e6")

    def test_rank_must_come_first(self):
        with pytest.raises(ParseError):
            parse_arrangement("col a 1\nrank 1\n")

    def test_wrong_arity(self):
        with pytest.raises(ParseError) as err:
            parse_arrangement("rank 2\ncol a 1\n")
        assert err.value.line == 2

    def test_missing_rank(self):
        with pytest.raises(ParseError):
            parse_arrangement("# nothing\n")

    def test_non_spanning_rejected(self):
        with pytest.raises(ParseError):
            parse_arrangement("rank 2\ncol a 1 0\ncol b 2 0\n")

    def test_rank_zero(self):
        va = parse_arrangement("rank 0\ncol a\ncol b\n")
        assert va.lattice_rank == 0
        assert va.size == 2
