import time

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

    @pytest.mark.parametrize(
        "text, where",
        [
            # the head '1' also occurs earlier on the line, as the arrow id
            ("vertex a\narrow 1 a 1\n", (2, 11)),
            # two spaces before the label
            ("vertex  a\nvertex  a\n", (2, 9)),
            ("  vertx a\n", (1, 3)),
            ("vertex a\narrow 1 a   b\n", (2, 13)),
        ],
    )
    def test_error_column_is_the_token_start(self, text, where):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert (err.value.line, err.value.column) == where

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

    @pytest.mark.parametrize(
        "text, where",
        [
            # where: (line, column, message)
            ("rank 2\ncol a 1  z\n", (2, 10, "column entries must be integers")),
            ("rank  -1\n", (1, 7, "rank must be non-negative")),
            ("rank 1\ncol a 1\ncol  a 1\n", (3, 6, "duplicate column label 'a'")),
            ("rank 1\n rank 1\n", (2, 2, "duplicate rank line")),
            # the duplicate of the first of several labels, after a comment
            ("rank 1\ncol b 1\ncol a 1\n# c\ncol   b 2\n", (5, 7, "duplicate column label 'b'")),
        ],
    )
    def test_error_column_is_the_token_start(self, text, where):
        with pytest.raises(ParseError) as err:
            parse_arrangement(text)
        assert (err.value.line, err.value.column, err.value.message) == where

    def test_labels_are_checked_in_linear_time(self):
        # one lookup per label: ten times the columns take about ten times
        # as long, where a scan of the labels seen so far took about 70
        def best_of_three(n: int) -> float:
            text = "rank 1\n" + "".join(f"col c{i} 1\n" for i in range(n))
            times = []
            for _ in range(3):
                start = time.perf_counter()
                va = parse_arrangement(text)
                times.append(time.perf_counter() - start)
            assert va.ground[-1] == f"c{n - 1}" and va.size == n
            return min(times)

        assert best_of_three(20000) < 30 * best_of_three(2000)

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
