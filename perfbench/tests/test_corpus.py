"""The corpus generator yields the manifest's rank, point count and grDims
under every seed, and a seed changes the input text but not the work."""

import pytest

import corpus
from tracer import box_candidates
from zonoharm import cographical_arrangement, compute_filtration
from zonoharm.formats import parse_graph

# every family; B9 and B10 only differ from B8 in size
MEMBERS = [name for name in corpus.MANIFEST if name not in ("B9", "B10")]
SEEDS = (3, 11)


@pytest.mark.parametrize("name", MEMBERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_member_matches_manifest(name, seed):
    expected = corpus.MANIFEST[name]
    va = cographical_arrangement(parse_graph(corpus.graph_text(name, seed)))
    report = compute_filtration(va)
    assert (va.lattice_rank, va.size) == (expected.rank, expected.arrows)
    assert report.point_count == expected.point_count
    assert tuple(report.gr_dims) == expected.gr_dims


@pytest.mark.parametrize("name", list(corpus.MANIFEST))
def test_seed_changes_text_but_not_the_scanned_box(name):
    texts = [corpus.graph_text(name, seed) for seed in SEEDS]
    assert texts[0] == corpus.graph_text(name, SEEDS[0])
    assert texts[0] != texts[1]
    boxes = {box_candidates(cographical_arrangement(parse_graph(t))) for t in texts}
    assert len(boxes) == 1
