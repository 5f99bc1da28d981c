"""Canonical JSON encoding, parsing, and diagram rendering."""

import itertools
import json
import random

import pytest

from circmdd import (
    MalformedDocumentError,
    RenderSpec,
    UnsupportedArityError,
    build_coherent_mdd,
    build_network,
    distance_table,
    distances,
    encode,
    enumerate_mdds,
    fan_report,
    hilbert_basis,
    homogeneous_lattice,
    octant,
    parse_mdd_document,
    render,
    route_counts,
    validate_mdd,
)
from circmdd.errors import CircmddError
from circmdd.network import _CellStore, packed_width
from circmdd.serialize import (
    _CellTexts,
    canonical_json,
    enumeration_json,
    lattice_payload,
    net_info_json,
)

from oracles import enumeration_payload, net_info_payload


def test_mdd_golden_encoding():
    net = build_network(4, [1, 3])
    mdd = build_coherent_mdd(net, (1, 2))
    assert encode(mdd) == (
        '{"network":{"n":4,"steps":[1,3]},"cells":['
        '{"vertex":0,"path":[0,0]},{"vertex":1,"path":[1,0]},'
        '{"vertex":2,"path":[2,0]},{"vertex":3,"path":[0,1]}]}'
    )


def test_fan_encoding_has_count():
    report = fan_report(build_network(9, [1, 4, 7]))
    doc = json.loads(encode(report))
    assert doc["mdd_count"] == 9
    assert len(doc["walls"]) == 9
    assert doc["network"] == {"n": 9, "steps": [1, 4, 7]}


def test_hilbert_and_table_encoding_shape():
    # encode covers the four printed documents only: a Hilbert basis is
    # written as an octant of `lattice hilbert`, and no routing table is
    net = build_network(9, [1, 4, 7])
    lat = homogeneous_lattice(net)
    basis = hilbert_basis(octant(lat, "-++"))
    doc = lattice_payload(lat, [basis])["octants"][0]
    assert doc["octant"] == "-++"
    assert sorted(map(tuple, doc["elements"])) == sorted(basis.elements)
    for value in (basis, distance_table(net)):
        with pytest.raises(TypeError):
            encode(value)


def test_encoding_stable_and_injective():
    net = build_network(10, [1, 6])
    mdds = enumerate_mdds(net).mdds
    texts = [encode(m) for m in mdds]
    assert len(set(texts)) == len(mdds)
    assert texts == [encode(m) for m in mdds]


def test_round_trip_every_enumerated_diagram():
    for n, steps in [(10, [1, 6]), (9, [1, 4, 7]), (8, [1, 3, 5, 7])]:
        net = build_network(n, steps)
        for mdd in enumerate_mdds(net).mdds:
            parsed_net, cells = parse_mdd_document(encode(mdd))
            assert parsed_net == net
            assert validate_mdd(parsed_net, cells) == mdd


def test_parse_rejects_malformed_documents():
    with pytest.raises(MalformedDocumentError):
        parse_mdd_document("not json")
    with pytest.raises(MalformedDocumentError):
        parse_mdd_document('{"cells":[]}')
    with pytest.raises(MalformedDocumentError):
        parse_mdd_document('{"network":{"n":4,"steps":[1,3]},"cells":[]}')
    with pytest.raises(MalformedDocumentError):
        parse_mdd_document(
            '{"network":{"n":4,"steps":[1,3]},"cells":['
            '{"vertex":0,"path":[0,0]},{"vertex":0,"path":[0,0]},'
            '{"vertex":2,"path":[2,0]},{"vertex":3,"path":[0,1]}]}'
        )


def test_encode_rejects_unknown_types():
    with pytest.raises(TypeError):
        encode(42)
    # a plain tuple equals a diagram of the same fields, but is not one
    mdd = build_coherent_mdd(build_network(9, [1, 4]), (1, 2))
    assert tuple(mdd) == mdd
    with pytest.raises(TypeError):
        encode(tuple(mdd))


def test_ascii_l_shape():
    net = build_network(9, [1, 4])
    mdd = build_coherent_mdd(net, (1, 2))
    assert render(mdd, RenderSpec("ascii")) == "8\n4 5 6 7\n0 1 2 3"


def test_ascii_single_loop_row():
    net = build_network(5, [1])
    mdd = build_coherent_mdd(net, (1,))
    assert render(mdd, RenderSpec("ascii")) == "0 1 2 3 4"


def test_ascii_rejects_three_steps():
    net = build_network(9, [1, 4, 7])
    mdd = enumerate_mdds(net).mdds[0]
    with pytest.raises(UnsupportedArityError):
        render(mdd, RenderSpec("ascii"))


def test_ascii_contains_each_vertex_once():
    net = build_network(10, [1, 6])
    for mdd in enumerate_mdds(net).mdds:
        text = render(mdd, RenderSpec("ascii"))
        assert sorted(int(tok) for tok in text.split()) == list(range(10))


def test_svg_three_step_slices_label_every_vertex_once():
    net = build_network(9, [1, 4, 7])
    for mdd in enumerate_mdds(net).mdds:
        svg = render(mdd, RenderSpec("svg"))
        labels = [
            int(part.split("<")[0])
            for part in svg.split(">")
            if part.split("<")[0].strip().isdigit()
        ]
        assert sorted(labels) == list(range(9))
        assert svg.startswith("<svg ") and svg.endswith("</svg>")


def test_svg_two_step_single_slice():
    net = build_network(9, [1, 4])
    mdd = build_coherent_mdd(net, (1, 2))
    svg = render(mdd, RenderSpec("svg"))
    assert svg.count("<rect") == 9
    assert svg.count("<text") == 9


def test_svg_layer_axis_choices_are_deterministic():
    net = build_network(9, [1, 4, 7])
    mdd = enumerate_mdds(net).mdds[0]
    for axis in (0, 1, 2):
        one = render(mdd, RenderSpec("svg", layer_axis=axis))
        two = render(mdd, RenderSpec("svg", layer_axis=axis))
        assert one == two
    with pytest.raises(ValueError):
        render(mdd, RenderSpec("svg", layer_axis=5))


def test_svg_rejects_four_steps():
    net = build_network(8, [1, 3, 5, 7])
    mdd = enumerate_mdds(net).mdds[0]
    with pytest.raises(UnsupportedArityError):
        render(mdd, RenderSpec("svg"))


def test_json_format_matches_encode():
    net = build_network(9, [1, 4])
    mdd = build_coherent_mdd(net, (1, 2))
    assert render(mdd, RenderSpec("json")) == encode(mdd)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_cell_texts_write_the_decoded_cell(r):
    # n at the edges of the field width (255, 256 and 257 take 9, 10
    # and 10 bits), every field 0 or n - 1, looked up twice
    for n in (2, 3, 255, 256, 257, 40009):
        width = packed_width(n)
        cells, texts = _CellStore(n, r), _CellTexts(width, r)
        for cell in itertools.product((0, n - 1), repeat=r):
            code = sum(c << width * (r - 1 - j) for j, c in enumerate(cell))
            expected = "[" + ",".join(map(str, cells[code])) + "]"
            assert cells[code] == cell
            assert texts[code] == texts[code] == expected, (n, cell)
        assert len(texts) == 2**r


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_enumeration_json_is_the_oracle_document_on_random_networks(r):
    # coherence is decided for at most four steps, so five-step networks
    # are written in mode "all" only
    modes = ("all", "coherent_only") if r <= 4 else ("all",)
    rng = random.Random(1900 + r)
    checked = 0
    while checked < 80:
        n = rng.randrange(r + 1, 110)
        try:
            net = build_network(n, rng.sample(range(1, n), r))
            results = [(mode, enumerate_mdds(net, mode, budget=200_000)) for mode in modes]
        except CircmddError:
            continue
        for mode, result in results:
            expected = canonical_json(enumeration_payload(net, mode, result))
            assert enumeration_json(net, mode, result) == expected, (net, mode)
        checked += 1


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_net_info_json_is_the_oracle_document_on_random_networks(r):
    # n = r + 1 first: C2(1) for a single step; five steps on up to 300
    # vertices reach route counts of several digits
    rng = random.Random(2000 + r)
    checked = 0
    while checked < 60:
        n = r + 1 if not checked else rng.randrange(r + 1, 300)
        try:
            net = build_network(n, rng.sample(range(1, n), r))
        except CircmddError:
            continue
        dist = distances(net)
        counts = route_counts(net, dist)
        expected = canonical_json(net_info_payload(net, dist, counts))
        assert net_info_json(net, dist, counts) == expected, net
        checked += 1
