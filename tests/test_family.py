"""Geometric-step families C_N(1, q, q^2) and their lifts."""

import pytest

from circmdd import (
    BadFamilyParamsError,
    OctantSemigroup,
    SINGLE_NEGATIVE_SIGNS,
    build_family,
    build_network,
    enumerate_mdds,
    fan_report,
    hilbert_basis,
    homogeneous_lattice,
    is_coherent,
    verify_family,
)

import oracles


def test_build_family_q2():
    fam = build_family(2)
    assert fam.base == build_network(7, [1, 2, 4])
    assert fam.lifted == build_network(56, [9, 17, 33])
    assert fam.k == 8 and fam.t == 1
    assert fam.predicted_mdd_count == 12
    assert fam.hypothesis_note is None
    by_signs = dict(fam.predicted_hilbert)
    assert set(by_signs[(-1, 1, 1)]) == {(-7, 0, 7), (-3, 1, 2), (-5, 4, 1), (-7, 7, 0)}


def test_build_family_q5():
    fam = build_family(5)
    assert fam.lifted == build_network(992, [33, 161, 801])
    assert fam.predicted_mdd_count == 21
    by_signs = dict(fam.predicted_hilbert)
    assert len(by_signs[(-1, 1, 1)]) == 7
    assert (-31, 0, 31) in by_signs[(-1, 1, 1)]
    assert (-6, 1, 5) in by_signs[(-1, 1, 1)]


def test_build_family_rejects_q4():
    with pytest.raises(BadFamilyParamsError):
        build_family(4)  # q - 1 is a multiple of three


def test_build_family_rejects_small_or_bad_lift():
    with pytest.raises(BadFamilyParamsError):
        build_family(1)
    with pytest.raises(BadFamilyParamsError):
        build_family(2, k=7)  # k must exceed N
    with pytest.raises(BadFamilyParamsError):
        build_family(2, k=14)  # gcd(k, N) = 7
    with pytest.raises(BadFamilyParamsError):
        build_family(2, k=9, t=3)  # gcd(k, t) = 3


def test_build_family_q3_flagged():
    fam = build_family(3)
    assert fam.base == build_network(13, [1, 3, 9])
    assert fam.lifted == build_network(182, [15, 43, 127])
    assert fam.predicted_mdd_count == 15
    assert fam.hypothesis_note is not None


def test_family_lattice_cyclic_symmetry():
    for q in (2, 3, 5):
        lat = homogeneous_lattice(build_family(q).base)
        for b in lat.basis:
            assert lat.contains((b[2], b[0], b[1]))
            assert lat.contains((b[1], b[2], b[0]))


def test_predicted_elements_are_hilbert_members():
    # the closed form is the whole basis, element for element, up to
    # q = 50 (n = 6,510,152 on the lift, which shares the base's lattice)
    for q in range(2, 51):
        if (q - 1) % 3 == 0:
            continue
        fam = build_family(q)
        for net in (fam.base, fam.lifted):
            lat = homogeneous_lattice(net)
            for signs, expected in fam.predicted_hilbert:
                actual = hilbert_basis(OctantSemigroup(lat, signs)).elements
                assert actual == expected, (q, net, signs)


def test_verify_family_q2_full():
    v = verify_family(2)
    assert all(c.match for c in v.octant_checks)
    assert all(len(c.actual) == 4 for c in v.octant_checks)
    assert v.fan_mdd_count == 12
    assert v.fan_match
    assert v.brute_force_total_count == 12
    assert v.brute_force_coherent_count == 12
    assert v.brute_force_match
    assert v.ok


def test_verify_family_q3_fan_only():
    v = verify_family(3)
    assert all(c.match for c in v.octant_checks)
    assert v.fan_mdd_count == 15
    assert v.brute_force_total_count is None  # above the default limit
    assert v.ok


def test_verify_family_q3_with_brute_force():
    v = verify_family(3, brute_force_limit=200)
    assert v.brute_force_coherent_count == 15
    assert v.brute_force_match
    assert v.ok


@pytest.mark.parametrize("q, limit", [(2, 100), (3, 200), (5, 992)])
def test_brute_force_counts_equal_the_decoding_path(q, limit):
    # verify_family counts every diagram and the coherent ones from one
    # coherent_only search; decoding each diagram and running the full
    # is_coherent on it must count the same
    v = verify_family(q, brute_force_limit=limit)
    counts = (v.brute_force_total_count, v.brute_force_coherent_count)
    net = v.family.lifted
    assert counts == oracles.brute_force_counts_by_decoding(net, enumerate_mdds, is_coherent)
    assert v.brute_force_match and v.ok


def test_brute_force_check_decodes_no_diagram(monkeypatch):
    # the counts come from the search's leaves: no diagram is decoded
    # and no is_coherent runs
    import circmdd.coherence as coherence
    from circmdd.mdd import EnumerationResult

    def refuse(*args):
        raise AssertionError("the brute-force check decoded a diagram")

    monkeypatch.setattr(coherence, "is_coherent", refuse)
    monkeypatch.setattr(EnumerationResult, "mdds", property(refuse))
    v = verify_family(3, brute_force_limit=200)
    assert (v.brute_force_total_count, v.brute_force_coherent_count) == (15, 15)


def test_q5_brute_force_matches_the_fan():
    # every diagram of C992(33,161,801) is coherent: 21 = 3(q + 2)
    lifted = build_family(5).lifted
    assert fan_report(lifted).mdd_count == 21
    for mode in ("all", "coherent_only"):
        assert len(enumerate_mdds(lifted, mode).mdds) == 21, mode


def test_q11_brute_force_matches_the_fan():
    # the paper's count 3(q + 2) = 39 at q = 11 by a search that shares no
    # code with the fan; C17822(135,1475,16215) needs more than the
    # default budget
    lifted = build_family(11).lifted
    count = fan_report(lifted).mdd_count
    assert count == 39
    for mode in ("all", "coherent_only"):
        assert len(enumerate_mdds(lifted, mode, budget=16_000_000).mdds) == count, mode
