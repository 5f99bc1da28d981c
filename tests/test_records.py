"""Value semantics of the records circmdd exports.

Every record is an immutable named tuple: equal fields give equal
records with equal hashes, a field cannot be assigned, and repr names
the type and its fields. OctantSemigroup checks its signs however it is
made.
"""

import pytest

import circmdd
from circmdd import (
    ArityMismatchError,
    OctantSemigroup,
    RenderSpec,
    RoutingConstraint,
    build_coherent_mdd,
    build_network,
    distance_table,
    enumerate_mdds,
    fan_report,
    hilbert_basis,
    homogeneous_lattice,
    is_coherent,
    octant,
    staircase_generators,
    verify_family,
)

RECORDS = {
    "CirculantNetwork", "CoherenceResult", "DistanceTable", "EnumerationResult",
    "FamilyNetwork", "FamilyVerification", "FanReport", "HilbertBasis",
    "HomogeneousLattice", "Mdd", "OctantSemigroup", "RayCandidate", "RenderSpec",
    "RoutingConstraint", "Staircase", "Wall", "WallRejection",
}


def samples():
    """One record of each exported type, most of them computed."""
    net = build_network(56, [9, 17, 33])
    mdd = build_coherent_mdd(net, (7, 2, 0), tie_policy="lex")
    lat = homogeneous_lattice(net)
    oct = octant(lat, "-++")
    report = fan_report(net)
    # every candidate ray of C23(2,9,13) fails a wall check
    rejection = fan_report(build_network(23, [2, 9, 13])).rejections[0]
    verification = verify_family(2)
    records = [
        net, distance_table(net), mdd, enumerate_mdds(build_network(10, [1, 6])),
        is_coherent(mdd), RoutingConstraint(3, (1, 0, 2), (0, 3, 0)), lat, oct,
        hilbert_basis(oct), report, report.candidates[0], report.walls[0],
        rejection, verification, verification.family,
        RenderSpec(format="svg"), staircase_generators(mdd),
    ]
    return {type(record).__name__: record for record in records}


SAMPLES = samples()


def test_every_exported_record_is_a_named_tuple():
    exported = {
        name for name in circmdd.__all__
        if isinstance(getattr(circmdd, name), type) and hasattr(getattr(circmdd, name), "_fields")
    }
    assert exported == RECORDS == set(SAMPLES)
    for name in RECORDS:
        assert issubclass(getattr(circmdd, name), tuple), name


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_value_semantics(name):
    record = SAMPLES[name]
    cls = type(record)
    # equality and hash go by the fields
    twin = cls(*record)
    assert twin == record and hash(twin) == hash(record)
    # a record is a tuple of its fields, and equals the plain one
    assert tuple(record) == tuple(getattr(record, f) for f in cls._fields) == record
    changed = (1, -1, 1) if name == "OctantSemigroup" else object()
    other = record._replace(**{cls._fields[-1]: changed})
    assert type(other) is cls and other != record
    # no field can be assigned
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    # repr names the type and each field
    text = repr(record)
    assert text.startswith(f"{name}(")
    for field in cls._fields:
        assert f"{field}=" in text, field


def test_render_spec_keeps_its_defaults():
    assert RenderSpec() == RenderSpec("ascii", 2)
    assert RenderSpec(layer_axis=0)._fields == ("format", "layer_axis")


@pytest.mark.parametrize("make", ["call", "make", "replace"])
def test_octant_rejects_bad_signs_however_made(make):
    lat = homogeneous_lattice(build_network(9, [1, 4, 7]))
    good = OctantSemigroup(lat, (-1, 1, 1))
    build = {
        "call": lambda signs: OctantSemigroup(lat, signs),
        "make": lambda signs: OctantSemigroup._make([lat, signs]),
        "replace": lambda signs: good._replace(signs=signs),
    }[make]
    with pytest.raises(ArityMismatchError) as info:
        build((-1, 1))
    assert str(info.value) == "sign pattern length does not match the lattice dimension"
    assert info.value.details == {"expected": 3, "got": 2}
    with pytest.raises(ValueError, match=r"signs must be \+1 or -1, got \(0, 1, 1\)"):
        build((0, 1, 1))
    assert build((1, 1, -1)).signs == (1, 1, -1)
