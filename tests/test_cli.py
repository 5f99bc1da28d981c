"""Command line surface: output schemas, exit codes, error JSON."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import circmdd
from circmdd import (
    build_coherent_mdd,
    build_family,
    build_network,
    distance_table,
    encode,
    fan_report,
    is_unique_mdd,
    network_stats,
    verify_family,
)
from circmdd.cli import _build_parser, main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    return json.loads(out)


def test_net_info():
    doc = run_json(["net", "info", "7", "1,2,4"])
    assert doc["diameter"] == 2
    assert doc["average_distance"] == {"num": 9, "den": 7}
    assert doc["dist"] == [0, 1, 1, 2, 1, 2, 2]
    assert doc["route_counts"] == [1] * 7


def count_searches(monkeypatch) -> list:
    """The networks of every breadth-first search from here on: each
    distance search of the library runs network._bfs_levels, and only
    network calls it."""
    import circmdd.network

    search = circmdd.network._bfs_levels
    calls = []

    def counted(net):
        calls.append(net)
        return search(net)

    monkeypatch.setattr(circmdd.network, "_bfs_levels", counted)
    return calls


def test_net_info_builds_no_routing_table(monkeypatch):
    # three steps read distances and route counts off the graded
    # staircase and two off the L-shaped tile, with no vertex search,
    # in the command and the library alike; one step and four or more
    # run one search. Neither the command nor the library calls that
    # need no routing fill the table cache
    distance_table.cache_clear()
    searches = count_searches(monkeypatch)
    doc = run_json(["net", "info", "56", "9,17,33"])
    assert (doc["diameter"], doc["average_distance"]) == (10, {"num": 71, "den": 14})
    assert max(doc["route_counts"]) == 10
    assert len(searches) == 0
    for steps in ("9,17", "9,17,33,40"):
        run_json(["net", "info", "56", steps])
    assert [net.r for net in searches] == [4]
    assert distance_table.cache_info().currsize == 0
    net = build_network(56, [9, 17, 33])
    assert network_stats(net) == (10, Fraction(71, 14))
    assert not is_unique_mdd(net)
    assert len(searches) == 1
    assert distance_table.cache_info().misses == 0


def test_census_builds_no_routing_table():
    # the fan and the family check build no routing vectors, distance
    # levels or cell store for these networks, with or without a unit
    # step: C30(2,22,27) has none
    distance_table.cache_clear()
    assert run_json(["fan", "56", "9,17,33"])["mdd_count"] == 12
    doc = run_json(["fan", "30", "2,22,27"])
    assert (len(doc["walls"]), doc["mdd_count"]) == (10, 10)
    net = build_network(56, [9, 17, 33])
    assert fan_report(net).mdd_count == 12
    assert verify_family(5).ok
    for lifted in (net, build_network(30, [2, 22, 27]), build_family(5).lifted):
        built = vars(distance_table(lifted))
        for name in ("levels", "cells", "_tails"):
            assert name not in built, (lifted, name)


def test_mdd_build_json_and_renders():
    doc = run_json(["mdd", "build", "9", "1,4", "--weight", "1,2"])
    assert doc["cells"][7] == {"vertex": 7, "path": [3, 1]}
    code, out, _ = run_cli(
        ["mdd", "build", "9", "1,4", "--weight", "1,2", "--format", "ascii"]
    )
    assert code == 0
    assert out == "8\n4 5 6 7\n0 1 2 3\n"
    code, out, _ = run_cli(
        ["mdd", "build", "9", "1,4", "--weight", "1,2", "--format", "svg"]
    )
    assert code == 0 and out.startswith("<svg ")


def test_mdd_build_rational_weights():
    doc = run_json(["mdd", "build", "9", "1,4", "--weight", "1/3,1/2"])
    assert doc["cells"][7] == {"vertex": 7, "path": [3, 1]}


def test_mdd_build_weight_tie_is_domain_error():
    code, out, err = run_cli(["mdd", "build", "9", "1,4", "--weight", "1,1"])
    assert code == 1
    assert json.loads(err)["error"]["code"] == "weight-tie"


def test_mdd_build_lex_policy():
    doc = run_json(["mdd", "build", "9", "1,4", "--weight", "1,1", "--tie", "lex"])
    assert doc["cells"][7]["path"] == [0, 4]


def test_mdd_enumerate():
    doc = run_json(["mdd", "enumerate", "10", "1,6"])
    assert doc["mdd_count"] == 2
    assert doc["routing_choice_count"] == 144
    assert len(doc["mdds"]) == 2
    coherent = run_json(["mdd", "enumerate", "10", "1,6", "--coherent-only"])
    assert coherent["mdd_count"] == 2


def test_mdd_enumerate_budget():
    code, _, err = run_cli(["mdd", "enumerate", "10", "1,6", "--budget", "3"])
    assert code == 1
    assert json.loads(err)["error"]["code"] == "budget-exceeded"


def test_mdd_enumerate_negative_budget_is_a_usage_error():
    # a budget below 0 is a bad argv value, so exit 2 and no JSON; a
    # budget of 0 is a budget, which the search exceeds (exit 1)
    code, out, err = run_cli(["mdd", "enumerate", "10", "1,6", "--budget", "-1"])
    assert (code, out, err) == (2, "", "circmdd: error: budget must be at least 0, got -1\n")
    code, _, err = run_cli(["mdd", "enumerate", "10", "1,6", "--budget", "0"])
    assert code == 1
    assert json.loads(err)["error"]["code"] == "budget-exceeded"


def test_mdd_check_valid_non_coherent(tmp_path):
    doc = {
        "network": {"n": 8, "steps": [1, 3, 5, 7]},
        "cells": [
            {"vertex": 0, "path": [0, 0, 0, 0]},
            {"vertex": 1, "path": [1, 0, 0, 0]},
            {"vertex": 2, "path": [2, 0, 0, 0]},
            {"vertex": 3, "path": [0, 1, 0, 0]},
            {"vertex": 4, "path": [0, 0, 1, 1]},
            {"vertex": 5, "path": [0, 0, 1, 0]},
            {"vertex": 6, "path": [0, 2, 0, 0]},
            {"vertex": 7, "path": [0, 0, 0, 1]},
        ],
    }
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(doc))
    result = run_json(["mdd", "check", str(path)])
    assert result["valid"] is True
    assert result["coherent"] is False
    assert result["refutation"]
    assert any(entry["vertex"] == 4 for entry in result["refutation"])


def test_mdd_check_invalid_reports_violation(tmp_path):
    doc = {
        "network": {"n": 4, "steps": [1, 3]},
        "cells": [
            {"vertex": 0, "path": [0, 0]},
            {"vertex": 1, "path": [1, 0]},
            {"vertex": 2, "path": [0, 2]},
            {"vertex": 3, "path": [3, 0]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = run_json(["mdd", "check", str(path)])
    assert result["valid"] is False
    assert result["violation"]["code"] == "not-minimal"


def test_mdd_check_missing_file():
    code, _, err = run_cli(["mdd", "check", "/nonexistent/diagram.json"])
    assert code == 1
    assert json.loads(err)["error"]["code"] == "malformed-document"


VALID_C4_CELLS = [
    {"vertex": 0, "path": [0, 0]},
    {"vertex": 1, "path": [1, 0]},
    {"vertex": 2, "path": [2, 0]},
    {"vertex": 3, "path": [0, 1]},
]


@pytest.mark.parametrize(
    "network, cells",
    [
        ({"n": 0, "steps": [1, 3]}, []),
        ({"n": 4, "steps": []}, VALID_C4_CELLS),
        ({"n": 4, "steps": ["1", 3]}, VALID_C4_CELLS),
        ({"n": True, "steps": [1]}, [{"vertex": 0, "path": [0]}]),
        (
            {"n": 4, "steps": [1, 3]},
            VALID_C4_CELLS[:3] + [{"vertex": 3, "path": [False, True]}],
        ),
        (
            {"n": 4, "steps": [1, 3]},
            VALID_C4_CELLS[:1] + [{"vertex": True, "path": [1, 0]}] + VALID_C4_CELLS[2:],
        ),
    ],
    ids=["n-zero", "no-steps", "string-step", "boolean-n", "boolean-path", "boolean-vertex"],
)
def test_mdd_check_malformed_network_or_cells(tmp_path, network, cells):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps({"network": network, "cells": cells}))
    code, out, err = run_cli(["mdd", "check", str(path)])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["code"] == "malformed-document"


def test_mdd_check_accepts_the_valid_c4_document(tmp_path):
    path = tmp_path / "diagram.json"
    doc = {"network": {"n": 4, "steps": [1, 3]}, "cells": VALID_C4_CELLS}
    path.write_text(json.dumps(doc))
    assert run_json(["mdd", "check", str(path)])["valid"] is True


def test_mdd_check_runs_the_distance_search_once(tmp_path, monkeypatch):
    # validation and the coherence check read the same cached table: a
    # four-step network searches once, and a three-step one reads the
    # staircase and does not search
    three = tmp_path / "three.json"
    three.write_text(encode(build_coherent_mdd(build_network(9, [1, 4, 7]), (7, 2, 0))))
    four = tmp_path / "four.json"
    four.write_text(json.dumps(GOLDEN_DOCUMENTS["coherent-r4.json"]))
    searches = count_searches(monkeypatch)
    distance_table.cache_clear()
    for path in (three, four):
        assert run_json(["mdd", "check", str(path)])["coherent"] is True
    assert [net.r for net in searches] == [4]


@pytest.mark.parametrize(
    "command, raised",
    [
        ("net info 1000000000000000 1,2", "MemoryError"),
        ("net info 100000000000000000000 1,2,3", "OverflowError"),
        ("mdd enumerate 1000000000000000 1,2,3", "MemoryError"),
        ("mdd build 1000000000000000 1,2,3 --weight 1,2,3", "MemoryError"),
    ],
)
def test_a_network_too_large_to_hold_is_a_domain_error(command, raised):
    # a list of 10**15 entries asks for more than the address space, so
    # the request fails before any page is touched; 10**20 entries do
    # not fit an index at all
    code, out, err = run_cli(command.split())
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "code": "too-large",
        "message": "the input is too large to hold in memory",
        "details": {"raised": raised},
    }


def test_lattice_hilbert():
    doc = run_json(["lattice", "hilbert", "8", "2,3,7"])
    assert doc["total_elements"] == 10
    assert [o["octant"] for o in doc["octants"]] == ["-++", "+-+", "++-"]
    assert len(doc["octants"][0]["elements"]) == 4


def test_fan_command():
    doc = run_json(["fan", "9", "1,4,7"])
    assert doc["mdd_count"] == 9
    assert len(doc["candidates"]) == 9
    assert len(doc["walls"]) == 9
    assert doc["rejections"] == []
    unique = run_json(["fan", "7", "1,2,4"])
    assert unique["mdd_count"] == 1
    assert unique["walls"] == []
    assert all(r["failed_condition"] == 1 for r in unique["rejections"])


def test_family_build_and_verify():
    built = run_json(["family", "build", "2"])
    assert built["lifted_network"] == {"n": 56, "steps": [9, 17, 33]}
    assert built["predicted_mdd_count"] == 12
    verified = run_json(["family", "verify", "2"])
    assert verified["ok"] is True
    assert verified["fan_mdd_count"] == 12
    assert verified["brute_force_coherent_count"] == 12
    lifted = run_json(["family", "verify", "2", "--k", "9", "--t", "2"])
    assert lifted["lifted_network"] == {"n": 63, "steps": [11, 20, 38]}
    assert lifted["ok"] is True
    assert lifted["fan_mdd_count"] == lifted["brute_force_coherent_count"] == 12


# Library values whose canonical encoding is the document the command
# prints.
ENCODED_BY_THE_LIBRARY = {
    "fan 9 1,4,7": lambda: fan_report(build_network(9, [1, 4, 7])),
    "fan 72 19,28,64": lambda: fan_report(build_network(72, [19, 28, 64])),
    "family build 2": lambda: build_family(2),
    "family verify 2": lambda: verify_family(2),
    "mdd build 9 1,4,7 --weight 7,2,0": lambda: build_coherent_mdd(
        build_network(9, [1, 4, 7]), (7, 2, 0)
    ),
}


@pytest.mark.parametrize("command", sorted(ENCODED_BY_THE_LIBRARY))
def test_library_encoding_is_the_cli_output(command):
    value = ENCODED_BY_THE_LIBRARY[command]()
    assert run_cli(command.split()) == (0, encode(value) + "\n", "")


def test_family_build_rejects_bad_q():
    code, _, err = run_cli(["family", "build", "4"])
    assert code == 1
    assert json.loads(err)["error"]["code"] == "bad-family-params"


def test_domain_error_json_on_stderr():
    code, out, err = run_cli(["net", "info", "6", "2,4"])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["code"] == "disconnected"
    assert payload["error"]["details"]["gcd"] == 2


def test_usage_error_exit_code_two():
    with pytest.raises(SystemExit) as info:
        run_cli(["mdd", "build", "9", "1,4"])  # missing --weight
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run_cli(["net", "info", "9", "one,two"])
    assert info.value.code == 2
    code, _, err = run_cli(
        ["mdd", "build", "9", "1,4,7", "--weight", "7,2,0", "--format", "svg",
         "--layer-axis", "7"]
    )
    assert code == 2
    assert "layer axis" in err


def test_closed_pipe_exits_one_without_a_traceback():
    # the reader is gone before the first byte is written, as with
    # "circmdd fan 30 2,22,27 | head -c 0"
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(circmdd.__file__).parent.parent))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "circmdd.cli", "fan", "30", "2,22,27"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert b"BrokenPipeError" not in proc.stderr


def test_output_is_byte_stable():
    one = run_cli(["fan", "9", "1,4,7"])
    two = run_cli(["fan", "9", "1,4,7"])
    assert one == two


# Diagram documents the golden mdd check cases read from the working
# directory.
GOLDEN_DOCUMENTS = {
    "valid.json": {
        "network": {"n": 8, "steps": [1, 3, 5, 7]},
        "cells": [
            {"vertex": 0, "path": [0, 0, 0, 0]},
            {"vertex": 1, "path": [1, 0, 0, 0]},
            {"vertex": 2, "path": [2, 0, 0, 0]},
            {"vertex": 3, "path": [0, 1, 0, 0]},
            {"vertex": 4, "path": [0, 0, 1, 1]},
            {"vertex": 5, "path": [0, 0, 1, 0]},
            {"vertex": 6, "path": [0, 2, 0, 0]},
            {"vertex": 7, "path": [0, 0, 0, 1]},
        ],
    },
    "invalid.json": {
        "network": {"n": 4, "steps": [1, 3]},
        "cells": VALID_C4_CELLS[:2] + [
            {"vertex": 2, "path": [0, 2]},
            {"vertex": 3, "path": [3, 0]},
        ],
    },
    "malformed.json": {
        "network": {"n": 4, "steps": ["1", 3]},
        "cells": VALID_C4_CELLS,
    },
    # coherent, so the output holds a witness: (3, -1, -2) from the
    # angular sweep, and (0, -12, -7, 19) from Fourier-Motzkin elimination
    "coherent-r3.json": {
        "network": {"n": 9, "steps": [1, 4, 7]},
        "cells": [
            {"vertex": i, "path": list(path)}
            for i, path in enumerate([
                (0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 0, 3), (0, 1, 0),
                (0, 0, 2), (0, 2, 1), (0, 0, 1), (0, 2, 0),
            ])
        ],
    },
    "coherent-r4.json": {
        "network": {"n": 10, "steps": [1, 3, 4, 7]},
        "cells": [
            {"vertex": i, "path": list(path)}
            for i, path in enumerate([
                (0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0),
                (0, 0, 1, 0), (1, 0, 1, 0), (0, 2, 0, 0), (0, 0, 0, 1),
                (0, 0, 2, 0), (0, 3, 0, 0),
            ])
        ],
    },
}

# Command, exit code, and sha256 of stdout + stderr. Any change to an
# output byte, error output included, fails here; record a new digest
# only for an intended change of output.
GOLDEN = {
    "net-info-r1": ("net info 11 3", 0, "21d47a13c8ab1a05d6163bf2f7cd9508fc77e30a37b80e6ad818be5cc6b4f6a3"),
    "net-info-r2": ("net info 10 1,6", 0, "ca8f7f66b14c5f35f8c1c7c664686f13fa8a27165ef2708ef8e36f4b0390a0c5"),
    "net-info-r3": ("net info 9 1,4,7", 0, "3b4dc48e2533edd11b8380de3af897551e41cd1bf3ab75acabcc2ed0d27f06da"),
    "net-info-r4": ("net info 104 5,17,21,22", 0, "fbdb0551cb1ac50c2d01e34560a9c2851cb76c769c8f37aea2b89d7cf7c978ad"),
    "net-info-r5": ("net info 24 3,7,11,12,22", 0, "fbacbf3ed3765ae111a962d5c43d37a58feb062ec2530ddb13b671f75f83673f"),
    # diameter 10 and route counts up to 10: two-digit distances and counts
    "net-info-two-digit-counts": ("net info 56 9,17,33", 0, "ec3c4bd1c166ffa10097484f10dd88f70fc52798fcb43e1df34ed9644eaf058f"),
    # n = 44732: the largest document of net_info_json's text writer
    "net-info-c44732": ("net info 44732 213,2969,41553", 0, "4eb0a9fb05e17d57aa84c22afabf3963f9ed712027f47c104388b0c4649a88b6"),
    # the q = 11 family lift, a unit-multiple step-permuted relabelling
    # of the q = 14 one, and C6000(2,3002,1), whose route counts reach 751
    "net-info-c17822": ("net info 17822 135,1475,16215", 0, "4c8ab8e132edafafcdedd2a1d0ba6a9fec2a9fe1601e9da243c9ab2820708c01"),
    "net-info-c44732-relabelled": ("net info 44732 36869,3161,23301", 0, "a0ec6e1ac541b1c862e3e7594cad5fdaeb24e28312c4d420230b4253442ea53c"),
    "net-info-c6000": ("net info 6000 2,3002,1", 0, "f9ab473adc6341c15747564d4551d1b21bfaa6ead00c06813cf46898a7549f6b"),
    # the staircase's run step 913 shares the factor 11 with n: 11 cycles
    "net-info-c946-cycles": ("net info 946 618,323,913", 0, "f28152d8b3e30bdcfc6a154ccc8e4bf9d59851cbec46937b70089b014426c2fa"),
    # a four-step network of 2,000 vertices: the breadth-first search
    # and its count passes, the kernel of one step and four or more
    "net-info-r4-c2000": ("net info 2000 7,301,977,1403", 0, "b10ea77b8eaaf7ae37965e17659996c29d6557dc8e6980cb808f789247cc6981"),
    # double loops: C30011(7,4003), a unit-multiple relabelling of it,
    # and C1000(4,25), whose steps each share a factor with n
    "net-info-c30011": ("net info 30011 7,4003", 0, "9f045f42696d17325b7e13d6d2c8411414291bd4aeaccda57fc08e01c8e82991"),
    "net-info-c30011-relabelled": ("net info 30011 18987,15306", 0, "8c0951ccecfd86e589d520ab7668ee392da8ba05c48c2a8822be54d33ce1eb1e"),
    "net-info-c1000-shared-factors": ("net info 1000 4,25", 0, "1fcbc4e4b7ef4e09b903c1de96165178ade5a5fd1f8a593f2727ac3f65ee4016"),
    "net-info-disconnected": ("net info 6 2,4", 1, "17d677a48368197fe0588f29ab045ffcf1e3c9696ba0f6b394299370be8bc320"),
    "mdd-build-json": ("mdd build 9 1,4,7 --weight 7,2,0", 0, "6cea7bb6dd535867e8e0edd6ad6ce58b81c9822bf49eee4a017a2256e4e021a7"),
    "mdd-build-ascii": ("mdd build 9 1,4 --weight 1,2 --format ascii", 0, "65994bdd381737eda968634255025c1f20dff3affc122af68f9556019bb6083b"),
    "mdd-build-svg": ("mdd build 9 1,4,7 --weight 7,2,0 --format svg", 0, "f8756fa620364d89a66a483edb4fef1c0f9b153f93eeb96008b72d5d870588b5"),
    "mdd-build-tie-lex": ("mdd build 9 1,4 --weight 1,1 --tie lex", 0, "c8e563cd3ec4ee8d7e2579d927f2e32db8868c5414cee323fcbad43d416f3490"),
    # diameters 40 and 11: deep enough to show any change in the level
    # by level construction; the five-step weight ties, so lex decides
    "mdd-build-q5-lex": ("mdd build 992 33,161,801 --weight 7,2,0 --tie lex", 0, "691848477461347a6a24d79ec0ab05184d9f451bdbd87f6d7347eee739a1a6bf"),
    "mdd-build-r5-lex": ("mdd build 500 3,37,101,233,377 --weight 1,0,1,0,1 --tie lex", 0, "fbf76081b43f7950774023648306e050373e2cf6f30b85762636f4d8cc3ff042"),
    "mdd-build-q6-lex": ("mdd build 1892 45,265,1585 --weight 5,-1,-4 --tie lex", 0, "81ab1cfe2281a59d200be9f955f05f41fcef03b6e9c5de7a8028822e5950f388"),
    # a double loop with two diagrams and 4,096 routing choices; 87
    # shares the factor 3 with n
    "mdd-build-c105-lex": ("mdd build 105 87,59 --weight 1,1 --tie lex", 0, "0d7583065ace4045c1080ee96a4a5bfcda97897e59147c53b85152276c3b0d6e"),
    "mdd-enumerate-c105": ("mdd enumerate 105 87,59", 0, "d452a78aa84eba3475ecc9418e00d0347db64c1aee615ff27b8a4b173d24c324"),
    "mdd-build-weight-tie": ("mdd build 9 1,4 --weight 1,1", 1, "d682b92c70127c657d26b16d3c3938dac70f84f0674b6d5c4ae3a0f123b3b30e"),
    "mdd-build-layer-axis": ("mdd build 9 1,4,7 --weight 7,2,0 --format svg --layer-axis 7", 2, "5e21ac22cd197308ac7b49dd062537450f87539d3c98e94b39471d20140b3753"),
    "mdd-enumerate": ("mdd enumerate 9 1,4,7", 0, "ae230f1264f992fda4f7dc9f064c0c8cc703c67d82b62d4b055fb707535c313f"),
    # one to five steps: cells of every arity from 1-tuples up
    "mdd-enumerate-r1": ("mdd enumerate 11 3", 0, "fc10f982dbbb70690721fb68e87aec4122efa75860108c7a2c31253a24f29a06"),
    "mdd-enumerate-r2": ("mdd enumerate 10 1,6", 0, "4751ee1078285797b7bb0e23ee14afe068c1d31c633ef843e2d64f4e307b2017"),
    "mdd-enumerate-coherent-r2": ("mdd enumerate 10 1,6 --coherent-only", 0, "38f88e3e8c9ddc636e2a3a48d59dc085d1d6621ea725e73ab86a57ca236c9f41"),
    "mdd-enumerate-r5": ("mdd enumerate 24 3,7,11,12,22", 0, "ca0c44210c75f5d4e667ba43dc13eaf0066c7aad9dcea067fb22b50bbe776ba4"),
    "mdd-enumerate-budget": ("mdd enumerate 9 1,4,7 --budget 5", 1, "c77905d6937672f42ff5beb314d1bc814f3db1d9e71da1d98e8d0feefa76e715"),
    # 16 diagrams, 12 of them coherent: the four-step coherence path
    "mdd-enumerate-coherent-r4": ("mdd enumerate 104 5,17,21,22 --coherent-only", 0, "d46e67694fafe1eaaca6d7709305b71cff6527a3ff9f93dcae1b1505c7885d7c"),
    # its routing_choice_count is the product of the route counts
    "mdd-enumerate-coherent-q5": ("mdd enumerate 992 33,161,801 --coherent-only", 0, "d8e065fbcc15fc9924201bfe734cf6d229a5f05b93cf07079996b167f44e1023"),
    "mdd-enumerate-coherent-c126": ("mdd enumerate 126 4,40,58,63 --coherent-only", 0, "afa8b6ab0da3cd663cf48028f7efd0501dae54db5a6ea206ca6257f1d2a3d32e"),
    # 24 diagrams of 1,892 cells, 7,094 of them distinct: the largest
    # document of enumeration_json's text writer
    "mdd-enumerate-coherent-q6": ("mdd enumerate 1892 45,265,1585 --coherent-only", 0, "cd2d8ec903c80ab44d699f7781f1ad2ae0ec11a8b88c2399389fbcd45ff2662f"),
    # one below the least budget that suffices (414,407)
    "mdd-enumerate-budget-q6": ("mdd enumerate 1892 45,265,1585 --budget 414406", 1, "105d583f72d3e9512b4b41f4d78c9f10144e1e4f276d5565dac045e09ac85ce9"),
    "mdd-check-valid": ("mdd check valid.json", 0, "dd9a3606ca47c350519cce577acfefa6fba34c222ca513260d533a5c510cd7dd"),
    "mdd-check-invalid": ("mdd check invalid.json", 0, "5f7a2baebe3e24aba66127cc4fe427b2d2a04d3bf9d006833c2982d4b355fc53"),
    "mdd-check-malformed": ("mdd check malformed.json", 1, "27937362a82d88d8afc73e685912349a7e34f4790f84b6dd29aa26a3442b4b86"),
    "mdd-check-coherent-r3": ("mdd check coherent-r3.json", 0, "dfa21a7ef8f1e66971761a8bcb6297180fcc21c39799e2da0f820580a2a73eaf"),
    "mdd-check-coherent-r4": ("mdd check coherent-r4.json", 0, "d84d512d66de484522a73905f4ce673d3444e8b24703d95111cf39e93325db04"),
    "lattice-hilbert-r2": ("lattice hilbert 10 1,6", 0, "3d75b36f421deb4fce7cbae1f43a8bc3f12286d6cddfdd7447286795e70fb8e8"),
    "lattice-hilbert-r3": ("lattice hilbert 8 2,3,7", 0, "7d5ac3e312670638a371a7b90ff30f5854d1783dbd63be7eaca9808f6b3c461e"),
    "lattice-hilbert-r4": ("lattice hilbert 8 1,3,5,7", 0, "1a17b52a2b0f17a8bc6eb3ee2dd44e08e54e1b2c678fd2991e83e18907dc2935"),
    "fan-c9": ("fan 9 1,4,7", 0, "e79fe3af34cbb321ded32b83835994301b76ef9fc5c0e18c1902c8c05a2485dc"),
    "fan-c72": ("fan 72 19,28,64", 0, "bc5f1972e139e01e919b91eaf2f613c6e7b78e226e4532473cbe222de5fe9c46"),
    "fan-unique": ("fan 7 1,2,4", 0, "70f04018ff3cb996a66bfe24c8708755fdf42fd0914f629ba8243568c3b863df"),
    "fan-r2": ("fan 10 1,6", 1, "f003cb3968eba627fe30fc0d098a4a94a8ed876c94a52b3f6519f7765055529a"),
    # the q = 8 and q = 14 family lifts: every sector representative of
    # the census, 30 and 48 of them, and every wall's witness
    "fan-q8": ("fan 5402 75,593,4737", 0, "d6aae77fdc6cb69f224fbd3890377e5e7772930e951192c6621d10bccfc9daa8"),
    "fan-q14": ("fan 44732 213,2969,41553", 0, "fa2db27175b6d5f540709617aa80457000fd89be8158a30fbf51d299c5b64f9f"),
    "family-build-2": ("family build 2", 0, "8a282ecb9c479ef97e6039f75672b46f05e3da06a1e431ac03ca3bfbbabc95b5"),
    "family-build-k-t": ("family build 2 --k 9 --t 2", 0, "0a27a02d4d1e883974e08fd8dc0795592f218c0c81f1324d8505c2d1ba3f6c44"),
    "family-build-q4": ("family build 4", 1, "ab28ca6937129f485f9ac0a220fddafb6f0e045adcdba1af962fa02b8a858612"),
    "family-verify-2": ("family verify 2", 0, "c57c6f739cd6a179ae45c5d3a524c34e39a18252563cb7cbbcb7b9136e4a1abc"),
    "family-verify-3": ("family verify 3", 0, "53e78f5b2fba0d0c5f39a686768ab79702b9fbcad94e198b68d6fee93ad34eb4"),
    "family-verify-5": ("family verify 5", 0, "38893548ec1b06aab8981c782245e8eb12a81db30d4f0fc85b632ea019d767e7"),
    "family-verify-8": ("family verify 8", 0, "38c2eb84e5f4ec3ce4695575a1edaf4b9c15ce33c7eb3aa85911768602f5b7f4"),
    "family-verify-k-t": ("family verify 2 --k 9 --t 2", 0, "353d8dc9cf7ea78c927b513adc882e7285df93e9361babf8bc5c665d071c5298"),
    "family-verify-bad-k": ("family verify 2 --k 7", 1, "1480e8bfecc20569ced4490ce0ee72d2260fb48e50849b27694460c5f6697096"),
}


def assert_golden(case):
    command, expected_code, digest = GOLDEN[case]
    code, out, err = run_cli(command.split())
    assert code == expected_code, case
    assert hashlib.sha256((out + err).encode()).hexdigest() == digest, case


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_matches_golden_digest(tmp_path, monkeypatch, case):
    for name, doc in GOLDEN_DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert_golden(case)


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_reused_parser_keeps_no_option_of_an_earlier_call():
    first = run_json(["mdd", "enumerate", "10", "1,6", "--coherent-only"])
    assert first["mode"] == "coherent_only"
    assert run_json(["mdd", "enumerate", "10", "1,6"])["mode"] == "all"


def test_reused_parser_wraps_help_to_the_terminal_at_print_time(monkeypatch):
    widths = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit):
            main(["mdd", "build", "--help"])
        widths.append(max(map(len, out.getvalue().splitlines())))
    assert widths[0] < widths[1]


def test_reused_parser_after_usage_and_domain_errors():
    # argparse's own usage error, then a rejected option value (exit 2),
    # a domain error (exit 1) and a valid command, on the one parser
    with pytest.raises(SystemExit) as info:
        run_cli(["mdd", "build", "9", "1,4"])
    assert info.value.code == 2
    for case in ("mdd-build-layer-axis", "net-info-disconnected", "mdd-enumerate-r2"):
        assert_golden(case)

