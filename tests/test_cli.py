"""Command line surface: output schemas, exit codes, error JSON."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from circmdd.cli import main


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


def test_output_is_byte_stable():
    one = run_cli(["fan", "9", "1,4,7"])
    two = run_cli(["fan", "9", "1,4,7"])
    assert one == two
