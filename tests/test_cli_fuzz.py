"""Random argv and random diagram documents against the CLI contract.

Every outcome is exit 0 (output on stdout only), exit 1 (a JSON error
with a code on stderr, nothing on stdout) or exit 2 (a usage error);
no exception other than argparse's SystemExit(2) leaves cli.main.
No error's details hold a record, which would be written as a bare
array. Sizes stay small, so no single case runs long.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from circmdd import build_coherent_mdd, build_network
from circmdd.cli import main
from circmdd.serialize import error_payload, mdd_payload

# valid values are drawn more often than junk, so most cases get past
# argparse and reach the library
junk = st.sampled_from(["", "x", "1.5", "-0", "3/2", "1e3"])
text_int = st.one_of(st.integers(1, 40).map(str), st.integers(-3, 40).map(str), junk)
steps_arg = st.one_of(
    st.lists(st.integers(-50, 50), min_size=1, max_size=5).map(lambda xs: ",".join(map(str, xs))),
    st.lists(st.integers(0, 50), min_size=2, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.lists(st.integers(1, 40), min_size=2, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.lists(text_int, min_size=0, max_size=4).map(",".join),
)
weights_arg = st.lists(
    st.one_of(
        st.integers(-9, 9).map(str),
        st.integers(-9, 9).map(str),
        st.sampled_from(["1/2", "-3/4", "1/0", "a", ""]),
    ),
    min_size=1,
    max_size=5,
).map(",".join)


def option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def argv_of(*parts):
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


def word(text):
    return st.just([text])


network = st.one_of(
    st.tuples(text_int, steps_arg).map(list),
    st.sampled_from([["9", "1,4,7"], ["10", "1,6"], ["8", "1,3,5,7"], ["7", "1,2,4"], ["11", "3"]]),
)

ARGV = st.one_of(
    argv_of(word("net"), word("info"), network),
    argv_of(
        word("mdd"), word("build"), network,
        weights_arg.map(lambda w: ["--weight", w]),
        option("--tie", st.sampled_from(["error", "lex", "none"])),
        option("--format", st.sampled_from(["json", "ascii", "svg", "png"])),
        option("--layer-axis", text_int),
    ),
    argv_of(
        word("mdd"), word("enumerate"), network,
        st.sampled_from([[], ["--coherent-only"]]),
        # the default budget lets a five-step network run for minutes
        st.integers(-2, 20_000).map(lambda b: ["--budget", str(b)]),
    ),
    argv_of(word("lattice"), word("hilbert"), network),
    argv_of(word("fan"), network),
    argv_of(
        word("family"), st.sampled_from(["build", "verify"]).map(lambda c: [c]),
        st.integers(-1, 6).map(lambda q: [str(q)]),
        option("--k", st.integers(-2, 60).map(str)),
        option("--t", st.integers(-5, 5).map(str)),
    ),
    st.lists(
        st.sampled_from(["net", "mdd", "fan", "family", "lattice", "info", "check",
                         "9", "1,4,7", "--budget", "--weight", "--k", "-1"]),
        max_size=5,
    ),
)

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 12), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def near_valid_documents(draw):
    """A diagram document of a small network with one field replaced."""
    n, steps, w = draw(st.sampled_from([
        (9, [1, 4, 7], (7, 2, 0)), (10, [1, 6], (1, 2)), (8, [1, 3, 5, 7], (11, 5, 2, 0)),
    ]))
    doc = mdd_payload(build_coherent_mdd(build_network(n, steps), w, tie_policy="lex"))
    target = draw(st.sampled_from(
        ["n", "steps", "cells", "vertex", "path", "coordinate", "coordinate", "coordinate"]
    ))
    value = draw(json_values)
    cell = doc["cells"][draw(st.integers(0, n - 1))]
    if target in ("n", "steps"):
        doc["network"][target] = value
    elif target == "cells":
        doc["cells"] = value
    elif target in ("vertex", "path"):
        cell[target] = value
    else:
        cell["path"][draw(st.integers(0, len(steps) - 1))] = draw(st.integers(-2, 12))
    return json.dumps(doc).encode()


DOCUMENT = st.one_of(
    near_valid_documents(),
    near_valid_documents(),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.binary(max_size=40),
)


def holds_no_record(value) -> bool:
    """Whether error details hold no record anywhere. Records are named
    tuples, which serialize._plain would write as bare arrays."""
    if hasattr(value, "_fields"):
        return False
    if isinstance(value, dict):
        value = list(value.values())
    return not isinstance(value, (list, tuple)) or all(map(holds_no_record, value))


def checked_error_payload(exc):
    assert holds_no_record(exc.details), exc.details
    return error_payload(exc)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with (
        patch("circmdd.cli.error_payload", checked_error_payload),
        patch("circmdd.serialize.error_payload", checked_error_payload),
        redirect_stdout(out),
        redirect_stderr(err),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    return code, out.getvalue(), err.getvalue()


def check_outcome(argv, code, out, err):
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 0:
        assert out and not err, argv
    elif code == 1:
        assert out == "", argv
        error = json.loads(err)["error"]
        assert isinstance(error["code"], str) and error["code"], argv
    else:
        assert out == "", argv


FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(argv=ARGV)
def test_cli_honours_its_exit_contract_on_random_argv(argv):
    check_outcome(argv, *run(argv))


@settings(FUZZ, max_examples=120)
@given(document=DOCUMENT)
def test_mdd_check_honours_its_exit_contract_on_random_documents(tmp_path_factory, document):
    # the argv is valid, so only exit 0 or a domain error may come back
    path = tmp_path_factory.getbasetemp() / "fuzzed-diagram.json"
    path.write_bytes(document)
    argv = ["mdd", "check", str(path)]
    code, out, err = run(argv)
    assert code in (0, 1), (document, err)
    check_outcome(argv, code, out, err)
