"""The JSON writer against ``json.dumps``: the same bytes, the same refusals."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gentile.reporting import json_bytes

GOLDEN = Path(__file__).parent / "golden"


def dumped(payload) -> bytes:
    return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode()


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_golden_payloads(name):
    golden = (GOLDEN / name).read_bytes()
    payload = json.loads(golden)
    assert json_bytes(payload) == dumped(payload) == golden


#: Floats at the edges of the shortest round-trip repr: signed zeros, the
#: switch to exponent form on either side, and the smallest subnormal.
EDGE_FLOATS = [0.0, -0.0, 1e16, 1e-7, 5e-324, -5e-324, 1.7976931348623157e308]

SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-2**70, 2**70), st.sampled_from([2**63, -2**63 - 1, 10**30]),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS),
    # Non-ASCII and control characters, each escaped as json escapes it.
    st.text(), st.text(alphabet=st.characters(max_codepoint=0x9f)),
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(payload=PAYLOADS)
@example(payload={"flags": [True, False, None], "ints": [0, 1, -1, 2**64], "floats": EDGE_FLOATS})
@example(payload={"empty": [{}, [], ()], "nested": {"a": {"b": [[], {"c": ()}]}}})
@example(payload={"é\x00\t \U0001f600": "é\x00\t \U0001f600\"\\/"})
def test_writer_matches_json_dumps(payload):
    assert json_bytes(payload) == dumped(payload)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_floats_refused_with_json_message(value):
    payload = {"a": [1, {"b": value}]}
    with pytest.raises(ValueError) as ours:
        json_bytes(payload)
    with pytest.raises(ValueError) as theirs:
        dumped(payload)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("payload", [{"a": {1, 2}}, {"a": [np.int64(3)]}, {"a": {1: "b"}}],
                         ids=["set", "np-int64", "int-key"])
def test_other_types_and_keys_refused(payload):
    with pytest.raises(TypeError):
        json_bytes(payload)
