"""Fuzzing the problem-file parser and the CLI over mutated fixtures.

Each example takes a shipped fixture, keeps one of its tasks (so a run
stays short), and replaces, deletes or inserts a few values at drawn
places in the document.  The parser must either accept the document or
raise SpecError, and it must accept only documents that the published
schema accepts; the CLI must exit 0, 1 or 2 and never raise, and exit 1
only on a document that parses.
"""

import copy
import json
import tempfile
from pathlib import Path

import jsonschema
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finkar.cli import COMMANDS, SpecError, main, parse_spec

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "specfile-schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)
FIXTURES = {name: json.loads((ROOT / "fixtures" / name).read_text())
            for name in ("machines.json", "policies.json")}


def _strings(node, out):
    """Every string in a document, keys included."""
    if isinstance(node, str):
        out.add(node)
    elif isinstance(node, list):
        for v in node:
            _strings(v, out)
    elif isinstance(node, dict):
        for k, v in node.items():
            out.add(k)
            _strings(v, out)
    return out


# The fixtures' own names, labels and field names, so that mutants often
# stay close to valid documents and reach the checks behind the first.
WORDS = sorted(set().union(*(_strings(doc, set())
                             for doc in FIXTURES.values())))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 10),
    st.floats(-3, 3, allow_nan=False, width=16),
    st.sampled_from(WORDS + ["", "a/b", "~1", "minimum"]),
    st.text(max_size=3))
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=2), kids,
                        max_size=3)),
    max_leaves=6)


def _mutate(draw, node):
    """Replace `node`, or delete, insert or mutate one of its children."""
    actions = ["replace"]
    if isinstance(node, (dict, list)):
        actions.append("insert")
        if node:
            actions += ["delete"] + ["descend"] * 6
    action = draw(st.sampled_from(actions))
    if action == "replace":
        return draw(VALUES)
    if action == "insert":
        if isinstance(node, dict):
            node[draw(st.sampled_from(WORDS))] = draw(VALUES)
        else:
            node.insert(draw(st.integers(0, len(node))), draw(VALUES))
        return node
    key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                               else range(len(node))))
    if action == "delete":
        del node[key]
    else:
        node[key] = _mutate(draw, node[key])
    return node


@st.composite
def mutated_fixtures(draw):
    doc = copy.deepcopy(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    doc["tasks"] = [draw(st.sampled_from(doc["tasks"]))]
    for _ in range(draw(st.integers(1, 2))):
        doc = _mutate(draw, doc)
    return doc


def _parses(raw) -> bool:
    try:
        parse_spec(raw)
    except SpecError:
        return False
    return True


FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=400)
@given(mutated_fixtures())
def test_parser_accepts_only_schema_valid_documents(doc):
    if _parses(json.dumps(doc)):
        VALIDATOR.validate(doc)


@settings(FUZZ, max_examples=200)
@given(mutated_fixtures(), st.data())
def test_parser_on_damaged_bytes(doc, data):
    raw = json.dumps(doc).encode()
    cut = data.draw(st.integers(0, len(raw)))
    junk = data.draw(st.binary(max_size=3))
    _parses(raw[:cut] + junk + raw[cut:])


@settings(FUZZ, max_examples=150)
@given(mutated_fixtures())
def test_cli_exit_codes_on_mutated_fixtures(doc):
    parsed = _parses(json.dumps(doc))
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(doc))
        code = main(["verify-all", str(spec), "--out",
                     str(Path(tmp) / "out.json")])
    assert code in (0, 1, 2)
    if not parsed:
        assert code == 2
    if code == 1:
        assert parsed


def test_commands_match_the_schema():
    task = SCHEMA["properties"]["tasks"]["items"]["properties"]
    assert COMMANDS == tuple(task["command"]["enum"])
