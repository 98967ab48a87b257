"""Property checks of the scenario codec against mutated preset documents.

Any edit of a valid document either loads, and then survives a
to_dict/from_dict round trip unchanged, or is rejected with a
WeakmeasError; the CLI turns the same document into exit 0 or exit 2,
never a traceback.
"""
import contextlib
import io
import json
import os
from unittest import mock

from hypothesis import given, settings, strategies as st

from weakmeas import cli, scenario
from weakmeas.errors import WeakmeasError

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.sampled_from(scenario.MODES + scenario.READOUTS),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=8), inner, max_size=3)
    ),
    max_leaves=6,
)
PRESET_DOCS = st.sampled_from(
    [scenario.to_dict(scenario.preset(name)) for name in scenario.preset_names()]
)


def _paths(node, prefix=()):
    """Every location in a JSON tree, the root included, as a key/index path."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(PRESET_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        node = _at(doc, path)
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" and isinstance(node, dict):
            node[draw(st.text(max_size=8))] = draw(VALUES)
        elif action == "add" and isinstance(node, list):
            node.append(draw(VALUES))
        elif path and action == "delete":
            del _at(doc, path[:-1])[path[-1]]
        elif path:
            _at(doc, path[:-1])[path[-1]] = draw(VALUES)
    return doc


def _load(doc):
    try:
        return scenario.from_dict(doc)
    except WeakmeasError:
        return None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_mutated_document_round_trips_or_is_rejected(doc):
    sc = _load(doc)
    if sc is not None:
        encoded = scenario.to_dict(sc)
        assert scenario.to_dict(scenario.from_dict(encoded)) == encoded


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_cli_never_ends_in_a_traceback(tmp_path_factory, doc):
    # the run itself is stubbed out: a valid document may ask for any grid
    # size or sample count, and this property is about loading it
    work = tmp_path_factory.mktemp("doc")
    config = work / "sc.json"
    config.write_text(json.dumps(doc))
    err = io.StringIO()
    with mock.patch.object(cli, "run_scenario", return_value={"ok": 1.0}), \
            mock.patch.dict(os.environ), contextlib.redirect_stderr(err):
        os.environ.pop(cli.SEED_ENV_VAR, None)
        code = cli.main(["run", "--config", str(config), "--out", str(work / "doc.json")])
    if _load(doc) is None:
        assert code == 2 and err.getvalue().startswith("error:"), err.getvalue()
    else:
        assert code == 0, err.getvalue()
