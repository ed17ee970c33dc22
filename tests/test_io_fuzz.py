"""The algebra and module parsers raise only ParseError, whatever JSON they are given.

Two kinds of input: arbitrary JSON values, and the shipped fixtures with one
value replaced or one key deleted at a random place, which reach the checks
below the top level.  Every ParseError must name the input it came from.
Integers stay small so that each example runs in milliseconds: the time that
build_algebra spends grows with `length_bound`, and that is not what this
test checks.
"""
import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repherd import io as rio
from repherd.errors import ParseError

from tests.conftest import fixture_path, load_fixture_algebra

SOURCE = "fuzz.json"

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

scalars = st.none() | st.booleans() | st.integers(-5, 50) | st.text(max_size=6)
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12,
)


def _fixture(name):
    with open(fixture_path(name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


ALGEBRAS = {name: _fixture(name) for name in ("a2", "loop2", "kron", "sq", "tilted4")}
MODULES = [("kron", _fixture("kron_regular")), ("kron", _fixture("kron_preproj")), ("tilted5", _fixture("tilted5_tauinv4p1"))]
MODULES += [("h5", m) for m in _fixture("tilting_h5")["summands"]]


@st.composite
def mutated(draw, base):
    """base with one value replaced by arbitrary JSON, or one key or element deleted."""
    doc = copy.deepcopy(base)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        parent, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    if parent is None:
        return draw(json_values)
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return doc


def _parses_or_names_source(parse, doc):
    try:
        parse(doc)
    except ParseError as exc:
        assert SOURCE in str(exc)


def _algebra(doc):
    return rio.algebra_from_dict(doc, source=SOURCE)


@FUZZ
@given(json_values)
def test_algebra_parser_on_arbitrary_json(doc):
    _parses_or_names_source(_algebra, doc)


@FUZZ
@given(st.sampled_from(sorted(ALGEBRAS)).flatmap(lambda name: mutated(ALGEBRAS[name])))
def test_algebra_parser_on_damaged_fixtures(doc):
    _parses_or_names_source(_algebra, doc)


@FUZZ
@given(json_values)
def test_module_parser_on_arbitrary_json(doc):
    kron = load_fixture_algebra("kron")
    _parses_or_names_source(lambda d: rio.module_from_dict(kron, d, source=SOURCE), doc)


@FUZZ
@given(st.sampled_from(range(len(MODULES))).flatmap(lambda i: st.tuples(st.just(MODULES[i][0]), mutated(MODULES[i][1]))))
def test_module_parser_on_damaged_fixtures(case):
    name, doc = case
    alg = load_fixture_algebra(name)
    _parses_or_names_source(lambda d: rio.module_from_dict(alg, d, source=SOURCE), doc)
