"""File formats: algebras, modules, reports.

Everything is JSON with coefficients carried as strings (or ints), parsed
exactly; floats are rejected outright.
"""
from __future__ import annotations

import hashlib
import json
import os

from .algebra import BoundQuiverAlgebra, Quiver, build_algebra, make_path
from .errors import ParseError, RepherdError
from .fields import field_from_spec
from .linalg import Mat
from .modules import Representation

TOOL_VERSION = "0.1.0"


def _reject_float(_):
    raise ParseError("floating point numbers are not allowed in input files")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError("%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)) from exc
    except (ParseError, UnicodeDecodeError) as exc:
        raise ParseError("%s: %s" % (path, exc)) from exc


# -- input schema ---------------------------------------------------------------
#
# A fault in an algebra or module file is a ParseError that reads
# `<kind>: <file>: <key> <what is wrong>`: kind KeyError for a missing key,
# TypeError for a value of the wrong JSON type, ValueError for a bad number,
# coefficient or field.  A fault found while building the algebra or the
# module, such as a relation that is not admissible, keeps its exception's
# name as the kind.  A key is kept as the tuple of its path and written out
# only in a message, as a JSON path such as "arrows"[2]["from"].

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer", bool: "a boolean"}


def _fault(kind, source, where, what):
    key = json.dumps(where[0]) + "".join("[%s]" % json.dumps(k) for k in where[1:]) if where else "the top level"
    return ParseError("%s: %s: %s %s" % (kind, source, key, what))


def _json_type(x):
    return _JSON_TYPES.get(type(x), "null" if x is None else type(x).__name__)


def _typed(x, want, source, where):
    if type(x) is not want:
        raise _fault("TypeError", source, where, "must be %s, got %s" % (_JSON_TYPES[want], _json_type(x)))
    return x


def _get(obj, key, source, where):
    if key not in obj:
        raise _fault("KeyError", source, where + (key,), "is missing")
    return obj[key]


def _scalar(x, source, where):
    """A name or an exact coefficient: a string, or an integer read as one."""
    if type(x) not in (str, int):
        raise _fault("TypeError", source, where, "must be a string or an integer, got %s" % _json_type(x))
    return str(x)


def _number(fld, text, source, where):
    try:
        return fld.parse(text)
    except ParseError as exc:
        raise _fault("ValueError", source, where, "is not a number: %s" % exc) from exc


def canonical_algebra_dict(data, source="<algebra>") -> dict:
    """The algebra file in the canonical form that its digest hashes."""
    _typed(data, dict, source, ())
    vertices = _typed(_get(data, "vertices", source, ()), list, source, ("vertices",))
    arrows = []
    for i, a in enumerate(_typed(data.get("arrows", []), list, source, ("arrows",))):
        where = ("arrows", i)
        _typed(a, dict, source, where)
        arrows.append({k: _scalar(_get(a, k, source, where), source, where + (k,)) for k in ("name", "from", "to")})
    relations = []
    for i, rel in enumerate(_typed(data.get("relations", []), list, source, ("relations",))):
        terms = []
        for j, t in enumerate(_typed(rel, list, source, ("relations", i))):
            where = ("relations", i, j)
            _typed(t, dict, source, where)
            coeff = _scalar(_get(t, "coeff", source, where), source, where + ("coeff",))
            names = _typed(_get(t, "path", source, where), list, source, where + ("path",))
            path = [_scalar(x, source, where + ("path", k)) for k, x in enumerate(names)]
            terms.append({"coeff": coeff, "path": path})
        relations.append(terms)
    bound = _get(data, "length_bound", source, ())
    if type(bound) is not int:
        raise _fault("ValueError", source, ("length_bound",), "must be an integer, got %s" % json.dumps(bound))
    return {
        "field": data.get("field", "Q"),
        "vertices": [_scalar(v, source, ("vertices", i)) for i, v in enumerate(vertices)],
        "arrows": arrows,
        "relations": relations,
        "length_bound": bound,
    }


def _digest(canon) -> str:
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def algebra_from_dict(data, field=None, source="<algebra>") -> BoundQuiverAlgebra:
    """The algebra that an algebra file describes; every fault is a ParseError naming source."""
    canon = canonical_algebra_dict(data, source)
    fld = field
    if fld is None:
        try:
            fld = field_from_spec(canon["field"])
        except ParseError as exc:
            raise _fault("ValueError", source, ("field",), "is not a field: %s" % exc) from exc
    rels = []
    for i, rel in enumerate(canon["relations"]):
        rels.append([(_number(fld, t["coeff"], source, ("relations", i, j, "coeff")), t["path"]) for j, t in enumerate(rel)])
    try:
        quiver = Quiver(canon["vertices"], [(a["name"], a["from"], a["to"]) for a in canon["arrows"]])
        rels = [[(c, make_path(quiver, names)) for c, names in rel] for rel in rels]
        alg = build_algebra(quiver, rels, fld, canon["length_bound"])
    except RepherdError as exc:
        raise ParseError("%s: %s: %s" % (type(exc).__name__, source, exc)) from exc
    alg.digest = _digest(canon)
    return alg


def load_algebra(path, field=None) -> BoundQuiverAlgebra:
    return algebra_from_dict(load_json(path), field=field, source=path)


def module_from_dict(alg, data, source="<module>", where=()) -> Representation:
    """The module that a module object describes; every fault is a ParseError naming source.

    where is the path of keys to the object inside its file, () at the top.
    """
    q = alg.quiver
    fld = alg.field
    _typed(data, dict, source, where)
    dims = [0] * q.n_vertices
    for v, d in _typed(data.get("dims", {}), dict, source, where + ("dims",)).items():
        if v not in q.vindex:
            raise _fault("KeyError", source, where + ("dims", v), "names no vertex of the algebra")
        if type(d) is not int or d < 0:
            raise _fault("ValueError", source, where + ("dims", v), "must be a non-negative integer, got %s" % json.dumps(d))
        dims[q.vindex[v]] = d
    maps = _typed(data.get("maps", {}), dict, source, where + ("maps",))
    for name in maps:
        if name not in q.aindex:
            raise _fault("KeyError", source, where + ("maps", name), "names no arrow of the algebra")
    mats = []
    for a in range(q.n_arrows):
        name = q.arrow_names[a]
        rows = dims[q.arrow_tgt[a]]
        cols = dims[q.arrow_src[a]]
        key = where + ("maps", name)
        raw = _typed(maps.get(name, []), list, source, key)
        if not raw:
            mats.append(Mat.zeros(fld, rows, cols))
            continue
        if len(raw) != rows or any(type(r) is not list or len(r) != cols for r in raw):
            raise _fault("ValueError", source, key, "must be a %dx%d matrix given as a list of rows" % (rows, cols))
        ent = tuple(
            _number(fld, _scalar(x, source, key + (i, j)), source, key + (i, j))
            for i, r in enumerate(raw)
            for j, x in enumerate(r)
        )
        mats.append(Mat(fld, rows, cols, ent))
    try:
        return Representation(alg, dims, mats)
    except RepherdError as exc:
        raise ParseError("%s: %s: %s" % (type(exc).__name__, source, exc)) from exc


def load_module(alg, path) -> Representation:
    return module_from_dict(alg, load_json(path), source=path)


def load_summands(alg, path):
    """The summands of a tilting file, {"summands": [MODULE, ...]}."""
    data = _typed(load_json(path), dict, path, ())
    summands = _typed(_get(data, "summands", path, ()), list, path, ("summands",))
    return [module_from_dict(alg, d, path, ("summands", i)) for i, d in enumerate(summands)]


def module_to_dict(rep: Representation) -> dict:
    q = rep.algebra.quiver
    fld = rep.algebra.field
    dims = {q.vertices[v]: rep.dims[v] for v in range(q.n_vertices) if rep.dims[v]}
    maps = {}
    for a in range(q.n_arrows):
        m = rep.mats[a]
        if m.rows and m.cols and not m.is_zero():
            maps[q.arrow_names[a]] = [[fld.fmt(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]
    return {"dims": dims, "maps": maps}


def dump_json(path, obj):
    """Atomic write with stable key order."""
    blob = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), ".tmp-%d-%s.json" % (os.getpid(), os.urandom(6).hex()))
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def catalog_summary(cat) -> dict:
    nodes = []
    for node in cat.nodes:
        nodes.append(
            {
                "name": node.name,
                "dims": list(node.rep.dims),
                "projective": node.proj_vertex is not None,
                "injective": node.inj_vertex is not None,
                "tau": cat.nodes[node.tau].name if node.tau is not None else None,
            }
        )
    return {"complete": cat.complete, "node_count": len(cat.nodes), "nodes": nodes}


def report_file(alg, reports, cat=None) -> dict:
    out = {
        "tool_version": TOOL_VERSION,
        "algebra_digest": getattr(alg, "digest", None),
        "checks": [r.to_json() for r in reports],
    }
    if cat is not None:
        out["catalog"] = catalog_summary(cat)
    return out
