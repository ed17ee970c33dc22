"""File formats: algebras, modules, reports, catalog cache.

Everything is JSON with coefficients carried as strings (or ints), parsed
exactly; floats are rejected outright.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile

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


def canonical_algebra_dict(data) -> dict:
    out = {
        "field": data.get("field", "Q"),
        "vertices": [str(v) for v in data["vertices"]],
        "arrows": [
            {"name": str(a["name"]), "from": str(a["from"]), "to": str(a["to"])}
            for a in data.get("arrows", [])
        ],
        "relations": [
            [{"coeff": str(t["coeff"]), "path": [str(x) for x in t["path"]]} for t in rel]
            for rel in data.get("relations", [])
        ],
        "length_bound": int(data["length_bound"]),
    }
    return out


def algebra_digest(data) -> str:
    canon = canonical_algebra_dict(data)
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def algebra_from_dict(data, field=None) -> BoundQuiverAlgebra:
    canon = canonical_algebra_dict(data)
    fld = field if field is not None else field_from_spec(canon["field"])
    quiver = Quiver(canon["vertices"], [(a["name"], a["from"], a["to"]) for a in canon["arrows"]])
    rels = []
    for rel in canon["relations"]:
        terms = []
        for t in rel:
            terms.append((fld.parse(t["coeff"]), make_path(quiver, t["path"])))
        rels.append(terms)
    alg = build_algebra(quiver, rels, fld, canon["length_bound"])
    alg.digest = algebra_digest(data)
    alg.source_dict = canon
    return alg


def load_algebra(path, field=None) -> BoundQuiverAlgebra:
    return algebra_from_dict(load_json(path), field=field)


def module_from_dict(alg, data) -> Representation:
    q = alg.quiver
    fld = alg.field
    dims = [0] * q.n_vertices
    for v, d in data.get("dims", {}).items():
        if str(v) not in q.vindex:
            raise ParseError("module file mentions unknown vertex %r" % (v,))
        dims[q.vindex[str(v)]] = int(d)
    mats = []
    maps = data.get("maps", {})
    for a in range(q.n_arrows):
        name = q.arrow_names[a]
        rows = dims[q.arrow_tgt[a]]
        cols = dims[q.arrow_src[a]]
        if name in maps and maps[name]:
            raw = maps[name]
            if len(raw) != rows or any(len(r) != cols for r in raw):
                raise ParseError("matrix for arrow %s has the wrong shape" % name)
            mats.append(Mat.from_rows(fld, [[fld.parse(x) for x in r] for r in raw]))
        else:
            mats.append(Mat.zeros(fld, rows, cols))
    return Representation(alg, dims, mats)


def load_module(alg, path) -> Representation:
    return module_from_dict(alg, load_json(path))


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
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".json")
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


# -- catalog cache -------------------------------------------------------------


def cache_path(alg, budget):
    """The cache file of the catalog of alg at this budget, keyed by algebra, field and budget."""
    root = os.environ.get("REPHERD_CACHE_DIR")
    if not root or not getattr(alg, "digest", None):
        return None
    os.makedirs(root, exist_ok=True)
    suffix = "q" if alg.field.kind == "Q" else "p%d" % alg.field.p
    name = "%s-%s-m%d-d%d.json" % (alg.digest, suffix, budget.max_modules, budget.max_total_dim)
    return os.path.join(root, name)


def save_catalog_cache(alg, cat, budget):
    path = cache_path(alg, budget)
    if path is None:
        return
    data = {
        "tool_version": TOOL_VERSION,
        "complete": cat.complete,
        "nodes": [
            {
                "name": node.name,
                "module": module_to_dict(node.rep),
                "proj_vertex": node.proj_vertex,
                "inj_vertex": node.inj_vertex,
                "simple_vertex": node.simple_vertex,
                "tau": node.tau,
                "tau_inv": node.tau_inv,
            }
            for node in cat.nodes
        ],
    }
    dump_json(path, data)


def load_catalog_cache(alg, budget):
    """The cached catalog, or None when there is none or it cannot be read."""
    path = cache_path(alg, budget)
    if path is None or not os.path.exists(path):
        return None
    try:
        return _catalog_from_cache(alg, load_json(path))
    except (OSError, ValueError, LookupError, TypeError, AttributeError, RepherdError):
        return None


def _catalog_from_cache(alg, data):
    """The catalog in a cache file, or None when its flags do not check out.

    `complete` must be a bool, every vertex flag None or a vertex index,
    every tau link None or a node index, and a node flagged P(v) or I(v) must
    be isomorphic to P(v) or I(v).
    """
    from .catalog import CatalogNode, IndecomposableCatalog
    from .modules import gen_cogen, iso_class_index

    if data.get("tool_version") != TOOL_VERSION or not isinstance(data["complete"], bool):
        return None
    gc = gen_cogen(alg)
    n_vertices, n_nodes = alg.quiver.n_vertices, len(data["nodes"])
    nodes = []
    for nd in data["nodes"]:
        rep = module_from_dict(alg, nd["module"])
        node = CatalogNode(
            rep,
            name=nd["name"],
            proj_vertex=nd["proj_vertex"],
            inj_vertex=nd["inj_vertex"],
            simple_vertex=nd["simple_vertex"],
            tau=nd["tau"],
            tau_inv=nd["tau_inv"],
        )
        vertex_flags = (node.proj_vertex, node.inj_vertex, node.simple_vertex)
        if not all(_index_or_none(x, n_vertices) for x in vertex_flags):
            return None
        if not all(_index_or_none(x, n_nodes) for x in (node.tau, node.tau_inv)):
            return None
        for v, canonical in ((node.proj_vertex, gc.projectives), (node.inj_vertex, gc.injectives)):
            if v is not None and iso_class_index(rep, [canonical[v]]) is None:
                return None
        nodes.append(node)
    return IndecomposableCatalog(alg, nodes, data["complete"])


def _index_or_none(x, n):
    return x is None or (type(x) is int and 0 <= x < n)
