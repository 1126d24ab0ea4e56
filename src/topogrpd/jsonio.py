"""JSON schemas for spaces, groupoids, sheaves and model groupoids.

A space is written by its points' minimal opens and read from those or
from every open.  Input point ids must be JSON strings or integers (not
booleans); any other id is an InputError.  Every id is read as its
label, the string the writer gives it: an integer as its decimal
string, so 1 and "1" name one point, as JSON object keys name it, and
"01" names another.  Output spaces whose points were constructed
internally (orbit classes, pairs) are labelled with canonical strings
via fmt_point.  comp triples [f, g, h] mean h = g o f (f first).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from . import fintop, grpd, logic
from .errors import InputError
from .fintop import FinSpace, fmt_point, sorted_points
from .grpd import ContinuousFunctor, Subgroupoid, TopGroupoid
from .logic import (
    FinModel,
    IndexedModel,
    Iso,
    MemberFamily,
    ModelGroupoid,
    Signature,
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _object(doc, what, keys=()):
    """doc, once it is known to be a JSON object holding every key."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be an object")
    for key in keys:
        if key not in doc:
            raise InputError(f"{what} missing {key!r}")
    return doc


def _list(raw, what):
    if not isinstance(raw, list):
        raise InputError(f"{what} must be a list")
    return raw


def _names(raws, what):
    if not isinstance(raws, list) or not all(isinstance(r, str) for r in raws):
        raise InputError(f"{what} must be a list of names")
    return raws


def _label(raw):
    """A point id read as the label the writer gives it: an integer is
    its decimal string, so 1 and "1" name one point."""
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise InputError(f"point id {raw!r} is not a string or an integer")
    return str(raw)


def _point_tuple(raws, what):
    if not isinstance(raws, list):
        raise InputError(f"{what} must be a list of point ids")
    return tuple(map(_label, raws))


def _point_set(raws, what):
    out = set()
    for x in _point_tuple(raws, what):
        if x in out:
            raise InputError(f"{what}: point {x!r} is named twice")
        out.add(x)
    return frozenset(out)


def _coerce(raw, points):
    """The point of `points` that `raw` labels."""
    if (x := _label(raw)) not in points:
        raise InputError(f"unknown point {raw!r}")
    return x


def _coerce_set(raws, points, what):
    if not isinstance(raws, list):
        raise InputError(f"{what} must be a list of point ids")
    return frozenset(_coerce(r, points) for r in raws)


def _coerce_sets(raws, points, what):
    if not isinstance(raws, list):
        raise InputError(f"{what} must be a list of lists of point ids")
    return [_coerce_set(r, points, f"each of {what}") for r in raws]


# -- spaces -------------------------------------------------------------------


def space_from_json(doc) -> FinSpace:
    """A space from {"points": [...], "min_open": {p: [...]}}, as written
    here, or from every open, {"points": [...], "opens": [[...], ...]}."""
    doc = _object(doc, "space document", ("points",))
    if ("min_open" in doc) == ("opens" in doc):
        raise InputError("space document needs exactly one of 'min_open' and 'opens'")
    points = _point_set(doc["points"], "points")
    if "opens" in doc:
        return FinSpace.from_opens(points, _coerce_sets(doc["opens"], points, "opens"))
    min_open = _object(doc["min_open"], "min_open").items()
    return FinSpace(points, {_coerce(k, points): _coerce_set(v, points, "min_open") for k, v in min_open})


def topology_from_json(doc) -> FinSpace:
    """The space generated by {"points": [...], "subbasis": [[...], ...]}."""
    doc = _object(doc, "topology input", ("points", "subbasis"))
    points = _point_set(doc["points"], "points")
    return fintop.generate_topology(points, _coerce_sets(doc["subbasis"], points, "subbasis"))


def space_to_json(space: FinSpace, label=None):
    """The points in the space's `order` and each one's minimal open, each as
    `label[p]` (default: `fmt_point` of each point, once); a shared label is an InputError."""
    if label is None:
        label = {p: fmt_point(p) for p in space.points}
    points = [label[p] for p in space.order()]
    if len(set(points)) < len(points):
        shared = next(x for x, k in Counter(points).items() if k > 1)
        raise InputError(f"points: two points share the label {shared!r}")
    return {
        "points": points,
        "min_open": {label[p]: sorted(label[q] for q in space.min_open(p)) for p in space.order()},
    }


# -- groupoids ----------------------------------------------------------------


def groupoid_from_json(doc) -> TopGroupoid:
    doc = _object(doc, "groupoid document", ("objects", "arrows", "src", "tgt", "unit", "inv", "comp"))
    objects = space_from_json(doc["objects"])
    arrows = space_from_json(doc["arrows"])

    def raw_map(d, dom, cod):
        body = d.get("map") if isinstance(d, dict) else None
        if not isinstance(body, dict):
            raise InputError('groupoid maps must be {"map": {point: point, ...}}')
        return {
            _coerce(k, dom.points): _coerce(v, cod.points) for k, v in body.items()
        }

    if not isinstance(doc["comp"], list):
        raise InputError("comp must be a list of triples [f, g, h]")
    comp = {}
    for triple in doc["comp"]:
        if not isinstance(triple, list) or len(triple) != 3:
            raise InputError("comp entries must be triples [f, g, h]")
        f, g, h = (_coerce(t, arrows.points) for t in triple)
        if (g, f) in comp:
            raise InputError(f"comp: the pair [{fmt_point(f)}, {fmt_point(g)}] is named twice")
        comp[(g, f)] = h
    return TopGroupoid(
        objects,
        arrows,
        raw_map(doc["src"], arrows, objects),
        raw_map(doc["tgt"], arrows, objects),
        raw_map(doc["unit"], objects, arrows),
        raw_map(doc["inv"], arrows, arrows),
        comp,
    )


def groupoid_to_json(g: TopGroupoid):
    """Each object and arrow is labelled once; the labels are built in
    the spaces' `order`, which lists each map in the order of its domain."""
    obj = {x: fmt_point(x) for x in g.objects.order()}
    arr = {a: fmt_point(a) for a in g.arrows.order()}

    def plain(m, dom, cod):
        return {dom[k]: cod[m.mapping[k]] for k in dom}

    return {
        "objects": space_to_json(g.objects, obj),
        "arrows": space_to_json(g.arrows, arr),
        "src": {"map": plain(g.src, arr, obj)},
        "tgt": {"map": plain(g.tgt, arr, obj)},
        "unit": {"map": plain(g.unit, obj, arr)},
        "inv": {"map": plain(g.inv, arr, arr)},
        "comp": sorted([arr[f], arr[gg], arr[h]] for (gg, f), h in g.comp.items()),
    }


def subgroupoid_from_json(doc, ambient: TopGroupoid) -> Subgroupoid:
    doc = _object(doc, "subgroupoid document", ("arrows",))
    arrows = [_coerce(r, ambient.arrows.points) for r in _point_tuple(doc["arrows"], "arrows")]
    return grpd.checked_subgroupoid(Subgroupoid(ambient, _point_set(arrows, "arrows")))


def functor_from_json(doc) -> ContinuousFunctor:
    doc = _object(doc, "functor document", ("dom", "cod", "obj_map", "arr_map"))
    for key in ("obj_map", "arr_map"):
        _object(doc[key], key)
    dom = groupoid_from_json(doc["dom"])
    cod = groupoid_from_json(doc["cod"])
    obj = {
        _coerce(k, dom.objects.points): _coerce(v, cod.objects.points)
        for k, v in doc["obj_map"].items()
    }
    arr = {
        _coerce(k, dom.arrows.points): _coerce(v, cod.arrows.points)
        for k, v in doc["arr_map"].items()
    }
    return ContinuousFunctor(dom, cod, obj, arr)


def sheaf_to_json(s):
    """Each point of the total space is labelled once, in its `order`."""
    total = {y: fmt_point(y) for y in s.total.order()}
    return {
        "total": space_to_json(s.total, total),
        "proj": {total[y]: fmt_point(s.proj.mapping[y]) for y in total},
        "action": sorted([fmt_point(g), total[y], total[z]] for (g, y), z in s.action.items()),
    }


def lattice_to_json(lat):
    return [sorted(fmt_point(y) for y in e) for e in lat.elements]


# -- logic --------------------------------------------------------------------


def signature_from_json(doc) -> Signature:
    doc = _object(doc, "signature document", ("sorts",))
    relations = _object(doc.get("relations", {}), "signature relations")
    for name, arity in relations.items():
        _names(arity, f"arity of {name}")
    constants = _object(doc.get("constants", {}), "signature constants")
    if not all(isinstance(s, str) for s in constants.values()):
        raise InputError("signature constants must map names to sorts")
    return logic.make_signature(_names(doc["sorts"], "sorts"), relations, constants)


def signature_to_json(sig: Signature):
    return {
        "sorts": list(sig.sorts),
        "relations": {n: list(a) for n, a in sig.relations},
        "constants": dict(sig.constants),
    }


def model_from_json(doc, sig: Signature) -> FinModel:
    """A model whose elements are all labels, as `_label` reads them."""
    doc = _object(doc, "model document", ("name", "carriers"))
    if not isinstance(doc["name"], str):
        raise InputError("model name must be a string")
    carriers = _object(doc["carriers"], "carriers")
    relations = _object(doc.get("relations", {}), "model relations")
    constants = _object(doc.get("constants", {}), "model constants")
    return FinModel(
        doc["name"],
        sig,
        {s: _point_set(v, f"carrier {s!r}") for s, v in carriers.items()},
        {n: [_point_tuple(r, f"each row of {n}") for r in _list(rows, f"relation {n}")]
         for n, rows in relations.items()},
        {c: _label(v) for c, v in constants.items()},
    )


def iso_from_json(doc, by_name) -> Iso:
    """The Iso on the positions of the named models' layouts.  A map that
    leaves out an element gives a tuple shorter than the source's
    carriers, which `ModelGroupoid` rejects as no bijection."""
    doc = _object(doc, "isomorphism document", ("src", "tgt", "map"))
    if not all(isinstance(doc[k], str) and doc[k] in by_name for k in ("src", "tgt")):
        raise InputError("isomorphism between unknown models")
    src = by_name[doc["src"]].model
    tgt = by_name[doc["tgt"]].model
    at_src, at_tgt = src.layout().index, tgt.layout().index
    image = {}  # source position -> target position
    for sort, assign in _object(doc["map"], "isomorphism map").items():
        if sort not in src.carriers:
            raise InputError(f"isomorphism map on undeclared sort {sort!r}")
        for a, b in _object(assign, f"isomorphism map of sort {sort!r}").items():
            x, y = _coerce(a, src.carriers[sort]), _coerce(b, tgt.carriers[sort])
            image[at_src[(sort, x)]] = at_tgt[(sort, y)]
    return Iso(doc["src"], doc["tgt"], tuple(image[i] for i in sorted(image)))


def iso_to_json(a: Iso, g: ModelGroupoid):
    """An arrow between members of `g`, its map read through their layouts."""
    m, n = g.by_name[a.src].model.layout(), g.by_name[a.tgt].model.layout()
    by_sort = {}
    for (s, x), j in zip(m.pairs, a.pos):
        by_sort.setdefault(s, {})[fmt_point(x)] = fmt_point(n.pairs[j][1])
    return {"src": a.src, "tgt": a.tgt, "map": by_sort}


def _member_family(doc) -> MemberFamily:
    sig = signature_from_json(doc["signature"])
    params = _object(doc["params"], "params")
    for p, s in params.items():
        if s not in sig.sorts:
            raise InputError(f"parameter {p} has undeclared sort {s}")
    members = []
    for mdoc in _list(doc["models"], "models"):
        model = model_from_json(mdoc, sig)
        indexing = _object(mdoc.get("indexing", {}), "indexing")
        for p in indexing:
            if p not in params:
                raise InputError(f"parameter {p} not declared")
        members.append(IndexedModel(
            model, {p: _coerce(e, model.carriers[params[p]]) for p, e in indexing.items()}, params
        ))
    return MemberFamily(sig, params, members)


def _members_of(doc):
    return doc["signature"], doc["params"], doc["models"]


def _same(a, b) -> bool:
    """Are a and b the same JSON value?  `==` is quick to say no; the JSON
    texts then tell 1 from 1.0 and from true, which `==` equates."""
    return a == b and json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def model_groupoid_from_json(doc, memo=None) -> ModelGroupoid:
    """The model groupoid of a document.  `memo`, the list of (document,
    groupoid) pairs that the reads of one command share, gives equal
    documents one ModelGroupoid and documents with equal signature,
    params and models one MemberFamily; a document read first, or alone,
    is compared with nothing."""
    doc = _object(doc, "model-groupoid document", ("signature", "params", "models", "arrows"))
    memo = [] if memo is None else memo
    for seen, g in memo:
        if _same(doc, seen):
            return g
    family = next((g.family for seen, g in memo if _same(_members_of(doc), _members_of(seen))),
                  None) or _member_family(doc)
    if doc["arrows"] == "all":
        memo.append((doc, ModelGroupoid.complete(family)))
    else:
        arrows = frozenset(iso_from_json(a, family.by_name) for a in _list(doc["arrows"], "arrows"))
        memo.append((doc, ModelGroupoid(family.signature, family.params, family.members, arrows, family)))
    return memo[-1][1]


def model_groupoid_to_json(g: ModelGroupoid):
    models = []
    for im in g.members:
        m = im.model
        models.append(
            {
                "name": m.name,
                "carriers": {
                    s: [fmt_point(e) for e in sorted_points(c)]
                    for s, c in m.carriers.items()
                },
                "relations": {
                    n: sorted([fmt_point(e) for e in row] for row in rows)
                    for n, rows in m.relations.items()
                },
                "constants": {c: fmt_point(v) for c, v in m.constants.items()},
                "indexing": {p: fmt_point(e) for p, e in sorted(im.indexing.items())},
            }
        )
    return {
        "signature": signature_to_json(g.signature),
        "params": dict(sorted(g.params.items())),
        "models": models,
        "arrows": [iso_to_json(a, g) for a in g.order],
    }


# -- cospans ------------------------------------------------------------------


def cospan_from_json(doc, memo=None):
    """The two legs of a cospan document; its model groupoids are read
    through `memo` as `model_groupoid_from_json` reads them."""
    from . import frac

    doc = _object(doc, "cospan document", ("source", "target", "apex", "fwd"))
    fdoc = _object(doc["fwd"], "fwd", ("obj_map", "arr_map"))
    obj_map = _object(fdoc["obj_map"], "obj_map")
    if not all(isinstance(v, str) for v in obj_map.values()):
        raise InputError("obj_map must map model names to model names")
    source = model_groupoid_from_json(doc["source"], memo)
    target = model_groupoid_from_json(doc["target"], memo)
    apex = model_groupoid_from_json(doc["apex"], memo)
    arr_map = {}
    for pair in _list(fdoc["arr_map"], "arr_map"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError("arr_map entries must be pairs [iso, iso]")
        a = iso_from_json(pair[0], source.by_name)
        b = iso_from_json(pair[1], apex.by_name)
        arr_map[a] = b
    fwd = frac.ModelFunctor(source, apex, obj_map, arr_map)
    weq_leg = frac.ModelInclusion(target, apex)
    return fwd, weq_leg


def cospan_to_json(c):
    return {
        "source": model_groupoid_to_json(c.source),
        "target": model_groupoid_to_json(c.target),
        "apex": model_groupoid_to_json(c.apex),
        "fwd": {
            "obj_map": dict(sorted(c.fwd.obj_map.items())),
            "arr_map": [[iso_to_json(a, c.source), iso_to_json(c.fwd.arr_map[a], c.apex)]
                        for a in c.source.order],
        },
        "weq_leg": {"arrows": [iso_to_json(a, c.target) for a in c.target.order]},
        "certificate": c.certificate.to_json(),
    }


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
