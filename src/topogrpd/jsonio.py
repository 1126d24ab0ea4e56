"""JSON schemas for spaces, groupoids, sheaves and model groupoids.

Input point ids must be JSON strings or integers (not booleans); any
other id is an InputError.  Output spaces whose points were constructed
internally (orbit classes, pairs) are labelled with canonical strings
via fmt_point.  JSON object keys are always strings; when a point set
contains integers, keys are matched by int-coercion.  comp triples
[f, g, h] mean h = g o f (f first).
"""

from __future__ import annotations

import hashlib
import json

from . import fintop, logic
from .errors import InputError
from .fintop import FinSpace, fmt_point, sorted_points
from .grpd import ContinuousFunctor, Subgroupoid, TopGroupoid
from .logic import (
    FinModel,
    IndexedModel,
    Iso,
    ModelGroupoid,
    Signature,
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _point_id(raw):
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise InputError(f"point id {raw!r} is not a string or an integer")
    return raw


def _point_set(raws, what):
    if not isinstance(raws, list):
        raise InputError(f"{what} must be a list of point ids")
    return frozenset(_point_id(r) for r in raws)


def _coerce(raw, points):
    if _point_id(raw) in points:
        return raw
    if isinstance(raw, str):
        try:
            as_int = int(raw)
        except ValueError:
            as_int = None
        if as_int in points:
            return as_int
    raise InputError(f"unknown point {raw!r}")


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
    if not isinstance(doc, dict) or "points" not in doc or "opens" not in doc:
        raise InputError("space document needs 'points' and 'opens'")
    points = _point_set(doc["points"], "points")
    return FinSpace.from_opens(points, _coerce_sets(doc["opens"], points, "opens"))


def space_to_json(space: FinSpace, cap: int = fintop.DEFAULT_OPEN_CAP):
    return {
        "points": [fmt_point(p) for p in sorted_points(space.points)],
        "opens": [
            sorted(fmt_point(p) for p in o) for o in space.opens(cap=cap)
        ],
    }


# -- groupoids ----------------------------------------------------------------


def groupoid_from_json(doc) -> TopGroupoid:
    if not isinstance(doc, dict):
        raise InputError("groupoid document must be an object")
    for key in ("objects", "arrows", "src", "tgt", "unit", "inv", "comp"):
        if key not in doc:
            raise InputError(f"groupoid document missing {key!r}")
    objects = space_from_json(doc["objects"])
    arrows = space_from_json(doc["arrows"])

    def raw_map(d, dom, cod):
        body = d.get("map", d) if isinstance(d, dict) else d
        if not isinstance(body, dict):
            raise InputError("groupoid maps must be objects from point to point")
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


def groupoid_to_json(g: TopGroupoid, cap: int = fintop.DEFAULT_OPEN_CAP):
    def plain(m):
        return {
            fmt_point(k): fmt_point(v)
            for k, v in sorted(m.mapping.items(), key=lambda kv: fintop.ckey(kv[0]))
        }

    return {
        "objects": space_to_json(g.objects, cap),
        "arrows": space_to_json(g.arrows, cap),
        "src": {"map": plain(g.src)},
        "tgt": {"map": plain(g.tgt)},
        "unit": {"map": plain(g.unit)},
        "inv": {"map": plain(g.inv)},
        "comp": sorted(
            [fmt_point(f), fmt_point(gg), fmt_point(h)]
            for (gg, f), h in g.comp.items()
        ),
    }


def subgroupoid_from_json(doc, ambient: TopGroupoid) -> Subgroupoid:
    if not isinstance(doc, dict) or "arrows" not in doc:
        raise InputError("subgroupoid document needs 'arrows'")
    sub = Subgroupoid(ambient, _coerce_set(doc["arrows"], ambient.arrows.points, "arrows"))
    bad = sub.validate()
    if bad:
        raise InputError("not a subgroupoid: " + "; ".join(bad))
    return sub


def family_from_json(doc, ambient: TopGroupoid):
    if not isinstance(doc, dict) or "subgroupoids" not in doc:
        raise InputError("family document needs 'subgroupoids'")
    return [
        subgroupoid_from_json({"arrows": arrows}, ambient)
        for arrows in doc["subgroupoids"]
    ]


def functor_from_json(doc) -> ContinuousFunctor:
    if not isinstance(doc, dict):
        raise InputError("functor document must be an object")
    for key in ("dom", "cod", "obj_map", "arr_map"):
        if key not in doc:
            raise InputError(f"functor document missing {key!r}")
        if key.endswith("_map") and not isinstance(doc[key], dict):
            raise InputError(f"{key} must be an object from point to point")
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
    f = ContinuousFunctor(dom, cod, obj, arr, check=False)
    bad = f.validate()
    if bad:
        raise InputError("not a continuous functor: " + "; ".join(bad))
    return f


def sheaf_to_json(s, cap: int = fintop.DEFAULT_OPEN_CAP):
    return {
        "total": space_to_json(s.total, cap),
        "proj": {
            fmt_point(y): fmt_point(v)
            for y, v in sorted(
                s.proj.mapping.items(), key=lambda kv: fintop.ckey(kv[0])
            )
        },
        "action": sorted(
            [fmt_point(g), fmt_point(y), fmt_point(z)]
            for (g, y), z in s.action.items()
        ),
    }


def lattice_to_json(lat):
    return [sorted(fmt_point(y) for y in e) for e in lat.elements]


# -- logic --------------------------------------------------------------------


def signature_from_json(doc) -> Signature:
    if "sorts" not in doc:
        raise InputError("signature document needs 'sorts'")
    return logic.make_signature(
        doc["sorts"], doc.get("relations", {}), doc.get("constants", {})
    )


def signature_to_json(sig: Signature):
    return {
        "sorts": list(sig.sorts),
        "relations": {n: list(a) for n, a in sig.relations},
        "constants": dict(sig.constants),
    }


def model_from_json(doc, sig: Signature) -> FinModel:
    if "name" not in doc or "carriers" not in doc:
        raise InputError("model document needs 'name' and 'carriers'")
    return FinModel(
        doc["name"],
        sig,
        {s: _point_set(v, f"carrier {s!r}") for s, v in doc["carriers"].items()},
        {n: [tuple(r) for r in rows] for n, rows in doc.get("relations", {}).items()},
        doc.get("constants", {}),
    )


def _carrier_coerce(raw, model: FinModel, sort):
    return _coerce(raw, model.carriers[sort])


def iso_from_json(doc, by_name) -> Iso:
    for key in ("src", "tgt", "map"):
        if key not in doc:
            raise InputError(f"isomorphism document missing {key!r}")
    if doc["src"] not in by_name or doc["tgt"] not in by_name:
        raise InputError("isomorphism between unknown models")
    src = by_name[doc["src"]].model
    tgt = by_name[doc["tgt"]].model
    triples = []
    for sort, assign in doc["map"].items():
        for a, b in assign.items():
            triples.append(
                (sort, _carrier_coerce(a, src, sort), _carrier_coerce(b, tgt, sort))
            )
    return Iso(doc["src"], doc["tgt"], tuple(sorted(triples)))


def iso_to_json(a: Iso):
    by_sort = {}
    for s, x, y in a.map:
        by_sort.setdefault(s, {})[fmt_point(x)] = fmt_point(y)
    return {"src": a.src, "tgt": a.tgt, "map": by_sort}


def model_groupoid_from_json(doc) -> ModelGroupoid:
    for key in ("signature", "params", "models", "arrows"):
        if key not in doc:
            raise InputError(f"model-groupoid document missing {key!r}")
    sig = signature_from_json(doc["signature"])
    params = dict(doc["params"])
    members = []
    for mdoc in doc["models"]:
        model = model_from_json(mdoc, sig)
        indexing = {
            p: _carrier_coerce(e, model, params[p])
            for p, e in mdoc.get("indexing", {}).items()
        }
        members.append(IndexedModel(model, indexing, params))
    by_name = {im.name: im for im in members}
    if doc["arrows"] == "all":
        probe = ModelGroupoid(
            sig, params, members,
            [logic.identity_iso(im.model) for im in members],
        )
        arrows = logic.all_isos_between_members(probe)
    else:
        arrows = frozenset(iso_from_json(a, by_name) for a in doc["arrows"])
    return ModelGroupoid(sig, params, members, arrows)


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
        "arrows": [iso_to_json(a) for a in sorted(g.arrows, key=fintop.ckey)],
    }


# -- cospans ------------------------------------------------------------------


def cospan_from_json(doc):
    from . import frac

    for key in ("source", "target", "apex", "fwd"):
        if key not in doc:
            raise InputError(f"cospan document missing {key!r}")
    source = model_groupoid_from_json(doc["source"])
    target = model_groupoid_from_json(doc["target"])
    apex = model_groupoid_from_json(doc["apex"])
    fdoc = doc["fwd"]
    obj_map = dict(fdoc["obj_map"])
    arr_map = {}
    for pair in fdoc["arr_map"]:
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
            "arr_map": [
                [iso_to_json(a), iso_to_json(b)]
                for a, b in sorted(c.fwd.arr_map.items(), key=lambda kv: fintop.ckey(kv[0]))
            ],
        },
        "weq_leg": {
            "arrows": [iso_to_json(a) for a in sorted(c.weq_leg.sub.arrows, key=fintop.ckey)]
        },
        "certificate": c.certificate.to_json(),
    }


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
