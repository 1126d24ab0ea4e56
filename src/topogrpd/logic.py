"""Finite geometric logic and groupoids of indexed models.

Formulas live in the geometric fragment: relation and equality atoms,
truth, falsity, binary conjunction, finitary disjunction and existential
quantification.  Depth counts connective/quantifier nesting (atoms have
depth 0).  Concrete syntax:

    T    F    R(t1,...,tn)    t1 = t2    phi /\\ psi
    phi1 \\/ ... \\/ phik      exists x:Sort. phi

with precedence exists < \\/ < /\\ < atoms; exists extends maximally to
the right.  The printer emits a form the parser maps back to the same
tree.

A groupoid of indexed models carries the topologies generated by
formula-with-parameter satisfaction sets on objects and by parameter
transport sets (together with source/target preimages) on arrows.  Both
are computed at a bounded formula depth and bounded parameter tuple
length; results record the achieved depth and whether consecutive
depths produced identical open families.  Definable-set search is
semantic: formulas are enumerated by depth with one canonical
representative kept per satisfaction extension across the member
models.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, combinations_with_replacement, islice, permutations, product
from operator import and_, or_
from typing import NamedTuple

from . import fintop
from .errors import CapExceeded, FormulaError, InputError
from .fintop import ckey
from .grpd import TopGroupoid
from .weq import Verdict

DEFAULT_TUPLE_CAP = 3
DEFAULT_FORMULA_BUDGET = 2048


# -- signatures -------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    sorts: tuple
    relations: tuple  # pairs (name, tuple of sorts)
    constants: tuple  # pairs (name, sort)

    def __post_init__(self):
        for _, arity in self.relations:
            for s in arity:
                if s not in self.sorts:
                    raise InputError(f"relation arity uses undeclared sort {s}")
        for _, s in self.constants:
            if s not in self.sorts:
                raise InputError(f"constant uses undeclared sort {s}")

    @property
    def relation_arities(self):
        return dict(self.relations)

    @property
    def constant_sorts(self):
        return dict(self.constants)


def make_signature(sorts, relations=(), constants=()) -> Signature:
    return Signature(
        tuple(sorts),
        tuple((n, tuple(a)) for n, a in dict(relations).items()),
        tuple(dict(constants).items()),
    )


# -- terms and formulas ------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class Rel:
    name: str
    args: tuple


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    disjuncts: tuple  # length >= 2


@dataclass(frozen=True)
class Exists:
    var: str
    sort: str
    body: object


def free_vars(ast) -> frozenset:
    if isinstance(ast, (Top, Bot)):
        return frozenset()
    if isinstance(ast, Eq):
        return frozenset(
            t.name for t in (ast.left, ast.right) if isinstance(t, Var)
        )
    if isinstance(ast, Rel):
        return frozenset(t.name for t in ast.args if isinstance(t, Var))
    if isinstance(ast, And):
        return free_vars(ast.left) | free_vars(ast.right)
    if isinstance(ast, Or):
        return frozenset().union(*(free_vars(d) for d in ast.disjuncts))
    if isinstance(ast, Exists):
        return free_vars(ast.body) - {ast.var}
    raise InputError(f"not a formula node: {ast!r}")


@dataclass(frozen=True)
class GeometricFormula:
    """A well-sorted geometric formula together with its typed context."""

    ast: object
    context: tuple  # pairs (var name, sort), free vars of ast a subset
    signature: Signature

    def __post_init__(self):
        ctx = dict(self.context)
        if len(ctx) != len(self.context):
            raise InputError("duplicate variable in context")
        missing = free_vars(self.ast) - set(ctx)
        if missing:
            raise InputError(f"free variables outside context: {sorted(missing)}")
        _sort_of(self.ast, ctx, self.signature)

    def __str__(self):
        return print_formula(self.ast)


def _term_sort(t, env, sig: Signature):
    if isinstance(t, Var):
        if t.name not in env:
            raise FormulaError(f"unbound variable {t.name}")
        return env[t.name]
    if isinstance(t, Const):
        cs = sig.constant_sorts
        if t.name not in cs:
            raise FormulaError(f"undeclared constant {t.name}")
        return cs[t.name]
    raise InputError(f"not a term: {t!r}")


def _sort_of(ast, env, sig: Signature):
    """Well-sortedness check; raises FormulaError on violations."""
    if isinstance(ast, (Top, Bot)):
        return
    if isinstance(ast, Eq):
        ls = _term_sort(ast.left, env, sig)
        rs = _term_sort(ast.right, env, sig)
        if ls != rs:
            raise FormulaError(f"equality between sorts {ls} and {rs}")
        return
    if isinstance(ast, Rel):
        arities = sig.relation_arities
        if ast.name not in arities:
            raise FormulaError(f"undeclared relation {ast.name}")
        arity = arities[ast.name]
        if len(ast.args) != len(arity):
            raise FormulaError(f"relation {ast.name} expects {len(arity)} arguments")
        for t, s in zip(ast.args, arity):
            if _term_sort(t, env, sig) != s:
                raise FormulaError(f"argument of {ast.name} has wrong sort")
        return
    if isinstance(ast, And):
        _sort_of(ast.left, env, sig)
        _sort_of(ast.right, env, sig)
        return
    if isinstance(ast, Or):
        for d in ast.disjuncts:
            _sort_of(d, env, sig)
        return
    if isinstance(ast, Exists):
        if ast.sort not in sig.sorts:
            raise FormulaError(f"undeclared sort {ast.sort}")
        _sort_of(ast.body, dict(env, **{ast.var: ast.sort}), sig)
        return
    raise InputError(f"not a formula node: {ast!r}")


# -- printer ----------------------------------------------------------------


def _print_term(t):
    return t.name


def _print(ast, prec):
    # precedence levels: exists 0 < or 1 < and 2 < atoms 3
    if isinstance(ast, Top):
        return "T"
    if isinstance(ast, Bot):
        return "F"
    if isinstance(ast, Eq):
        return f"{_print_term(ast.left)} = {_print_term(ast.right)}"
    if isinstance(ast, Rel):
        return f"{ast.name}({', '.join(_print_term(a) for a in ast.args)})"
    if isinstance(ast, And):
        s = f"{_print(ast.left, 2)} /\\ {_print(ast.right, 3)}"
        return f"({s})" if prec > 2 else s
    if isinstance(ast, Or):
        s = " \\/ ".join(_print(d, 2) for d in ast.disjuncts)
        return f"({s})" if prec > 1 else s
    if isinstance(ast, Exists):
        s = f"exists {ast.var}:{ast.sort}. {_print(ast.body, 0)}"
        return f"({s})" if prec > 0 else s
    raise InputError(f"not a formula node: {ast!r}")


def print_formula(ast) -> str:
    return _print(ast, 0)


# -- parser -----------------------------------------------------------------

_SYMBOLS = ("/\\", "\\/", "(", ")", ",", "=", ".", ":")


def _lex(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                out.append((sym, i))
                i += len(sym)
                break
        else:
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                out.append((text[i:j], i))
                i = j
            else:
                raise FormulaError(f"unexpected character {c!r}", i)
    out.append((None, n))
    return out


class _Parser:
    def __init__(self, tokens, sig: Signature):
        self.toks = tokens
        self.pos = 0
        self.sig = sig

    def peek(self):
        return self.toks[self.pos][0]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, sym):
        tok, at = self.next()
        if tok != sym:
            raise FormulaError(f"expected {sym!r}, found {tok!r}", at)

    def formula(self):
        if self.peek() == "exists":
            self.next()
            var, vat = self.next()
            if var is None or not var[0].isalpha():
                raise FormulaError("expected a variable after 'exists'", vat)
            if self.peek() == ":":
                self.next()
                sort, sat = self.next()
                if sort not in self.sig.sorts:
                    raise FormulaError(f"undeclared sort {sort!r}", sat)
            elif len(self.sig.sorts) == 1:
                # sort annotation may be dropped over a single-sorted signature
                sort = self.sig.sorts[0]
            else:
                raise FormulaError("bound variable needs a sort annotation", vat)
            self.expect(".")
            return Exists(var, sort, self.formula())
        return self.disjunction()

    def disjunction(self):
        parts = [self.conjunction()]
        while self.peek() == "\\/":
            self.next()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self):
        out = self.atom()
        while self.peek() == "/\\":
            self.next()
            out = And(out, self.atom())
        return out

    def term(self):
        name, at = self.next()
        if name is None or not (name[0].isalpha() or name[0] == "_"):
            raise FormulaError(f"expected a term, found {name!r}", at)
        if name in self.sig.constant_sorts:
            return Const(name)
        return Var(name)

    def atom(self):
        tok, at = self.toks[self.pos]
        if tok == "(":
            self.next()
            inner = self.formula()
            self.expect(")")
            return inner
        if tok == "T":
            self.next()
            return Top()
        if tok == "F":
            self.next()
            return Bot()
        if tok is None:
            raise FormulaError("unexpected end of input", at)
        if self.toks[self.pos + 1][0] == "(":
            if tok not in self.sig.relation_arities:
                raise FormulaError(f"undeclared relation {tok}", at)
            self.next()
            self.expect("(")
            args = [self.term()]
            while self.peek() == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            return Rel(tok, tuple(args))
        left = self.term()
        self.expect("=")
        right = self.term()
        return Eq(left, right)


def parse_formula(text: str, sig: Signature, context=None) -> GeometricFormula:
    """Parse concrete syntax into a well-sorted formula.

    When `context` (pairs (var, sort)) is omitted, free-variable sorts
    are inferred from relation positions and equalities; unconstrained
    variables default to the unique sort.  Errors carry positions.
    """
    parser = _Parser(_lex(text), sig)
    ast = parser.formula()
    tok, at = parser.toks[parser.pos]
    if tok is not None:
        raise FormulaError(f"unexpected trailing input {tok!r}", at)
    if context is not None:
        return GeometricFormula(ast, tuple(tuple(p) for p in context), sig)
    inferred = _infer_context(ast, sig)
    return GeometricFormula(ast, inferred, sig)


def _infer_context(ast, sig: Signature):
    constraints = {}

    def unify(v, s, bound):
        if v in bound:
            return
        if v in constraints and constraints[v] != s:
            raise FormulaError(f"variable {v} used at two sorts")
        constraints[v] = s

    def walk(node, bound):
        if isinstance(node, Rel):
            for t, s in zip(node.args, sig.relation_arities[node.name]):
                if isinstance(t, Var):
                    unify(t.name, s, bound)
        elif isinstance(node, Eq):
            ts = None
            for t in (node.left, node.right):
                if isinstance(t, Const):
                    ts = sig.constant_sorts.get(t.name)
            if ts is not None:
                for t in (node.left, node.right):
                    if isinstance(t, Var):
                        unify(t.name, ts, bound)
        elif isinstance(node, And):
            walk(node.left, bound)
            walk(node.right, bound)
        elif isinstance(node, Or):
            for d in node.disjuncts:
                walk(d, bound)
        elif isinstance(node, Exists):
            walk(node.body, bound | {node.var})

    walk(ast, frozenset())
    ctx = []
    for v in sorted(free_vars(ast)):
        if v in constraints:
            ctx.append((v, constraints[v]))
        elif len(sig.sorts) == 1:
            ctx.append((v, sig.sorts[0]))
        else:
            raise FormulaError(f"cannot infer sort of {v}")
    return tuple(ctx)


# -- finite models -----------------------------------------------------------


class Layout(NamedTuple):
    """A model on carrier positions: its (sort, element) pairs (sort names
    sorted, then `ckey` within a sort), the position of each pair, the
    positions of the constants (in signature order) and each relation's
    rows as tuples of positions."""

    pairs: tuple
    index: dict
    consts: tuple
    rows: dict


class FinModel:
    """A finite structure: carriers per sort, relation and constant
    interpretations.  Elements must be strings or ints (canonical ids)."""

    __slots__ = ("name", "signature", "carriers", "relations", "constants", "_layout")

    def __init__(self, name, signature: Signature, carriers, relations=None, constants=None):
        self.name = name
        self.signature = signature
        if extra := sorted(set(carriers) - set(signature.sorts)):
            raise InputError(f"undeclared sort {extra[0]}")
        self.carriers = {s: frozenset(carriers.get(s, ())) for s in signature.sorts}
        rels = dict(relations or {})
        self.relations = {}
        arities = signature.relation_arities
        for rname, arity in arities.items():
            rows = frozenset(tuple(r) for r in rels.pop(rname, ()))
            for row in rows:
                if len(row) != len(arity):
                    raise InputError(f"relation {rname} row has wrong length")
                for e, s in zip(row, arity):
                    if e not in self.carriers[s]:
                        raise InputError(f"relation {rname} row outside carrier")
            self.relations[rname] = rows
        if rels:
            raise InputError(f"undeclared relation {sorted(rels)[0]}")
        self.constants = dict(constants or {})
        for cname, s in signature.constant_sorts.items():
            if cname not in self.constants:
                raise InputError(f"constant {cname} not interpreted")
            if self.constants[cname] not in self.carriers[s]:
                raise InputError(f"constant {cname} outside carrier")
        if extra := sorted(set(self.constants) - set(signature.constant_sorts)):
            raise InputError(f"undeclared constant {extra[0]}")
        for e in self.elements():
            if not isinstance(e, (str, int)):
                raise InputError("carrier elements must be strings or ints")
        self._layout = None

    def layout(self) -> Layout:
        """The model's `Layout`, computed on the first call only."""
        if self._layout is None:
            pairs = tuple((s, e) for s in sorted(self.signature.sorts)
                          for e in fintop.sorted_points(self.carriers[s]))
            index = {p: i for i, p in enumerate(pairs)}
            arities = self.signature.relation_arities
            self._layout = Layout(
                pairs, index,
                tuple(index[(s, self.constants[c])] for c, s in self.signature.constants),
                {r: frozenset(tuple(map(index.__getitem__, zip(arities[r], row))) for row in rows)
                 for r, rows in self.relations.items()})
        return self._layout

    def elements(self):
        return [e for s in self.signature.sorts for e in self.carriers[s]]

    def __eq__(self, other):
        if not isinstance(other, FinModel):
            return NotImplemented
        return (
            self.name == other.name
            and self.signature == other.signature
            and self.carriers == other.carriers
            and self.relations == other.relations
            and self.constants == other.constants
        )

    def __repr__(self):
        sizes = ",".join(f"{s}:{len(c)}" for s, c in self.carriers.items())
        return f"FinModel({self.name}; {sizes})"


def eval_formula(model: FinModel, formula: GeometricFormula, env) -> bool:
    """Classical satisfaction of a geometric formula under an assignment
    covering the context."""
    ctx = dict(formula.context)
    for v in ctx:
        if v not in env:
            raise InputError(f"unbound variable {v}")
    return _eval(model, formula.ast, dict(env))


def _eval_term(model, t, env):
    if isinstance(t, Var):
        if t.name not in env:
            raise InputError(f"unbound variable {t.name}")
        return env[t.name]
    return model.constants[t.name]


def _eval(model, ast, env):
    if isinstance(ast, Top):
        return True
    if isinstance(ast, Bot):
        return False
    if isinstance(ast, Eq):
        return _eval_term(model, ast.left, env) == _eval_term(model, ast.right, env)
    if isinstance(ast, Rel):
        row = tuple(_eval_term(model, t, env) for t in ast.args)
        return row in model.relations[ast.name]
    if isinstance(ast, And):
        return _eval(model, ast.left, env) and _eval(model, ast.right, env)
    if isinstance(ast, Or):
        return any(_eval(model, d, env) for d in ast.disjuncts)
    if isinstance(ast, Exists):
        for e in model.carriers[ast.sort]:
            env2 = dict(env)
            env2[ast.var] = e
            if _eval(model, ast.body, env2):
                return True
        return False
    raise InputError(f"not a formula node: {ast!r}")


# -- isomorphisms ------------------------------------------------------------


class Iso(NamedTuple):
    """An isomorphism src -> tgt of the models so named, used directly as
    an arrow point id: pos[i] is the position in tgt's `Layout` of the
    image of src's position i."""

    src: str
    tgt: str
    pos: tuple


def identity_iso(m: FinModel) -> Iso:
    return Iso(m.name, m.name, tuple(range(len(m.layout().pairs))))


def _inverse(p) -> tuple:
    q = [0] * len(p)
    for i, j in enumerate(p):
        q[j] = i
    return tuple(q)


def _preserves(p, m: Layout, n: Layout) -> bool:
    """Do the positions p carry m's constants and relations onto n's?"""
    return all(p[i] == j for i, j in zip(m.consts, n.consts)) and all(
        frozenset(tuple(map(p.__getitem__, row)) for row in rows) == n.rows[r]
        for r, rows in m.rows.items())


def _iso_positions(m: FinModel, n: FinModel):
    """The isomorphisms m -> n as position tuples, in increasing order:
    a permutation of each sort's block of positions, the blocks in
    layout order."""
    if m.signature != n.signature:
        raise InputError("models over different signatures")
    blocks, start = [], 0
    for s in sorted(m.signature.sorts):
        k = len(m.carriers[s])
        if k != len(n.carriers[s]):
            return
        blocks.append(permutations(range(start, start + k)))
        start += k
    lm, ln = m.layout(), n.layout()
    for combo in product(*blocks):
        p = sum(combo, ())
        if _preserves(p, lm, ln):
            yield p


def model_isomorphisms(m: FinModel, n: FinModel):
    """All isomorphisms m -> n, in canonical order."""
    return [Iso(m.name, n.name, p) for p in _iso_positions(m, n)]


def automorphisms(m: FinModel):
    return model_isomorphisms(m, m)


# -- indexed models and model groupoids --------------------------------------


class IndexedModel:
    """A model with a partial parameter assignment hitting every element."""

    __slots__ = ("model", "indexing")

    def __init__(self, model: FinModel, indexing, params):
        self.model = model
        self.indexing = dict(indexing)
        for p, e in self.indexing.items():
            if p not in params:
                raise InputError(f"parameter {p} not declared")
            if e not in model.carriers[params[p]]:
                raise InputError(f"parameter {p} indexes a non-element")
        for s in model.signature.sorts:
            hit = {e for p, e in self.indexing.items() if params[p] == s}
            if hit != model.carriers[s]:
                raise InputError(
                    f"indexing of {model.name} not surjective on sort {s}"
                )

    @property
    def name(self):
        return self.model.name

    def interp(self, p):
        return self.indexing.get(p)

    def __eq__(self, other):
        if not isinstance(other, IndexedModel):
            return NotImplemented
        return self.model == other.model and self.indexing == other.indexing


class MemberFamily:
    """The members of a model groupoid (signature, params and indexed
    models) with the definable-set work that depends on them alone: the
    engine, and for each tuple cap the object subbasis and object space
    at each depth, extended one depth at a time.  Every ModelGroupoid on
    the same family shares them, whatever its arrows."""

    def __init__(self, signature: Signature, params, members):
        self.signature = signature
        self.params = dict(params)
        for p, s in self.params.items():
            if s not in signature.sorts:
                raise InputError(f"parameter {p} has undeclared sort {s}")
        self.members = tuple(members)
        self.by_name = {im.name: im for im in self.members}
        if len(self.by_name) != len(self.members):
            raise InputError("duplicate member model names")
        self._engine = None
        self._objects = {}  # tuple cap -> ([(subbasis, space) at depth 0, 1, ...], its cuts)

    def engine(self) -> "DefinableSets":
        """The definable-set enumeration of the members."""
        if self._engine is None:
            self._engine = DefinableSets(self.signature, [im.model for im in self.members])
        return self._engine

    def interp_tuple(self, name, ptuple):
        """Interpretation of a parameter tuple in a member, or None."""
        im = self.by_name[name]
        vals = tuple(im.interp(p) for p in ptuple)
        return None if any(v is None for v in vals) else vals

    def param_tuples(self, max_len, with_replacement=False):
        """Canonically ordered parameter tuples up to the cap (sorted
        names; permutations and, unless requested, repetitions are
        absorbed by variable renaming in the formula)."""
        if max_len < 0:
            raise InputError(f"tuple cap {max_len} is negative")
        names = sorted(self.params)
        comb = combinations_with_replacement if with_replacement else combinations
        out = []
        for k in range(0, max_len + 1):
            out.extend(comb(names, k))
        return out

    def cuts(self, ctx_sorts, points, tuple_cap) -> list:
        """(sorts, sel, bits) for each parameter tuple up to tuple_cap:
        the context sorts followed by the tuple's, and `bits` pairs each
        point of `points` (mapped to its (member name, tuple) pair) whose
        member interprets the tuple with the bit of its pair extended by
        the parameters' values; `sel` ORs those bits."""
        eng = self.engine()
        out = []
        for ptuple in self.param_tuples(tuple_cap):
            sorts = ctx_sorts + tuple(self.params[p] for p in ptuple)
            index = eng.index(sorts)
            bits = [(pt, index[(eng.rep[n], tup + vals)]) for pt, (n, tup) in points.items()
                    if (vals := self.interp_tuple(n, ptuple)) is not None]
            out.append((sorts, reduce(or_, (1 << bit for _, bit in bits), 0), bits))
        return out

    def objects(self, depth, tuple_cap) -> tuple:
        """(subbasis, space) of the member names at `depth`: the sets of
        members that formulas of depth <= depth cut out, with parameter
        tuples up to tuple_cap, and the topology they generate.  Each
        depth cuts only the extensions that are new at it."""
        if tuple_cap not in self._objects:
            names = {n: (n, ()) for n in self.by_name}
            self._objects[tuple_cap] = ([], self.cuts((), names, tuple_cap))
        chain, cuts = self._objects[tuple_cap]
        eng = self.engine()
        while len(chain) <= depth:
            d = len(chain)
            subbasis = set(chain[-1][0]) if chain else set()
            for sorts, sel, bits in cuts:
                # level(d) lists level(d - 1) first, then what is new at d
                new = islice(eng.level(sorts, d), len(eng.level(sorts, d - 1)) if d else 0, None)
                subbasis |= _cut({ext & sel for ext in new}, bits)
            chain.append((subbasis, fintop.generate_topology(self.by_name, subbasis)))
        return chain[depth]


def _cut(exts, bits) -> set:
    """The set of points each extension in `exts` holds, given each
    point's bit in `bits`."""
    return {frozenset(pt for pt, bit in bits if ext >> bit & 1) for ext in exts}


class ModelGroupoid:
    """A groupoid of indexed models: member models plus a set of
    isomorphisms closed under composition and inverses (identities
    included).  derive() endows it with the logical topologies.

    The members are held in a `MemberFamily`: a new one, unless `family`,
    the family of these signature, params and members, is given to share.

    Construction checks every arrow before it composes any: its endpoints
    are members, its positions are a bijection of the carriers that keeps
    each element in its sort, and it preserves the constants and
    relations.  Only then are the structure tables `unit` (member name to
    identity), `inv`, `out_of` and `into` (member name to the arrows with
    that source, with that target) and `comp` ((b, a) to b o a, at
    positions b.pos[a.pos[i]]) built, once, by looking each expected
    `Iso` up among the arrows, and the closure laws read from them.  Each
    stage raises one InputError naming all its violations in canonical
    order.  `complete` builds the groupoid of all isomorphisms between the
    members, checking nothing.  `order` lists the arrows sorted by (source,
    target, positions), member names ranked in `ckey` order: their `ckey` order."""

    def __init__(self, signature: Signature, params, members, arrows, family=None):
        self._hold(MemberFamily(signature, params, members) if family is None else family)
        self.arrows = frozenset(arrows)
        faults = {a: f for a in self.arrows if (f := self._fault(a))}
        if faults:
            raise InputError("; ".join(faults[a] for a in sorted(faults, key=ckey)))
        self.order = self._sorted()
        own = {a: a for a in self.arrows}
        self.unit = {n: own.get(identity_iso(im.model)) for n, im in self.by_name.items()}
        self.inv = {a: own.get(Iso(a.tgt, a.src, _inverse(a.pos))) for a in self.arrows}
        self.out_of, self.into = {n: [] for n in self.by_name}, {n: [] for n in self.by_name}
        for a in self.arrows:
            self.out_of[a.src].append(a)
            self.into[a.tgt].append(a)
        self.comp = {(b, a): own.get(Iso(a.src, b.tgt, tuple(map(b.pos.__getitem__, a.pos))))
                     for a in self.arrows for b in self.out_of[a.tgt]}
        bad = [f"missing identity on {n}" for n, e in self.unit.items() if e is None]
        bad += [f"arrows not closed under inverse at {a.src}->{a.tgt}"
                for a in self.order if self.inv[a] is None]
        if None in self.comp.values():
            bad.append("arrows not closed under composition")
        if bad:
            raise InputError("; ".join(bad))

    @classmethod
    def complete(cls, family: MemberFamily) -> "ModelGroupoid":
        """The groupoid of every isomorphism between the members of `family`,
        its tables read off `_iso_classes` with no arrow checked, composed
        or looked up: (i, l, j) is grid[i][l][j], unit[m_i] = (i, i, 0), the
        inverse of (i, l, j) is (l, i, inv[j]) and (l, o, j') o (i, l, j) is (i, o, mul[j'][j])."""
        g = cls.__new__(cls)
        g._hold(family)
        g.unit, g.inv, g.out_of, g.into, g.comp = {}, {}, {}, {}, {}
        for names, grid, mul, inv in _iso_classes(g.members):
            out_of = [[a for arrs in row for a in arrs] for row in grid]
            for i, (n, row) in enumerate(zip(names, grid)):
                g.unit[n], g.out_of[n] = row[i][0], out_of[i]
                g.into[n] = [a for before in grid for a in before[i]]
                # (l, o, j') o (i, l, j) in the order of product(out_of[l], (i, l, .))
                composites = [to_o[k] for to_o in row for by_b in mul for k in by_b]
                for mid, arrs in enumerate(row):
                    g.inv.update(zip(arrs, map(grid[mid][i].__getitem__, inv)))
                    g.comp.update(zip(product(out_of[mid], arrs), composites))
        g.arrows = frozenset(g.inv)
        g.order = g._sorted()
        return g

    def _hold(self, family: MemberFamily):
        f = self.family = family
        self.signature, self.params, self.members, self.by_name = (
            f.signature, f.params, f.members, f.by_name)
        # _chains: tuple cap -> [derived TopGroupoid at depth 0, 1, ...]
        self._chains, self._completion = {}, None

    def _sorted(self) -> tuple:
        rank = {n: i for i, n in enumerate(fintop.sorted_points(self.by_name))}
        return tuple(sorted(self.arrows, key=lambda a: (rank[a.src], rank[a.tgt], a.pos)))

    def _fault(self, a: Iso):
        """Why `a` is not an isomorphism between members, or None."""
        if a.src not in self.by_name or a.tgt not in self.by_name:
            return f"arrow between non-members {a.src}->{a.tgt}"
        m, n = self.by_name[a.src].model.layout(), self.by_name[a.tgt].model.layout()
        k = len(n.pairs)
        if not (len(a.pos) == len(m.pairs) == k == len(set(a.pos)) and all(
                0 <= j < k and n.pairs[j][0] == s
                for (s, _), j in zip(m.pairs, a.pos))):
            return f"arrow {a.src}->{a.tgt} map not a bijection of the carriers"
        if not _preserves(a.pos, m, n):
            return f"arrow {a.src}->{a.tgt} not an isomorphism"

    def image(self, a: Iso, sorts, tup) -> tuple:
        """The image under `a` of the tuple `tup` of elements of `sorts`."""
        m, n = self.by_name[a.src].model.layout(), self.by_name[a.tgt].model.layout()
        return tuple(n.pairs[a.pos[m.index[(s, e)]]][1] for s, e in zip(sorts, tup))

    def engine(self) -> "DefinableSets":
        """The definable-set enumeration of the members, the family's."""
        return self.family.engine()

    def derive(self, depth: int, tuple_cap: int = DEFAULT_TUPLE_CAP) -> "DerivedGroupoid":
        """logical_topologies(self, depth, tuple_cap), read off this groupoid's chain."""
        return logical_topologies(self, depth, tuple_cap)

    def __eq__(self, other):
        if not isinstance(other, ModelGroupoid):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.params == other.params
            and self.members == other.members
            and self.arrows == other.arrows
        )

    def __repr__(self):
        return f"ModelGroupoid({len(self.members)} models, {len(self.arrows)} isos)"


# -- semantic enumeration of definable sets ----------------------------------


class DefinableSets:
    """Depth-stratified enumeration of definable sets, synchronised
    across a family of models.

    Models of equal structure (the same carriers, relations and
    constants; the name plays no part) satisfy the same formulas at the
    same tuples, so the engine works on one representative per class of
    equal structure, the first model of the class.  `rep` maps each
    model name to its representative's name and `members` each
    representative's name to the names of its class.  Two different
    models under one name are an InputError; the same model twice is one
    member.

    level(ctx_sorts, depth) maps each realised extension to one canonical
    formula AST of depth <= depth in the context x1:s1, ..., xk:sk.  An
    extension is an int mask over index(ctx_sorts): bit i stands for the
    i-th (representative name, tuple) pair.  Masks are decoded into
    (model name, tuple) pairs only where an extension leaves the engine.
    """

    def __init__(self, signature: Signature, models, budget=DEFAULT_FORMULA_BUDGET):
        self.signature = signature
        self.budget = budget
        self.rep, self.members = {}, {}
        self._carriers = []  # (representative, its carriers in `ckey` order)
        first_of, structure_of = {}, {}  # structure -> representative; name -> structure
        for m in models:
            structure = (tuple(m.carriers.values()), tuple(m.relations.values()),
                         tuple(m.constants[c] for c, _ in signature.constants))
            if structure_of.setdefault(m.name, structure) != structure:
                raise InputError(f"two different models named {m.name}")
            if m.name in self.rep:
                continue
            r = first_of.setdefault(structure, m)
            if r is m:
                self.members[m.name] = []
                self._carriers.append((m, {s: fintop.sorted_points(c) for s, c in m.carriers.items()}))
            self.rep[m.name] = r.name
            self.members[r.name].append(m.name)
        self._levels = {}
        self._indexes = {}

    def index(self, ctx_sorts) -> dict:
        """{(representative name, tuple): bit}, in enumeration order
        (representatives in order, tuples in the product order of their
        sorted carriers)."""
        ctx_sorts = tuple(ctx_sorts)
        if ctx_sorts not in self._indexes:
            pairs = ((r.name, tup) for r, carriers in self._carriers
                     for tup in product(*(carriers[s] for s in ctx_sorts)))
            self._indexes[ctx_sorts] = {pair: bit for bit, pair in enumerate(pairs)}
        return self._indexes[ctx_sorts]

    def decode(self, ctx_sorts, ext) -> frozenset:
        """The (model name, tuple) pairs of an extension: each bit's
        representative stands for every member of its class."""
        return frozenset((n, tup) for (r, tup), bit in self.index(ctx_sorts).items()
                         if ext >> bit & 1 for n in self.members[r])

    def _atoms(self, ctx_sorts):
        """(atom, extension) pairs, in a fixed order.  A row of a
        representative is a tuple followed by the constants' values, and
        pos[p][e] is the mask of its rows holding e at position p; an
        extension is an OR over the representatives of ORs of ANDs of
        these masks, each AND started from the representative's full row
        mask."""
        sig = self.signature
        index = self.index(ctx_sorts)
        consts = [c for c, _ in sig.constants]
        # a term is a position in a row
        terms_by_sort = {}
        for i, s in enumerate(ctx_sorts):
            terms_by_sort.setdefault(s, []).append((Var(f"x{i + 1}"), i))
        for j, (c, s) in enumerate(sig.constants):
            terms_by_sort.setdefault(s, []).append((Const(c), len(ctx_sorts) + j))
        masks = []  # (representative, its full row mask, pos)
        for r, carriers in self._carriers:
            full, pos = 0, [{} for _ in ctx_sorts]
            for tup in product(*(carriers[s] for s in ctx_sorts)):
                bit = 1 << index[(r.name, tup)]
                full |= bit
                for p, e in enumerate(tup):
                    pos[p][e] = pos[p].get(e, 0) | bit
            masks.append((r, full, pos + [{r.constants[c]: full} for c in consts]))
        yield Top(), (1 << len(index)) - 1
        yield Bot(), 0
        for s in sig.sorts:
            ts = terms_by_sort.get(s, [])
            for i, (a, p) in enumerate(ts):
                for b, q in ts[i + 1:]:
                    yield Eq(a, b), reduce(or_, (
                        mask & pos[q].get(e, 0) for _, _, pos in masks for e, mask in pos[p].items()
                    ), 0)
        for rname, arity in sorted(sig.relation_arities.items()):
            for args in product(*(terms_by_sort.get(s, []) for s in arity)):
                at = [p for _, p in args]
                yield Rel(rname, tuple(t for t, _ in args)), reduce(or_, (
                    reduce(and_, (pos[p].get(e, 0) for p, e in zip(at, row)), full)
                    for r, full, pos in masks for row in r.relations[rname]
                ), 0)
    def level(self, ctx_sorts, depth: int) -> dict:
        if depth < 0:
            raise InputError(f"formula depth {depth} is negative")
        ctx_sorts = tuple(ctx_sorts)
        key = (ctx_sorts, depth)
        if key in self._levels:
            return self._levels[key]
        if depth == 0:
            table = {}
            for atom, ext in self._atoms(ctx_sorts):
                table.setdefault(ext, atom)
            self._levels[key] = table
            return table
        prev = self.level(ctx_sorts, depth - 1)
        table = dict(prev)

        def add(ext, node, *parts):
            if ext not in table:
                table[ext] = node(*parts)
                if len(table) > self.budget:
                    raise CapExceeded(f"definable-set family exceeds budget {self.budget}")

        items = list(prev.items())
        for i, (e1, f1) in enumerate(items):
            for e2, f2 in items[i:]:
                add(e1 & e2, And, f1, f2)
                add(e1 | e2, Or, (f1, f2))
        parents = self.index(ctx_sorts)
        for s in self.signature.sorts:
            inner = self.level(ctx_sorts + (s,), depth - 1)
            var = f"x{len(ctx_sorts) + 1}"
            # bit of each parent pair -> mask of the pairs extending it
            fibres = {}
            for (n, tup), bit in self.index(ctx_sorts + (s,)).items():
                p = 1 << parents[(n, tup[:-1])]
                fibres[p] = fibres.get(p, 0) | 1 << bit
            for ext, ast in inner.items():
                add(sum(p for p, fibre in fibres.items() if ext & fibre), Exists, var, s, ast)
        self._levels[key] = table
        return table

    def lookup(self, ctx_sorts, depth, ext):
        """Canonical formula whose extension is the set `ext` of (model
        name, tuple) pairs, or None.  It is None too where `ext` differs
        between the members of a class, which no formula cuts out."""
        table, index = self.level(tuple(ctx_sorts), depth), self.index(ctx_sorts)
        tuples = {n: set() for n in self.rep}
        for n, tup in ext:
            if (self.rep.get(n), tup) not in index:
                return None
            tuples[n].add(tup)
        mask = 0
        for r, names in self.members.items():
            if any(tuples[n] != tuples[r] for n in names):
                return None
            mask |= sum(1 << index[(r, tup)] for tup in tuples[r])
        return table.get(mask)


# -- logical topologies -------------------------------------------------------


@dataclass(frozen=True)
class DerivedGroupoid:
    """A model groupoid's topological incarnation at a bounded depth."""

    groupoid: TopGroupoid
    depth: int
    tuple_cap: int
    stabilized: bool

    @property
    def objects(self):
        return self.groupoid.objects

    @property
    def arrows(self):
        return self.groupoid.arrows


def _transports(g: ModelGroupoid):
    """The parameter transports {a : a(p) = q}, one set of arrows for each
    pair (p, q) of parameters of one sort, empty where no arrow takes the
    element p names in its source to the one q names in its target."""
    naming = {}  # (member name, position) -> the parameters naming it
    for im in g.members:
        index = im.model.layout().index
        for p, s in g.params.items():
            if (e := im.interp(p)) is not None:
                naming.setdefault((im.name, index[(s, e)]), []).append(p)
    transports = {(p, q): set() for p, s in g.params.items() for q, t in g.params.items() if s == t}
    for a in g.arrows:
        for i, j in enumerate(a.pos):
            for p in naming.get((a.src, i), ()):
                for q in naming.get((a.tgt, j), ()):
                    transports[(p, q)].add(a)
    return {frozenset(t) for t in transports.values()}


def _arrow_subbasis(g: ModelGroupoid, obj_subbasis, transports):
    subbasis = set(transports)
    for b in obj_subbasis:
        subbasis.add(frozenset(a for n in b for a in g.out_of[n]))
        subbasis.add(frozenset(a for n in b for a in g.into[n]))
    return subbasis


def logical_topologies(g: ModelGroupoid, depth: int,
                       tuple_cap: int = DEFAULT_TUPLE_CAP) -> DerivedGroupoid:
    """Endow a model groupoid with the logical topologies at bounded
    depth, deepening until consecutive open families agree or the bound
    is hit; the achieved depth and stabilization flag are recorded.

    g holds one chain per tuple cap, the derived groupoid of each depth,
    each built once, so a call computes only the depths past the held
    ones: the object side comes from the member family, and the
    transports (once per call that extends the chain), arrow subbasis and
    arrow space are g's own.  A depth whose spaces equal the previous
    depth's appends that same groupoid again, which ends the chain."""
    if depth < 0:
        raise InputError(f"formula depth {depth} is negative")
    chain = g._chains.setdefault(tuple_cap, [])
    transports = None
    while len(chain) <= depth and not (len(chain) > 1 and chain[-1] is chain[-2]):
        if transports is None:
            transports = _transports(g)
        obj_sub, obj_space = g.family.objects(len(chain), tuple_cap)
        arr_space = fintop.generate_topology(
            g.arrows, _arrow_subbasis(g, obj_sub, transports), order=g.order)
        if chain and (obj_space, arr_space) == (chain[-1].objects, chain[-1].arrows):
            chain.append(chain[-1])
        else:
            chain.append(TopGroupoid(obj_space, arr_space, {a: a.src for a in g.arrows},
                                     {a: a.tgt for a in g.arrows}, g.unit, g.inv, g.comp))
    stabilized = 1 < len(chain) <= depth + 1 and chain[-1] is chain[-2]
    achieved = len(chain) - 2 if stabilized else depth
    return DerivedGroupoid(chain[achieved], achieved, tuple_cap, stabilized)


# -- definable sheaves ---------------------------------------------------------


def definable_sheaf(g: ModelGroupoid, formula: GeometricFormula, depth: int,
                    tuple_cap: int = DEFAULT_TUPLE_CAP):
    """The sheaf of satisfying tuples of a geometric formula, with the
    parameter-definable topology on its total space, over the derived
    groupoid at the same depth.  An empty context yields the terminal
    sheaf."""
    from . import sheaf as sheaf_mod

    base = g.derive(depth, tuple_cap).groupoid
    ctx_sorts = tuple(s for _, s in formula.context)
    names = [v for v, _ in formula.context]
    total_pts = set()
    for im in g.members:
        for tup in product(*(im.model.carriers[s] for s in ctx_sorts)):
            if _eval(im.model, formula.ast, dict(zip(names, tup))):
                total_pts.add((im.name, tup))
    eng = g.engine()
    subbasis = set()
    for sorts, sel, bits in g.family.cuts(ctx_sorts, {pt: pt for pt in total_pts}, tuple_cap):
        subbasis |= _cut({ext & sel for ext in eng.level(sorts, depth)}, bits)
    total = fintop.generate_topology(total_pts, subbasis)
    proj = {pt: pt[0] for pt in total_pts}
    action = {}
    for (n, tup) in total_pts:
        for a in g.out_of[n]:
            action[(a, (n, tup))] = (a.tgt, g.image(a, ctx_sorts, tup))
    return sheaf_mod.EquivariantSheaf(base, total, proj, action)


def parameter_orbit(g: ModelGroupoid, ptuple) -> frozenset:
    """Orbit of the interpretations of a parameter tuple: the closure of
    the set of pairs (interpretation, model) under the arrow action,
    inside the total space of the truth sheaf on the matching context."""
    ptuple = tuple(ptuple)
    for p in ptuple:
        if p not in g.params:
            raise InputError(f"parameter {p} not declared")
    sorts_of = tuple(g.params[p] for p in ptuple)
    start = set()
    for im in g.members:
        vals = g.family.interp_tuple(im.name, ptuple)
        if vals is not None:
            start.add((im.name, vals))
    out = set(start)
    for (n, tup) in start:
        for a in g.out_of[n]:
            out.add((a.tgt, g.image(a, sorts_of, tup)))
    return frozenset(out)


def eliminates_parameters(g: ModelGroupoid, depth: int,
                          tuple_cap: int = DEFAULT_TUPLE_CAP) -> Verdict:
    """Search for parameter-free formulas defining every parameter-tuple
    orbit.  "yes" comes with one witness formula per tuple; exhausting
    the depth bound gives "unknown", never a definitive "no"."""
    eng = g.engine()
    witnesses = []
    unknown = []
    for ptuple in g.family.param_tuples(tuple_cap, with_replacement=True):
        if not ptuple:
            continue
        sorts_of = tuple(g.params[p] for p in ptuple)
        orbit = parameter_orbit(g, ptuple)
        found = eng.lookup(sorts_of, depth, orbit)
        if found is None:
            unknown.append({"tuple": list(ptuple)})
        else:
            witnesses.append(
                (("tuple", tuple(ptuple)), ("formula", print_formula(found)))
            )
    provenance = f"depth={depth},tuple-cap={tuple_cap}"
    if unknown:
        return Verdict(
            "unknown",
            tuple(tuple(sorted(u.items())) for u in unknown),
            provenance,
            details=(("witnesses_found", len(witnesses)),),
        )
    return Verdict("yes", tuple(witnesses), provenance)


# -- etale completion ----------------------------------------------------------


def _iso_classes(members):
    """(names, grid, mul, inv) per isomorphism class of the indexed models
    `members`.  Its first model r represents it; a later member m keeps
    the first isomorphism a_m: r -> m found, the identity if m has r's
    very structure.  Aut(r) = (c_0 = id, c_1, ...) in increasing order:
    c_j o c_k = c_mul[j][k], c_j^-1 = c_inv[j], and grid[i][l][j] is
    a_l o c_j o a_i^-1: names[i] -> names[l], all on positions."""
    found = []  # (r, Aut(r), [(name of m, a_m) for each member m of the class])
    for im in members:
        for r, autos, isos in found:
            same = r.signature == im.model.signature and r.layout() == im.model.layout()
            p = autos[0] if same else next(_iso_positions(r, im.model), None)
            if p is not None:
                isos.append((im.name, p))
                break
        else:
            autos = list(_iso_positions(im.model, im.model))
            found.append((im.model, autos, [(im.name, autos[0])]))
    for _, autos, isos in found:
        at = {c: j for j, c in enumerate(autos)}
        mul = [[at[tuple(map(b.__getitem__, c))] for c in autos] for b in autos]
        backs = [(m, [[c[x] for x in _inverse(pm)] for c in autos]) for m, pm in isos]
        grid = [[[Iso(m, n, tuple(map(pn.__getitem__, cb))) for cb in back] for n, pn in isos]
                for m, back in backs]
        yield [n for n, _ in isos], grid, mul, [row.index(0) for row in mul]


def all_isos_between_members(members) -> frozenset:
    """Every isomorphism between the indexed models `members` (a
    ModelGroupoid is read as its members), from `_iso_classes`."""
    return frozenset(a for _, grid, _, _ in _iso_classes(getattr(members, "members", members))
                     for row in grid for arrs in row for a in arrs)


def etale_completion(g: ModelGroupoid) -> ModelGroupoid:
    """Same members and indexings, arrows enlarged to all isomorphisms:
    built once and kept on g, on g's member family.

    The completion does not depend on a formula depth.  The inclusion of
    g at depth d and tuple cap c is
    `grpd.Subgroupoid(completion.derive(d, c).groupoid, g.arrows)`."""
    if g._completion is None:
        g._completion = ModelGroupoid.complete(g.family)
    return g._completion


def is_etale_complete(g: ModelGroupoid, depth: int,
                      tuple_cap: int = DEFAULT_TUPLE_CAP) -> Verdict:
    """Three conjuncts: all isomorphisms between members present (exact,
    read from the arrows of `etale_completion(g)`), sober object space
    (exact; automatic for finite T0), and parameter elimination (bounded,
    may come back unknown)."""
    witnesses = []
    missing = etale_completion(g).arrows - g.arrows
    # a witness names only the endpoints: one per pair, in canonical order
    for src, tgt in sorted({(a.src, a.tgt) for a in missing}, key=ckey):
        witnesses.append((("kind", "missing-isomorphism"), ("src", src), ("tgt", tgt)))
    derived = g.derive(depth, tuple_cap)
    sober = fintop.is_sober(derived.objects)
    if not sober:
        witnesses.append((("kind", "object-space-not-sober"),))
    elim = eliminates_parameters(g, depth, tuple_cap)
    details = (
        ("achieved_depth", derived.depth),
        ("stabilized", derived.stabilized),
        ("one_object_groupoid", len(g.members) == 1),
        ("eliminates_parameters", elim.answer),
    )
    provenance = f"depth={depth},tuple-cap={tuple_cap}"
    if witnesses:
        return Verdict("no", tuple(witnesses), provenance, details)
    if elim.answer == "unknown":
        return Verdict("unknown", elim.witnesses, provenance, details)
    return Verdict("yes", (), provenance, details)
