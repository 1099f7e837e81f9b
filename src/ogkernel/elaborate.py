"""Elaboration: execute parsed declarations against a fresh kernel.

Assertions replay explicit proof expressions through kernel operations.
Each rule proves judgments of fixed forms.  `from` supplies SupportsQuant
premises: to H4, to set_intro, and to mor on a builtin, and a `from`
premise the derivation does not use is refused.  Every other premise
is the latest proof in the session (lexical, top-to-bottom; there is no
proof search) of the judgment the goal names.  A subproof has no goal, so of
the rules only H4, with its own `from`, can be one.  An `Eq(...)`
assertion is proved by `rule eq_within` with no subproofs and is evaluated,
not derived.  Generators and aliases share one namespace.  An include runs
at most once per session.  Model-check and limit declarations invoke the
finite-semantics oracle and the coherent-limit laboratory.

Diagnostic codes: E0004 unknown name, E0005 include failure, E0101
cross-domain equality (a refusal, not a crash), E0102 kernel-level errors
wrapped with the offending declaration's span.
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import Callable, NamedTuple

from . import streams
from .kernel import (
    AxiomId,
    CrossDomainEqualityError,
    Kernel,
    KernelError,
    Theorem,
    builtin_premises,
    trace_set,
    trace_uses,
)
from .semantics import FAILS, HOLDS, SWEEP_SIZES, SweepItem, soundness_sweep
from .semantics import verify_judgment  # unused here, but bench/probes.py patches this name
from .stdlib import evidence_models  # unused here, but bench/probes.py patches this name
from .surface import (
    MAX_NESTING,
    AssertDecl,
    AxiomRef,
    Decl,
    Diagnostic,
    GeneratorDecl,
    IncludeDecl,
    LimitDecl,
    Malformed,
    ModelCheckDecl,
    MorphismDecl,
    RuleApp,
    parse_source,
    read_source,
)
from .terms import (
    NAT,
    TWO,
    BitStream,
    BuiltinRule,
    EqQuery,
    Family,
    FnExpr,
    GenExpr,
    Ident,
    IsBinFn,
    IsCoherentFamily,
    IsDomain,
    IsGen,
    IsMor,
    IsObj,
    IsSet,
    Judgment,
    LimitRef,
    MorphismRef,
    Named,
    ObjLit,
    Powerset,
    Product,
    SupportsQuant,
    Table,
    render,
    term_names,
)

__all__ = [
    "MAX_ALIAS_NODES",
    "Item",
    "ElabResult",
    "elaborate_source",
    "elaborate_file",
    "elaborate_files",
]


# The most nodes an alias's body may have with each alias in it expanded, as
# its expansion is hashed and compared whole; it nests at most MAX_NESTING deep.
MAX_ALIAS_NODES = 4096


class Item(NamedTuple):
    """One reportable check result."""

    name: str
    status: str  # pass | fail | assumed | skipped
    detail: str = ""
    witness: dict | None = None


class ElabResult(NamedTuple):
    theorems: tuple[Theorem, ...]
    items: tuple[Item, ...]
    diagnostics: tuple[Diagnostic, ...]

    @property
    def judgments(self) -> tuple[Judgment, ...]:
        return tuple(thm.judgment for thm in self.theorems)


class _ElabError(Exception):
    def __init__(self, code: str, message: str, note: str | None = None):
        super().__init__(message)
        self.code = code
        self.note = note


_RULE_ALIASES = {
    "gen": "gen",
    "gen_intro": "gen",
    "mor": "mor",
    "mor_intro": "mor",
    "binfn": "binfn",
    "bin_fn_from_mor": "binfn",
    "domain_intro": "domain_intro",
    "set_intro": "set_intro",
    "H4": "squant",
    "squant_from_powerset": "squant",
    "coherent": "coherent",
    "coherent_family": "coherent",
    "cla": "cla",
    "coherent_limit": "cla",
    "eq_within": "eq_within",
    "eq_within_domain": "eq_within",
}


class _Session:
    def __init__(self) -> None:
        self.kernel = Kernel()
        self.theorems: list[Theorem] = []
        self.latest: dict[object, Theorem] = {}  # lookup key -> latest theorem in scope
        self.items: list[Item] = []
        self.diagnostics: list[Diagnostic] = []
        self.generators: dict[Ident, GenExpr] = {}  # a primitive's Named, an alias's body
        self.primitives: set[Ident] = set()  # the generators that name themselves
        self.shapes: dict[Ident, tuple[int, int]] = {}  # each alias's expanded depth and nodes
        self.morphisms: dict[Ident, FnExpr] = {}
        self.families: dict[Ident, Family] = {}  # each coherent family's descriptor
        self.including: list[str] = []  # resolved paths, as `os.path.realpath` gives them
        self.included: set[str] = set()
        self.roots: list[str | os.PathLike] = []  # root files run so far, not yet resolved

    # -- helpers

    def result(self) -> ElabResult:
        return ElabResult(tuple(self.theorems), tuple(self.items), tuple(self.diagnostics))

    def enter(self, thm: Theorem) -> None:
        """Bring `thm` into scope with its parts: each is filed under its
        judgment, a domain also under (IsDomain, expr) and a coherent family
        under (IsCoherentFamily, descriptor), shadowing what was filed there."""
        self.theorems.append(thm)
        for node in (thm, *thm.parts):
            j = node.judgment
            self.latest[j] = node
            if type(j) is IsDomain:
                self.latest[IsDomain, j.expr] = node
            elif type(j) is IsCoherentFamily:
                self.latest[IsCoherentFamily, j.family.descriptor] = node

    def require(self, key, what: Callable[[], str] | None = None) -> Theorem:
        """The latest proof in scope filed under `key` (see `enter`), or E0102
        naming `what()`, which runs only then, or by default the judgment `key`."""
        thm = self.latest.get(key)
        if thm is None:
            raise _ElabError("E0102", f"no proof of {what() if what else render(key)} in scope")
        return thm

    # -- scope

    def scope(self, x):
        """`x` with each name replaced by what it names in the session: an alias
        by its body, a morphism's name by its function, `limit(F)` by the object
        of F's limit.  A term that names no alias comes back as it is; a name
        not in scope is E0004, and a Malformed E0102."""
        if isinstance(x, GenExpr):
            if term_names(x)[0] <= self.primitives:
                return x
            if type(x) is Named:
                return self.lookup(self.generators, x, "generator")
            return type(x)(*map(self.scope, x[1:]))  # a Product or Powerset
        kind = type(x)
        if isinstance(x, (Judgment, EqQuery)) and kind is not IsCoherentFamily:
            fields = tuple(map(self.scope, x[1:]))
            return x if fields == x[1:] else kind(*fields)
        if kind is ObjLit:
            return x if term_names(x.of)[0] <= self.primitives else ObjLit(x.tag, self.scope(x.of))
        if kind is MorphismRef:
            return self.lookup(self.morphisms, x, "morphism")
        if kind is Table:
            if term_names(x)[0] <= self.primitives:
                return x
            rows = tuple((self.scope(k), self.scope(v)) for k, v in x.rows)
            return Table(self.scope(x.domain), self.scope(x.codomain), rows)
        if kind is BuiltinRule:
            return BuiltinRule(x.rule, tuple(map(self.scope, x.args)))
        if kind is LimitRef:
            return ObjLit(self.lookup(self.families, x, "coherent family"), Powerset(NAT))
        if kind is Malformed:
            raise _ElabError("E0102", x.message)
        return x  # a family, a stream or a bound

    def shape(self, x: GenExpr) -> tuple[int, int]:
        """The nesting depth and the node count of `x` with each alias in it
        expanded, read from each alias's own: the expansion is never walked."""
        if type(x) is Named:
            return self.shapes.get(x.name, (0, 1))
        depths, sizes = zip((-1, 0), *map(self.shape, x[1:]))  # (-1, 0): Two and Nat
        return 1 + max(depths), 1 + sum(sizes)

    def lookup(self, names: dict, ref, kind: str):
        """What `names` maps the name of `ref` to, or E0004 naming it a `kind`."""
        if ref.name not in names:
            raise _ElabError("E0004", f"unknown {kind} {ref.name.text!r}")
        return names[ref.name]


# ---------------------------------------------------------------------------
# Proof execution


def _execute_proof(session: _Session, proof, goal: Judgment | None) -> Theorem:
    if isinstance(proof, AxiomRef):
        return _execute_axiom(session, proof.name)
    assert isinstance(proof, RuleApp)
    if proof.name not in _RULE_ALIASES:
        raise _ElabError(
            "E0102",
            f"unknown rule {proof.name!r}",
            note="rules: " + ", ".join(sorted(set(_RULE_ALIASES))),
        )
    premises = [_execute_proof(session, sub, None) for sub in proof.subproofs]
    thm = _apply_rule(session, proof.name, premises, goal)
    if premises:  # a `from` premise must be a node of the derivation
        used = trace_set(thm)
        unused = next((p for p in premises if p not in used), None)
        if unused is not None:
            raise _ElabError(
                "E0102",
                f"rule {proof.name} does not use its 'from' premise {render(unused.judgment)}",
            )
    return thm


def _execute_axiom(session: _Session, name: str) -> Theorem:
    axiom = AxiomId.from_name(name)
    if axiom is AxiomId.H2_CHOICE:
        raise _ElabError(
            "E0102",
            "H2 instances need a concrete surjection: a table given to the "
            "kernel's H2 axiom, or the model-check command",
        )
    return session.kernel.axiom(axiom)


def _apply_rule(
    session: _Session, rule: str, premises: list[Theorem], goal: Judgment | None
) -> Theorem:
    """Apply `rule`, as the file spells it, for `goal` (None in a subproof).
    Each case names the goal form the rule proves and its premises' targets."""
    kernel = session.kernel

    def premise(expr: GenExpr | None) -> Theorem:
        """The first `from` premise SupportsQuant(...), else the latest proof in
        scope of SupportsQuant(expr); a goal-less H4 names no `expr`."""
        thm = next((thm for thm in premises if isinstance(thm.judgment, SupportsQuant)), None)
        if thm is not None:
            return thm
        if expr is None:
            raise _ElabError(
                "E0102", f"rule {rule} needs its premises given with 'from' when it has no goal"
            )
        return session.require(SupportsQuant(expr))

    match _RULE_ALIASES[rule], goal:
        case "gen", IsGen():
            return kernel.gen_intro(goal.expr)
        case "coherent", IsCoherentFamily():
            try:
                return kernel.coherent_family(goal.family)
            except streams.CoherenceError as exc:
                raise _ElabError("E0102", f"family is not coherent: {exc}")
        case "mor", IsMor():
            return _mor_intro(session, goal.fn, goal.dom, goal.cod, premises)
        case "mor", IsBinFn():
            return kernel.bin_fn_from_mor(_mor_intro(session, goal.fn, goal.dom, TWO, premises))
        case "squant", None | SupportsQuant(expr=Powerset()):
            return kernel.squant_from_powerset(premise(None if goal is None else goal.expr.arg))
        case "binfn", IsBinFn():
            return kernel.bin_fn_from_mor(session.require(IsMor(goal.fn, goal.dom, TWO)))
        case "cla", IsObj() if type(family := goal.obj.tag) is Family:
            fam = session.require((IsCoherentFamily, family), lambda: f'Coherent(..., "{family}")')
            return kernel.coherent_limit(fam)
        case "set_intro", IsSet(expr=expr):
            dom = session.require((IsDomain, expr), lambda: f"Domain({render(expr)}, ...)")
            return kernel.set_intro(dom, premise(expr))
        case "domain_intro", IsDomain():
            # Gen(A) is formed, as formation takes no premise.
            square = Product(goal.expr, goal.expr)
            eq = session.require(IsBinFn(goal.eq, square), lambda: f"BinFn(..., {render(square)})")
            return kernel.domain_intro(kernel.gen_intro(goal.expr), eq)
    if goal is None:
        raise _ElabError("E0102", f"rule {rule} needs a goal, so it cannot be a 'from' subproof")
    raise _ElabError("E0102", f"rule {rule} cannot prove {render(goal)}")


def _mor_intro(
    session: _Session,
    fn: FnExpr,
    dom: GenExpr,
    cod: GenExpr,
    premises: list[Theorem],
) -> Theorem:
    kernel = session.kernel
    if isinstance(fn, Table):
        return kernel.mor_intro(fn, dom, cod)  # a row scan needs no premises
    if not premises:
        premises = [session.require(SupportsQuant(b)) for b in builtin_premises(fn)]
    return kernel.mor_intro(fn, dom, cod, premises=premises)


# ---------------------------------------------------------------------------
# Declaration execution


def elaborate_source(source: str, *, base_dir: str | None = None) -> ElabResult:
    decls, diagnostics = parse_source(source)
    if diagnostics:
        return ElabResult((), (), tuple(diagnostics))
    session = _Session()
    _run_decls(session, decls, base_dir)
    return session.result()


def elaborate_file(path: str | os.PathLike) -> ElabResult:
    decls, diagnostics = parse_source(read_source(path))
    if diagnostics:
        return ElabResult((), (), tuple(diagnostics))
    return elaborate_files([(path, decls)])


def elaborate_files(sources: list[tuple[str | os.PathLike, list[Decl]]]) -> ElabResult:
    """Elaborate several parsed files in argument order against one kernel.
    Each file counts as included while its declarations run, so an include
    of it is circular and, after it, does nothing."""
    session = _Session()
    for path, decls in sources:
        session.roots.append(path)
        _run_decls(session, decls, os.path.dirname(path))
        session.including.clear()
    return session.result()


def _run_decls(session: _Session, decls: list[Decl], base_dir: str | None) -> None:
    for decl in decls:
        try:
            _run_decl(session, decl, base_dir)
        except _ElabError as err:
            session.diagnostics.append(Diagnostic(err.code, str(err), decl.span, err.note))
        except CrossDomainEqualityError as err:
            session.diagnostics.append(Diagnostic("E0101", str(err), decl.span))
        except (KernelError, streams.BoundError) as err:
            session.diagnostics.append(Diagnostic("E0102", str(err), decl.span))


def _run_decl(session: _Session, decl: Decl, base_dir: str | None) -> None:
    if isinstance(decl, GeneratorDecl):
        _run_generator(session, decl)
    elif isinstance(decl, MorphismDecl):
        _run_morphism(session, decl)
    elif isinstance(decl, AssertDecl):
        _run_assert(session, decl)
    elif isinstance(decl, ModelCheckDecl):
        _run_model_check(session, decl)
    elif isinstance(decl, IncludeDecl):
        _run_include(session, decl, base_dir)
    elif isinstance(decl, LimitDecl):
        _run_limit(session, decl)
    else:
        raise _ElabError("E0102", f"cannot execute {decl!r}")


def _run_generator(session: _Session, decl: GeneratorDecl) -> None:
    name = Ident(decl.name)
    if name in session.generators:
        raise _ElabError("E0102", f"generator {decl.name!r} is already declared")
    if decl.body is None:
        expr = Named(name)
        thm = session.kernel.gen_intro(name, decl.tags or ())
        session.primitives.add(name)
    else:
        expr = session.scope(decl.body)
        depth, size = session.shape(decl.body)
        if depth > MAX_NESTING or size > MAX_ALIAS_NODES:
            raise _ElabError("E0102", f"alias {decl.name!r} expands to {size} nodes {depth} "
                             f"levels deep, past MAX_ALIAS_NODES = {MAX_ALIAS_NODES} or "
                             f"MAX_NESTING = {MAX_NESTING}")
        thm = session.kernel.gen_intro(expr)
        session.shapes[name] = depth, size
    session.generators[name] = expr
    session.enter(thm)


def _run_morphism(session: _Session, decl: MorphismDecl) -> None:
    name = Ident(decl.name)
    if name in session.morphisms:
        raise _ElabError("E0102", f"morphism {decl.name!r} is already declared")
    dom = session.scope(decl.dom)
    cod = session.scope(decl.cod)
    fn = session.scope(decl.body)
    thm = _mor_intro(session, fn, dom, cod, [])
    session.morphisms[name] = fn
    session.enter(thm)


def _axiom_summary(thm: Theorem) -> str:
    uses = trace_uses(thm)
    if not uses:
        return "no axioms"
    return "axioms: " + ", ".join(sorted(map(itemgetter(0), uses)))  # members are their names


def _run_assert(session: _Session, decl: AssertDecl) -> None:
    goal = session.scope(decl.judgment)
    if type(goal) is EqQuery:
        _run_eq_assert(session, decl, goal)
        return
    thm = _execute_proof(session, decl.proof, goal)
    if thm.judgment != goal:
        raise _ElabError(
            "E0102",
            f"proof derives {render(thm.judgment)}, assertion claims {render(goal)}",
        )
    if isinstance(goal, IsCoherentFamily):
        session.families[goal.family.name] = goal.family.descriptor
    session.enter(thm)
    session.items.append(Item(render(thm.judgment), "pass", _axiom_summary(thm)))


def _run_eq_assert(session: _Session, decl: AssertDecl, goal: EqQuery) -> None:
    proof = decl.proof
    if not (
        isinstance(proof, RuleApp)
        and _RULE_ALIASES.get(proof.name) == "eq_within"
        and not proof.subproofs
    ):
        raise _ElabError("E0102", "an Eq(...) assertion is proved by rule eq_within alone")
    expr = goal.left.of
    # The cross-domain refusal comes first: mixed-carrier queries must error
    # even when no domain theorem is in scope.
    if expr != goal.right.of:
        raise CrossDomainEqualityError(
            f"'=' is only defined within a single set: "
            f"{render(expr)} object vs {render(goal.right.of)} object"
        )
    domain = session.require((IsDomain, expr), lambda: f"Domain({render(expr)}, ...)")
    answer = session.kernel.eq_within_domain(domain, goal.left, goal.right)
    session.items.append(Item(render(goal), "pass", f"evaluates to {answer}"))


def _run_model_check(session: _Session, decl: ModelCheckDecl) -> None:
    goal = session.scope(decl.judgment)
    if type(goal) is EqQuery:
        raise _ElabError("E0102", "model check takes a judgment, not an equality query")
    if decl.bound not in SWEEP_SIZES:
        sizes = f"{SWEEP_SIZES[0]}..{SWEEP_SIZES[-1]}"
        raise _ElabError("E0102", f"model check bounds range over {sizes}")
    (item,) = soundness_sweep((goal,), decl.bound).items
    session.items.append(sweep_item(f"model check {render(goal)} upto {decl.bound}", item))


def sweep_item(name: str, item: SweepItem) -> Item:
    """The report item of a judgment's sweep: it fails with the first model
    that refutes it, is skipped when no model settles it (naming the model
    count past MODEL_BUDGET), and passes otherwise."""
    statuses = [verdict.status for verdict in item.verdicts]
    fails, holds, total = statuses.count(FAILS), statuses.count(HOLDS), len(statuses)
    if fails:
        k = statuses.index(FAILS)
        witness = dict(item.verdicts[k].witness) | {"model": item.models[k].describe()}
        return Item(name, "fail", f"fails in {fails}/{total} models", witness)
    if not holds:
        detail = "not finitely checkable at this bound"
        if not item.models:  # past MODEL_BUDGET: the verdict names the model count
            detail += f": {item.verdicts[0].detail}"
        return Item(name, "skipped", detail)
    detail = f"holds in {holds}/{total} models"
    if holds < total:
        detail += " (rest not finitely checkable)"
    return Item(name, "pass", detail)


def _run_include(session: _Session, decl: IncludeDecl, base_dir: str | None) -> None:
    if session.roots:  # resolved at the session's first include, not before
        roots = [os.path.realpath(root) for root in session.roots]
        session.included.update(roots)
        session.including.append(roots[-1])
        session.roots.clear()
    path = os.path.realpath(os.path.join(base_dir or "", decl.path))  # base_dir "": the cwd
    if not os.path.exists(path):
        raise _ElabError("E0005", f"cannot include {decl.path!r}: file not found")
    if path in session.including:
        raise _ElabError("E0005", f"circular include of {decl.path!r}")
    if path in session.included:
        return
    session.included.add(path)
    try:
        source = read_source(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _ElabError("E0005", f"cannot include {decl.path!r}: {exc}")
    decls, diagnostics = parse_source(source)
    if diagnostics:
        session.diagnostics += (diag._replace(within=(decl.path,)) for diag in diagnostics)
        raise _ElabError("E0005", f"included file {decl.path!r} has syntax errors")
    start = len(session.diagnostics)
    session.including.append(path)
    try:
        _run_decls(session, decls, os.path.dirname(path))
    finally:
        session.including.pop()
    session.diagnostics[start:] = [  # each diagnostic names the included file it is in
        diag._replace(within=(decl.path, *diag.within)) for diag in session.diagnostics[start:]
    ]


def gap_items(report: streams.GapReport) -> list[Item]:
    """The report items of a gap demonstration: its sub-results, then its
    conclusion."""
    results = [*report.sub_results, ("conclusion", report.passed, report.conclusion)]
    return [Item(name, "pass" if ok else "fail", detail) for name, ok, detail in results]


def membership_item(stream: BitStream, verdict: streams.EpVerdict) -> Item:
    """The report item of an eventual-periodicity query on `stream`, named by its spec."""
    return Item(f"ep-membership {stream}", "pass", verdict.describe())


def _run_limit(session: _Session, decl: LimitDecl) -> None:
    if decl.command == "demo":
        session.items += gap_items(streams.demonstrate_gap())
        return
    stream = session.scope(decl.spec)  # a "member" query
    session.items.append(membership_item(stream, streams.ep_decide(stream, *decl.bounds)))
