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

from pathlib import Path
from typing import Callable, NamedTuple

from . import streams
from .kernel import (
    AxiomId,
    CrossDomainEqualityError,
    Kernel,
    KernelError,
    Theorem,
    axioms_used,
    builtin_premises,
    trace_nodes,
)
from .semantics import FAILS, HOLDS, SWEEP_SIZES, SweepItem, soundness_sweep
from .semantics import verify_judgment  # unused here, but bench/probes.py patches this name
from .stdlib import evidence_models  # unused here, but bench/probes.py patches this name
from .surface import (
    AssertDecl,
    AxiomRef,
    Decl,
    Diagnostic,
    GeneratorDecl,
    IncludeDecl,
    LimitDecl,
    LimitRef,
    ModelCheckDecl,
    MorphismDecl,
    RuleApp,
    SurfaceJudgment,
    parse_source,
    read_source,
    render_arg,
)
from .terms import (
    TWO,
    BuiltinRule,
    FamilySpec,
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
    Named,
    ObjLit,
    Powerset,
    Product,
    SupportsQuant,
    Table,
    limit_descriptor,
    limit_lit,
    render,
)

__all__ = [
    "Item",
    "ElabResult",
    "elaborate_source",
    "elaborate_file",
    "elaborate_files",
]


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
        self.items: list[Item] = []
        self.diagnostics: list[Diagnostic] = []
        self.generators: dict[str, GenExpr] = {}  # a primitive's Named, an alias's body
        self.morphisms: dict[str, tuple[FnExpr, GenExpr, GenExpr]] = {}
        self.families: dict[str, FamilySpec] = {}
        self.including: list[Path] = []
        self.included: set[Path] = set()
        self.roots: list[Path] = []  # root files run so far, not yet resolved

    # -- helpers

    def result(self) -> ElabResult:
        return ElabResult(tuple(self.theorems), tuple(self.items), tuple(self.diagnostics))

    def require(self, predicate, what: Callable[[], str]) -> Theorem:
        """The latest proof in scope whose judgment satisfies `predicate`, or
        E0102 naming `what()`, which runs only then."""
        for thm in reversed(self.theorems):
            if predicate(thm.judgment):
                return thm
            # Set-hood theorems carry their domain/quantification
            # constituents; lookups see through the packaging.
            for part in thm.parts:
                if predicate(part.judgment):
                    return part
        raise _ElabError("E0102", f"no proof of {what()} in scope")

    def require_judgment(self, target: Judgment) -> Theorem:
        return self.require(lambda j: j == target, lambda: render(target))

    # -- name resolution

    def resolve_expr(self, expr: GenExpr) -> GenExpr:
        if isinstance(expr, Named):
            name = expr.name.text
            if name not in self.generators:
                raise _ElabError("E0004", f"unknown generator {name!r}")
            return self.generators[name]
        if isinstance(expr, Product):
            return Product(self.resolve_expr(expr.left), self.resolve_expr(expr.right))
        if isinstance(expr, Powerset):
            return Powerset(self.resolve_expr(expr.arg))
        return expr

    def resolve_objlit(self, lit: ObjLit) -> ObjLit:
        return ObjLit(lit.tag, self.resolve_expr(lit.of))

    def resolve_fn(self, arg, dom: GenExpr, cod: GenExpr) -> FnExpr:
        if isinstance(arg, BuiltinRule):
            resolved = tuple(
                self.resolve_expr(a) if isinstance(a, GenExpr) else a for a in arg.args
            )
            return BuiltinRule(arg.rule, resolved)
        if type(arg) is tuple:  # a table literal's rows (a term is a tuple subclass)
            rows = tuple((self.resolve_objlit(k), self.resolve_objlit(v)) for k, v in arg)
            try:
                return Table(dom, cod, rows)
            except ValueError as exc:  # a key given two rows
                raise _ElabError("E0102", str(exc)) from None
        if isinstance(arg, Named):
            name = arg.name.text
            if name not in self.morphisms:
                raise _ElabError("E0004", f"unknown morphism {name!r}")
            return self.morphisms[name][0]
        raise _ElabError("E0102", f"expected a function argument, got {render_arg(arg)}")


class _EqGoal(NamedTuple):
    left: ObjLit
    right: ObjLit


_UNARY_HEADS = {"Gen": IsGen, "Set": IsSet, "SupportsQuant": SupportsQuant}


def _translate(session: _Session, j: SurfaceJudgment):
    """Surface judgment -> kernel judgment (or an equality-query goal)."""
    head, args = j.head, j.args

    def want(n: int) -> None:
        if len(args) != n:
            raise _ElabError("E0102", f"{head} takes {n} argument(s), got {len(args)}")

    def expr_arg(a) -> GenExpr:
        if not isinstance(a, GenExpr):
            raise _ElabError("E0102", f"{head}: expected a generator expression")
        return session.resolve_expr(a)

    if head in _UNARY_HEADS:
        want(1)
        return _UNARY_HEADS[head](expr_arg(args[0]))
    if head == "Domain":
        want(2)
        expr = expr_arg(args[0])
        fn = session.resolve_fn(args[1], Product(expr, expr), TWO)
        return IsDomain(expr, fn)
    if head == "Mor":
        want(3)
        dom = expr_arg(args[1])
        cod = expr_arg(args[2])
        return IsMor(session.resolve_fn(args[0], dom, cod), dom, cod)
    if head == "BinFn":
        want(2)
        dom = expr_arg(args[1])
        return IsBinFn(session.resolve_fn(args[0], dom, TWO), dom)
    if head == "Eq":
        want(2)
        lits = []
        for a in args:
            if not isinstance(a, ObjLit):
                raise _ElabError("E0102", "Eq takes two object literals")
            lits.append(session.resolve_objlit(a))
        return _EqGoal(lits[0], lits[1])
    if head == "Obj":
        want(2)
        expr = expr_arg(args[1])
        first = args[0]
        if isinstance(first, LimitRef):
            family = session.families.get(first.name)
            if family is None:
                raise _ElabError("E0004", f"unknown coherent family {first.name!r}")
            lit = limit_lit(family.descriptor)
        elif isinstance(first, ObjLit):
            lit = session.resolve_objlit(first)
        else:
            raise _ElabError("E0102", "Obj takes an object literal")
        return IsObj(lit, expr)
    if head == "Coherent":
        want(2)
        name_arg, desc_arg = args
        if not isinstance(name_arg, Named) or not isinstance(desc_arg, str):
            raise _ElabError("E0102", 'Coherent takes a family name and a "descriptor"')
        return IsCoherentFamily(FamilySpec(Ident(name_arg.name.text), desc_arg))
    raise _ElabError("E0102", f"unknown judgment head {head!r}")


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
        used = set(trace_nodes(thm))
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
        return session.require_judgment(SupportsQuant(expr))

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
            return kernel.bin_fn_from_mor(session.require_judgment(IsMor(goal.fn, goal.dom, TWO)))
        case "cla", IsObj() if (descriptor := limit_descriptor(goal.obj.tag)) is not None:
            fam = session.require(
                lambda j: isinstance(j, IsCoherentFamily) and j.family.descriptor == descriptor,
                lambda: f'Coherent(..., "{descriptor}")',
            )
            return kernel.coherent_limit(fam)
        case "set_intro", IsSet():
            dom = session.require(
                lambda j: isinstance(j, IsDomain) and j.expr == goal.expr,
                lambda: f"Domain({render(goal.expr)}, ...)",
            )
            return kernel.set_intro(dom, premise(goal.expr))
        case "domain_intro", IsDomain():
            # Gen(A) is formed, as formation takes no premise.
            square = Product(goal.expr, goal.expr)
            eq = session.require(
                lambda j: isinstance(j, IsBinFn) and j.dom == square and j.fn == goal.eq,
                lambda: f"BinFn(..., {render(square)})",
            )
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
        premises = [session.require_judgment(SupportsQuant(b)) for b in builtin_premises(fn)]
    return kernel.mor_intro(fn, dom, cod, premises=premises)


# ---------------------------------------------------------------------------
# Declaration execution


def elaborate_source(source: str, *, base_dir: Path | None = None) -> ElabResult:
    decls, diagnostics = parse_source(source)
    if diagnostics:
        return ElabResult((), (), tuple(diagnostics))
    session = _Session()
    _run_decls(session, decls, base_dir)
    return session.result()


def elaborate_file(path: Path) -> ElabResult:
    decls, diagnostics = parse_source(read_source(path))
    if diagnostics:
        return ElabResult((), (), tuple(diagnostics))
    return elaborate_files([(path, decls)])


def elaborate_files(sources: list[tuple[Path, list[Decl]]]) -> ElabResult:
    """Elaborate several parsed files in argument order against one kernel.
    Each file counts as included while its declarations run, so an include
    of it is circular and, after it, does nothing."""
    session = _Session()
    for path, decls in sources:
        session.roots.append(path)
        _run_decls(session, decls, path.parent)
        session.including.clear()
    return session.result()


def _run_decls(session: _Session, decls: list[Decl], base_dir: Path | None) -> None:
    for decl in decls:
        try:
            _run_decl(session, decl, base_dir)
        except _ElabError as err:
            session.diagnostics.append(Diagnostic(err.code, str(err), decl.span, err.note))
        except CrossDomainEqualityError as err:
            session.diagnostics.append(Diagnostic("E0101", str(err), decl.span))
        except (KernelError, streams.StreamSpecError, streams.BoundError) as err:
            session.diagnostics.append(Diagnostic("E0102", str(err), decl.span))


def _run_decl(session: _Session, decl: Decl, base_dir: Path | None) -> None:
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
    if decl.name in session.generators:
        raise _ElabError("E0102", f"generator {decl.name!r} is already declared")
    if decl.body is None:
        expr = Named(Ident(decl.name))
        thm = session.kernel.gen_intro(expr.name, decl.tags or ())
    else:
        expr = session.resolve_expr(decl.body)
        thm = session.kernel.gen_intro(expr)
    session.generators[decl.name] = expr
    session.theorems.append(thm)


def _run_morphism(session: _Session, decl: MorphismDecl) -> None:
    if decl.name in session.morphisms:
        raise _ElabError("E0102", f"morphism {decl.name!r} is already declared")
    dom = session.resolve_expr(decl.dom)
    cod = session.resolve_expr(decl.cod)
    fn = session.resolve_fn(decl.body, dom, cod)
    thm = _mor_intro(session, fn, dom, cod, [])
    session.morphisms[decl.name] = (fn, dom, cod)
    session.theorems.append(thm)


def _axiom_summary(thm: Theorem) -> str:
    uses = axioms_used(thm)
    if not uses:
        return "no axioms"
    return "axioms: " + ", ".join(sorted(uses.elements()))  # members are their names


def _run_assert(session: _Session, decl: AssertDecl) -> None:
    goal = _translate(session, decl.judgment)
    if isinstance(goal, _EqGoal):
        _run_eq_assert(session, decl, goal)
        return
    thm = _execute_proof(session, decl.proof, goal)
    if thm.judgment != goal:
        raise _ElabError(
            "E0102",
            f"proof derives {render(thm.judgment)}, assertion claims {render(goal)}",
        )
    if isinstance(goal, IsCoherentFamily):
        session.families[goal.family.name.text] = goal.family
    session.theorems.append(thm)
    session.items.append(
        Item(render(thm.judgment), "pass", _axiom_summary(thm))
    )


def _run_eq_assert(session: _Session, decl: AssertDecl, goal: _EqGoal) -> None:
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
    domain = session.require(
        lambda j: isinstance(j, IsDomain) and j.expr == expr,
        lambda: f"Domain({render(expr)}, ...)",
    )
    answer = session.kernel.eq_within_domain(domain, goal.left, goal.right)
    name = f"Eq({render(goal.left)}, {render(goal.right)})"
    session.items.append(Item(name, "pass", f"evaluates to {answer}"))


def _run_model_check(session: _Session, decl: ModelCheckDecl) -> None:
    goal = _translate(session, decl.judgment)
    if isinstance(goal, _EqGoal):
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


def _run_include(session: _Session, decl: IncludeDecl, base_dir: Path | None) -> None:
    if session.roots:  # resolved at the session's first include, not before
        roots = [root.resolve() for root in session.roots]
        session.included.update(roots)
        session.including.append(roots[-1])
        session.roots.clear()
    path = Path(decl.path)
    if not path.is_absolute():
        path = (base_dir or Path.cwd()) / path
    path = path.resolve()
    if not path.exists():
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
        _run_decls(session, decls, path.parent)
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


def membership_item(spec: str, verdict: streams.EpVerdict) -> Item:
    """The report item of an eventual-periodicity query on `spec`."""
    return Item(f"ep-membership {spec}", "pass", verdict.describe())


def _run_limit(session: _Session, decl: LimitDecl) -> None:
    if decl.command == "demo":
        session.items += gap_items(streams.demonstrate_gap())
        return
    assert decl.command == "member"
    stream = streams.parse_stream_spec(decl.spec or "")
    p, q, h = decl.bounds  # type: ignore[misc]
    session.items.append(membership_item(decl.spec, streams.ep_decide(stream, p, q, h)))
