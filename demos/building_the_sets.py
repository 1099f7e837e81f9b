"""Walk the kernel from its axioms up to Set(P[P[Nat]]).

The tower is the shipped prelude: each `.og` declaration elaborates into
kernel operations, so every Theorem below carries a replayable trace and
nothing in this script is trusted.
"""

from ogkernel.elaborate import elaborate_files
from ogkernel.kernel import Kernel, axioms_used, leaf_kinds, verify_trace
from ogkernel.stdlib import prelude_source
from ogkernel.surface import parse_source
from ogkernel.terms import NAT, TWO, IsDomain, IsGen, IsSet, Powerset, render

tower = elaborate_files([("prelude.og", parse_source(prelude_source())[0])])
assert not tower.diagnostics
sets = {t.judgment.expr: t for t in tower.theorems if isinstance(t.judgment, IsSet)}
domains = {t.judgment.expr: t for t in tower.theorems if isinstance(t.judgment, IsDomain)}

print("== the two-object set comes straight from an axiom ==")
print(f"  {sets[TWO]!r}")
rows = len(domains[TWO].judgment.eq.rows)
print(f"  equality table rows: {rows} (one per pair of objects)")

print("\n== the naturals: declaration, numeral equality, and one hypothesis ==")
start = tower.judgments.index(IsGen(NAT))
for thm in tower.theorems[start : tower.judgments.index(IsSet(NAT)) + 1]:
    print(f"  |- {render(thm.judgment)}")
print(f"  trace leaves of Set(Nat): {sorted(leaf_kinds(sets[NAT]))}")

print("\n== the powerset tower ==")
for thm in (sets[Powerset(NAT)], sets[Powerset(Powerset(NAT))]):
    uses = ", ".join(sorted(a.value for a in axioms_used(thm).elements()))
    print(f"  |- {render(thm.judgment)}   (axioms: {uses})")

print("\n== every theorem replays through the rule checker ==")
for thm in tower.theorems:
    report = verify_trace(thm)
    assert report.passed
print("  all traces verified")

print("\n== equality only exists inside one set ==")
from ogkernel.kernel import CrossDomainEqualityError
from ogkernel.terms import ObjLit

kernel = Kernel()  # an equality query needs no prior state
answer = kernel.eq_within_domain(domains[NAT], ObjLit("3", NAT), ObjLit("3", NAT))
print(f"  eq(3, 3) evaluates to {answer!r}")
try:
    kernel.eq_within_domain(domains[NAT], ObjLit("yes", TWO), ObjLit("0", NAT))
except CrossDomainEqualityError as refusal:
    print(f"  mixed query refused: {refusal}")

print("\n== H2 at work: a concrete surjection admits a section ==")
from ogkernel.kernel import AxiomId
from ogkernel.terms import Ident, Named, Table

kernel.gen_intro(Ident("G"), ("a", "b", "c"))
g = Named(Ident("G"))
surj = Table(
    g,
    TWO,
    tuple(
        (ObjLit(t, g), ObjLit(v, TWO))
        for t, v in (("a", "yes"), ("b", "yes"), ("c", "no"))
    ),
)
section = kernel.axiom(AxiomId.H2_CHOICE, (surj, g, TWO))
print(f"  |- {render(section.judgment)}")
