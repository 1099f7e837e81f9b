"""The brute-force oracle: enumerate models, verify judgments exhaustively.

The kernel never consults this code; agreement between the two is the
empirical-consistency check the whole artifact is built around.
"""

from ogkernel.elaborate import elaborate_source
from ogkernel.hf import HFUniverse, check_zfc1_instances
from ogkernel.semantics import (
    Carrier,
    Model,
    default_model,
    interpret,
    interpret_fn,
    soundness_sweep,
    verify_axiom_instances,
)
from ogkernel.stdlib import prelude_source
from ogkernel.terms import BuiltinRule, Ident, Named, Powerset

print("== powerset carriers double in size, one detector flags the empty table ==")
for n in range(0, 9):
    expr = Named(Ident("A"))
    model = Model.make({"A": Carrier("A", tuple(f"x{i}" for i in range(n)))})
    power = interpret(Powerset(expr), model)
    detector = interpret_fn(BuiltinRule("empty_detector_of", (expr,)), model)
    flagged = [tag for tag, value in detector.items() if value == "yes"]
    print(f"  |A| = {n}: |P[A]| = {len(power):4d}, detector flags {flagged}")

print("\n== every prelude theorem holds in every small model ==")
report = soundness_sweep(elaborate_source(prelude_source()).theorems, max_size=3)
print(
    f"  {report.checked} (theorem, model) pairs: {report.holds} hold, "
    f"{report.fails} fail, {report.not_checkable} beyond finite checking"
)
assert report.fails == 0

print("\n== axiom instances in the default model ==")
for check in verify_axiom_instances(default_model()):
    print(f"  {check.axiom}: {check.status} ({check.detail})")

print("\n== ZFC-1 instances over the rank-3 hereditarily finite universe ==")
zfc1 = check_zfc1_instances(HFUniverse.build(3))
for family in zfc1.families:
    print(f"  {family.name}: {family.instances} instances, {len(family.failures)} failures")
print(f"  total: {zfc1.total_instances} instances, {zfc1.total_failures} failures")
