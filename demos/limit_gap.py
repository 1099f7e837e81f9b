"""The coherent-limit gap, at desk scale.

The "small model" is the class of eventually periodic bit streams.  Every
finite restriction of the squares indicator lives in it, the class is
closed under the natural finite operations, the union of the restrictions
reproduces the squares indicator on any tested horizon, and yet the
indicator itself is not in the class.  A theory of subcollections of the
naturals can contain every finite stage and still miss the limit.
"""

from ogkernel.streams import (
    FiniteSupport,
    SquaresIndicator,
    demonstrate_gap,
    ep_decide,
    family_limit,
)

squares = SquaresIndicator()

print("== finite restrictions, extended by zeros, are eventually periodic ==")
for n in (5, 50, 256):
    stage = FiniteSupport(tuple(squares.prefix(n)))
    verdict = ep_decide(stage, n + 1, 1, n + 3)
    print(f"  stage {n:3d}: {verdict.describe()}")

print("\n== the union of the stages is the squares indicator again ==")
union = family_limit("restrictions(squares)")
horizon = 4096
agrees = all(union.value_at(i) == squares.value_at(i) for i in (0, 1, 4, 100, 4095, 4096))
print(f"  union agrees with squares at spot-checked points up to {horizon}: {agrees}")

print("\n== but the limit itself is outside the small model ==")
verdict = ep_decide(squares, 64, 64, 4096)
print(f"  squares: {verdict.describe()}")

print("\n== the full machine-checked report ==")
report = demonstrate_gap()
for name, ok, detail in report.sub_results:
    print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
print(f"  conclusion: {report.conclusion}")

print("\n== control experiment: a periodic base stream demonstrates nothing ==")
control = demonstrate_gap("periodic:1/01")
print(f"  conclusion: {control.conclusion}")
