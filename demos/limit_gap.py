"""The coherent-limit gap, at desk scale.

The "small model" is the class of eventually periodic bit streams.  Every
finite restriction of the squares indicator lives in it, holding a witness
known in closed form; the class is closed under the natural finite
operations; stage m of the restrictions decides bit m of their union, so the
stage diagonal is the squares indicator again; and yet the indicator itself
is not in the class.  A theory of subcollections of the naturals can contain
every finite stage and still miss the limit.  Each section prints the
sub-result of the machine-checked report that checks it.
"""

from ogkernel.streams import demonstrate_gap
from ogkernel.surface import parse_stream_spec

HEADINGS = (
    "finite restrictions, extended by zeros, hold their closed-form witnesses",
    "the small model is closed under xor, shift and flip",
    "the diagonal of the restriction stages is the squares indicator again",
    "but the limit itself is outside the small model",
)

report = demonstrate_gap()
for heading, (name, ok, detail) in zip(HEADINGS, report.sub_results):
    print(f"== {heading} ==")
    print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}\n")
print(f"conclusion: {report.conclusion}")

print("\n== control experiment: a periodic base stream demonstrates nothing ==")
control = demonstrate_gap(parse_stream_spec("periodic:1/01"))
print(f"  conclusion: {control.conclusion}")
