"""Object-generator foundations at desk scale.

An LCF-style proof kernel for the generator/morphism/domain/set tower, a
brute-force finite-model oracle that independently validates every kernel
output, a coherent-limit laboratory built on eventually periodic bit
streams, and a small `.og` surface language with a batch CLI.
"""

from .terms import (
    TWO,
    NAT,
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
    Nat,
    ObjLit,
    Powerset,
    Product,
    SupportsQuant,
    Table,
    Two,
    free_names,
    render,
)
from .streams import (
    BitStream,
    FiniteSupport,
    FlipAt,
    Periodic,
    PowersOfTwoIndicator,
    ShiftOf,
    SquaresIndicator,
    XorOf,
    demonstrate_gap,
    ep_decide,
    is_coherent,
    parse_stream_spec,
)
from .semantics import (
    Carrier,
    Model,
    Verdict,
    default_model,
    interpret,
    interpret_fn,
    models_for_judgment,
    soundness_sweep,
    verify_axiom_instances,
    verify_judgment,
)
from .hf import HFUniverse, check_zfc1_instances
from .kernel import (
    AxiomId,
    EqQuery,
    Kernel,
    RuleId,
    Theorem,
    axioms_used,
    verify_trace,
)
from .stdlib import choice_instance, prelude_source
from .elaborate import elaborate_file, elaborate_source

__version__ = "0.1.0"
