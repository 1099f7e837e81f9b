"""Object-generator foundations at desk scale.

An LCF-style proof kernel for the generator/morphism/domain/set tower, a
brute-force finite-model oracle that independently validates every kernel
output, a coherent-limit laboratory built on eventually periodic bit
streams, and a small `.og` surface language with a batch CLI.
"""

__version__ = "0.1.0"
