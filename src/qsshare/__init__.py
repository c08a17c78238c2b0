"""Qudit stabilizer secret sharing toolkit.

Given a prime-qudit stabilizer share code, this package determines which
share subsets can reconstruct the secret, synthesizes the measurement-free
reconstruction circuit for a qualified subset, and certifies it end to end
by exact state-vector simulation.
"""

from .circuits import (
    Circuit,
    Gate,
    ReconstructionPlan,
    controlled_pauli_decompose,
    emit_circuit,
    parse_circuit,
    plan_reconstruction,
    synthesize_dealer,
    synthesize_reconstruction,
)
from .errors import QssError
from .pauli import EncodingConvention, PhasedPauli, make_convention
from .sim import (
    ReconstructionReport,
    StateVector,
    encode_secret,
    entanglement_fidelity,
    logical_zero,
    verify_reconstruction,
)
from .specfile import load_code, parse_code_document
from .symplectic import (
    CodeSpec,
    build_code,
    erasure_correctable,
    qualified_sets,
    random_self_orthogonal_code,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CodeSpec",
    "EncodingConvention",
    "Gate",
    "PhasedPauli",
    "QssError",
    "ReconstructionPlan",
    "ReconstructionReport",
    "StateVector",
    "build_code",
    "controlled_pauli_decompose",
    "emit_circuit",
    "encode_secret",
    "entanglement_fidelity",
    "erasure_correctable",
    "load_code",
    "logical_zero",
    "make_convention",
    "parse_circuit",
    "parse_code_document",
    "plan_reconstruction",
    "qualified_sets",
    "random_self_orthogonal_code",
    "synthesize_dealer",
    "synthesize_reconstruction",
    "verify_reconstruction",
    "__version__",
]
