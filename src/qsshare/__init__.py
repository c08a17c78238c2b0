"""Qudit stabilizer secret sharing toolkit.

Given a prime-qudit stabilizer share code, this package determines which
share subsets can reconstruct the secret, synthesizes the measurement-free
reconstruction circuit for a qualified subset, and certifies it end to end
by exact state-vector simulation.

The simulator (the sim and runs modules and sim's public names) is imported
on first use, so a process that imports the package only to analyze or
synthesize never loads it.
"""

from importlib import import_module as _import_module

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
from .specfile import load_code, parse_code_document
from .symplectic import (
    CodeSpec,
    build_code,
    erasure_correctable,
    qualified_sets,
    random_self_orthogonal_code,
)

__version__ = "0.1.0"

_SIM_NAMES = frozenset(
    {
        "ReconstructionReport",
        "StateVector",
        "encode_secret",
        "entanglement_fidelity",
        "logical_zero",
        "verify_reconstruction",
    }
)
_LAZY_MODULES = frozenset({"runs", "sim"})

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


def __getattr__(name):
    """The simulator's names and the modules not imported up front, loaded on
    first access (PEP 562); a sim name is looked up anew on every access."""
    if name in _SIM_NAMES:
        return getattr(_import_module(".sim", __name__), name)
    if name in _LAZY_MODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SIM_NAMES | _LAZY_MODULES)
