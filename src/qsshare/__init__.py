"""Qudit stabilizer secret sharing toolkit.

Given a prime-qudit stabilizer share code, this package determines which
share subsets can reconstruct the secret, synthesizes the measurement-free
reconstruction circuit for a qualified subset, and certifies it exactly from
its Clifford action on Pauli operators, with no state vector.

The certificate (the certify module and its public names) is imported on
first use, so a process that imports the package only to analyze or
synthesize does not load it. The dense state-vector simulator, the tests'
oracle, is the module qsshare.sim, also loaded on first access.
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
    synthesize_reconstruction,
)
from .errors import QssError
from .specfile import load_code, parse_code_document
from .symplectic import (
    CodeSpec,
    build_code,
    erasure_correctable,
    qualified_sets,
    random_self_orthogonal_code,
)

__version__ = "0.1.0"

# name -> the module it is read from on first access
_LAZY_NAMES = {
    "ReconstructionReport": "certify",
    "certify_plan": "certify",
    "certify_reconstruction": "certify",
    "entanglement_fidelity": "certify",
}
_LAZY_MODULES = frozenset({"certify", "sim"})

__all__ = [
    "Circuit",
    "CodeSpec",
    "Gate",
    "QssError",
    "ReconstructionPlan",
    "ReconstructionReport",
    "build_code",
    "certify_plan",
    "certify_reconstruction",
    "controlled_pauli_decompose",
    "emit_circuit",
    "entanglement_fidelity",
    "erasure_correctable",
    "load_code",
    "parse_circuit",
    "parse_code_document",
    "plan_reconstruction",
    "qualified_sets",
    "random_self_orthogonal_code",
    "synthesize_reconstruction",
    "__version__",
]


def __getattr__(name):
    """The certificate's names and the modules not imported up front, loaded
    on first access (PEP 562); such a name is looked up anew on every
    access."""
    if name in _LAZY_NAMES:
        return getattr(_import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    if name in _LAZY_MODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES) | _LAZY_MODULES)
