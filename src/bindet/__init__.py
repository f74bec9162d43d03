"""Binary matrices with prescribed determinants.

Construct, for a size n and any integer a up to an exactly computed
k-step-Fibonacci prefix bound, an n x n 0/1 matrix whose determinant is a,
certified by an independent exact determinant; plus brute-force oracles
that compute the true determinant spectrum of small binary matrices.

The public names are loaded from their home modules on first use (PEP 562),
so ``import bindet`` imports no submodule and only the oracles load numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "construction": (
        "ConstructionCertificate",
        "ConstructionParams",
        "binarizing_transform",
        "binary_rows",
        "construct_matrix",
        "greedy_subset",
        "orthogonal_vector",
        "seed_matrix",
        "verify_certificate",
    ),
    "errors": (
        "DependentRowsError",
        "EnumerationCapError",
        "InternalInvariantError",
        "TargetOutOfRangeError",
    ),
    "exact": ("IntMatrix", "cofactor_vector", "det_exact", "dot", "is_orthogonal_to_all"),
    "fibk": (
        "BoundTable",
        "alpha_k",
        "best_k",
        "bound_table",
        "corollary_bound",
        "fib_closed_form",
        "fib_k",
        "fib_lower_bound_check",
        "fib_prefix",
        "theorem_bound",
    ),
    "oracle": (
        "ConstructionCheckReport",
        "SpectrumReport",
        "spectrum_exhaustive",
        "spectrum_family",
        "verify_construction",
        "verify_laplace_identity",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Not cached in this namespace: each lookup reads the home module, so a
    # name rebound there is seen here too.
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)

