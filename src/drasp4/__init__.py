"""Exact symbolic computation in the differential reduction algebra of the
rank-two symplectic Lie algebra, realized inside a localized tensor product
of the second Weyl algebra with the enveloping algebra.

The package builds the oscillator realization and all structure constants
from first principles, computes PBW normal forms over the field of
dynamical scalars, implements the extremal projector and the induced
diamond product, derives the finite presentation of the reduction algebra,
and realizes it as a skew-affine generalized Weyl algebra.  Every identity
is checked by exact rational-function arithmetic; see the verify module
and the command line entry point.

``import drasp4`` loads only the engine core: ``scalars``, ``sparse``,
``weyl``, ``sp4``, ``ambient`` and ``dra``.  The modules ``gwa``,
``parser``, ``verify`` and ``cli`` load on first use of one of their
names here (PEP 562), because a fresh process compiles every module it
imports whenever bytecode is not cached, and diamond products need none
of them.
"""

from .scalars import (DIVERGENT, UNDEFINED, GaussRat, HA, HB, Poly2, RatFunc,
                      rf_affine)
from .weyl import WeylElem, vartheta
from .sp4 import (ALPHA, BETA, BETA_A, BETA_2A, CONVEX_ORDER,
                  CONVEX_ORDER_REV, LieElem, POS_ROOTS, decompose,
                  lie_bracket, osc, tau)
from .ambient import AmbientElem, ad_e, amb_theta, red
from .dra import (DraElem, NormalizedGens, PresentationTable, apply_p,
                  apply_p_root, diamond, diamond_commutator, diamond_product,
                  dra_theta, h_form, normalized_gens, presentation)
from . import ambient, dra, scalars, weyl

__version__ = "0.1.0"

# Names loaded on first access, by the submodule that defines them; a
# submodule's own name maps to itself.
_LAZY = {name: module for module, names in (
    ("gwa", ("gwa", "BasePoly", "GwaAlgebra", "GwaElem", "GwaRealization",
             "SkewAffineSigma", "reduction_gwa", "weyl_gwa",
             "weyl_gwa_image")),
    ("parser", ("parser", "ParseError", "evaluate", "parse")),
    ("verify", ("verify",)),
    ("cli", ("cli",)),
) for name in names}


def __getattr__(name):
    """Load a name of ``gwa``, ``parser``, ``verify`` or ``cli`` on first
    access, and bind it here so that later lookups find it directly."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # binds the submodule here
    value = globals()[module]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


# Every memo of the engine: unbounded, kept for the life of the process.
_MEMOS = (weyl._mono_mul, ambient._norm_word, dra.projector_coeff,
          dra._leaf_terms, dra._basis_diamond, dra.presentation)


def _memos() -> tuple:
    """The engine's memos and those of ``gwa``, which this loads."""
    from . import gwa
    return _MEMOS + gwa._MEMOS


def cache_info() -> dict:
    """Hits, misses and size of each engine cache, by function name."""
    return {f"{fn.__module__}.{fn.__name__}": fn.cache_info()
            for fn in _memos()}


def clear_caches() -> None:
    """Empty every engine cache; later results are recomputed, not changed."""
    for fn in _memos():
        fn.cache_clear()

__all__ = [
    "ALPHA", "AmbientElem", "BETA", "BETA_2A", "BETA_A", "BasePoly",
    "CONVEX_ORDER", "CONVEX_ORDER_REV", "DIVERGENT", "DraElem", "GaussRat",
    "GwaAlgebra", "GwaElem", "GwaRealization", "HA", "HB", "LieElem",
    "NormalizedGens", "POS_ROOTS", "ParseError", "Poly2",
    "PresentationTable", "RatFunc", "SkewAffineSigma", "UNDEFINED",
    "WeylElem", "ad_e", "amb_theta", "apply_p", "apply_p_root",
    "cache_info", "clear_caches", "decompose",
    "diamond", "diamond_commutator", "diamond_product", "dra_theta", "evaluate", "h_form",
    "lie_bracket", "normalized_gens", "osc", "parse", "presentation",
    "red", "reduction_gwa", "rf_affine", "tau", "vartheta", "verify",
    "weyl_gwa", "weyl_gwa_image", "__version__",
]
