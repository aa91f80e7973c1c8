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
from .gwa import (BasePoly, GwaAlgebra, GwaElem, GwaRealization,
                  SkewAffineSigma, reduction_gwa, weyl_gwa, weyl_gwa_image)
from .parser import ParseError, evaluate, parse
from . import ambient, dra, gwa, scalars, verify, weyl

__version__ = "0.1.0"

# Every memo of the engine: unbounded, kept for the life of the process.
_MEMOS = (scalars._poly_gcd_impl, weyl._mono_mul, ambient._norm_word,
          dra.projector_coeff, dra._apply_p, dra._basis_diamond,
          dra._basis_word, gwa._sigma_image, gwa._contraction,
          gwa._t_monomial_image, gwa._weyl_mono_image)


def cache_info() -> dict:
    """Hits, misses and size of each engine cache, by function name."""
    return {f"{fn.__module__}.{fn.__name__}": fn.cache_info() for fn in _MEMOS}


def clear_caches() -> None:
    """Empty every engine cache; later results are recomputed, not changed."""
    for fn in _MEMOS:
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
