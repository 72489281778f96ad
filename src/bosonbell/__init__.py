"""Generalized Stirling and Bell numbers from boson normal ordering.

Exact integer triangles S_{r,s}(n,k) and Bell sequences B_{r,s}(n)
computed by independent routes (closed-form sums, recurrences, literal
word rewriting), certified arbitrary-precision evaluation of the
associated infinite series and generating functions, and a truncated
Fock-space check of the coherent-state expectation identities.
"""

from .boson_oracle import (
    AntiNormalForm,
    NormalForm,
    antinormalize,
    extract_anti_stirling_row,
    extract_stirling_row,
    normalize,
    power_word,
)
from .exact_core import (
    DEFAULT_PRECISION_BITS,
    BigFloat,
    PowerSeries,
    falling_factorial,
    rising_factorial,
    series_binomial_power,
    series_exp,
)
from .fock_numeric import (
    FockOperator,
    build_ops,
    expectation_table,
)
from .series_eval import (
    HgfCheckResult,
    HyperParams,
    SeriesValue,
    bell_diag_egf_coefficient_check,
    bell_r1_hypergeometric_check,
    dobinski_bell,
    dobinski_gamma_form,
    dobinski_gamma_forms,
    dobinski_polynomial,
    dobinski_polynomials,
    egf_bell_r1_check,
    egf_stirling_diag_check,
    egf_stirling_r1_check,
    family_bell_check,
    hgf_check,
    hypergeometric,
    kummer_bell_check,
    laguerre_bell_check,
    laguerre_value,
)
from .stirling_bell import (
    BellSequence,
    Params,
    StirlingTriangle,
    anti_stirling,
    bell_diag_from_classical,
    bell_number,
    bell_polynomial,
    bell_recurrence_r1,
    bell_sequence,
    connection_identity_check,
    stirling,
    stirling_diffop,
    stirling_explicit,
    triangle,
)

__version__ = "0.1.0"
__all__ = [name for name in dir() if not name.startswith("_")]
