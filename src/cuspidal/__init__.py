"""Exact verification toolkit for the fundamental groups, Alexander
polynomials, and singular geometry of a family of cuspidal plane curves."""

from .abelian import (AbelianStructure, IntegerMatrix, abelianization,
                      commutator_abelianization_rank, kernel_abelianization,
                      smith_normal_form, total_degree_kernel)
from .alexander import (LaurentPolynomial, alexander_matrix,
                        alexander_polynomial, cyclotomic_base,
                        cyclotomic_target, elementary_ideal_gcd,
                        fox_derivative, laurent_gcd)
from .geometry import (PrimeField, ProjectivePoint, SplittingReport,
                       SuperabundanceReport, TernaryForm, choose_prime,
                       curve_form, milnor_ratio, singular_points,
                       splitting_check_n2, superabundance,
                       superabundance_multi, tangent_cone_rank)
from .homcount import HomCountReport, count_homs, relator_triviality_check
from .packing import Packing
from .presentations import (GroupMap, MapCheckReport, curve_program,
                            derive_pi1_via_rs, invariant_battery,
                            long_relator, map_check, oka_quotient,
                            presentation_G, presentation_G_raw,
                            presentation_oka, presentation_pi1,
                            presentation_pi1_reduced, presentation_zariski3,
                            zariski_aux_datum, zariski_iso_candidate)
from .rewriting import AbelianTarget, SchreierSystem, subgroup_presentation
from .words import (Presentation, StraightLineProgram, Word, conjugate,
                    invert, multiply, format_presentation, simplify,
                    tietze_eliminate)

__all__ = [name for name in dir() if not name.startswith("_")]
