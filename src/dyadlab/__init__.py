"""dyadlab: a desk-scale laboratory for dyadic (Walsh-group) harmonic analysis.

Exact-rational Walsh-Paley / Walsh-Kaczmarz systems, fast transforms,
Dirichlet/Fejer kernels, martingale Hardy-space quasi-norms, and the
verification experiments (kernel bound sweeps, lacunary lower bounds,
rate and divergence tables) built on them.
"""

from .group import (DyadicInterval, GroupPoint, JInterval, bit_reverse, group_add,
                    interval_indices, msb, rademacher, tau, tau_index, tau_permutation)
from .walsh import (CoefficientSequence, SampledFunction, System, compose_with_tau,
                    convolve, convolve_by_sum, dirichlet, fejer, fejer_by_average,
                    fejer_numerators, fwht, inverse_fwht, kaczmarz, kaczmarz_paley_index,
                    kaczmarz_samples, sigma_permutation, walsh_paley, walsh_paley_samples)
from .norms import (ApproxBracket, QuasiNormValue, approx_bracket, lp_quasinorm,
                    modulus_lp, normalize_p, plancherel_power_sums, translate,
                    translate_norm_profile, weak_lp)
from .hardy import (DyadicMartingale, PAtomCertificate, atomic_norm_bound, conjugate,
                    conjugate_shift, hardy_quasinorm, is_p_atom, maximal,
                    maximal_by_averages, modulus_hp, s2n, s2n_by_averaging,
                    square_function_squared)
from .operators import (coefficients, fejer_mean, fejer_mean_by_average, fejer_weight,
                        partial_sum, weighted_maximal)
from .experiments import (CounterexampleFamily, VerificationReport, audit_family,
                          build_t1, build_t2, convergence_table, dirichlet_prefix,
                          divergence_t1, divergence_t2, kernel_half_integral, q_seq,
                          random_decaying_martingale, random_exact_martingale,
                          random_lacunary_martingale, random_sampled_function,
                          rate_table_t1, rate_table_t2, t2_radial_modulus,
                          verify_closed_form, verify_conjugate_translation,
                          verify_fejer_partial_identity, verify_identities,
                          verify_kernel_decomposition, verify_lemma2,
                          verify_permutation_equivalence, verify_yano)

__version__ = "0.1.0"
