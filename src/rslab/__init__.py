"""Exact verification toolkit for convolution L-series coefficient identities,
character-sum reductions, and functional-equation bookkeeping over Q."""

from .scalars import EXACT, FLOAT, coerce
from .euler import EulerFactorPoly, NotDivisibleError
from .symfunc import Partition3, cauchy_check, schur3, schur3_tableau
from .cyclotomic import CycloElement
from .characters import DirichletCharacter, char_group, gauss_beta, gauss_classical
from .langlands import SteinbergBlock
from .coeffs import CoeffData, c_pi_tau, double_sum_check, lambda_rs, lambda_std
from .matid import CosetContext, FactorizationInstance, Mat, coset_reduce
from .twists import fe_root_number, twisted_prefactor
from .funceq import dirichlet_L, fe_residual_dirichlet, hurwitz_zeta, synthetic_fe_check
from .registry import CHECKS, RunConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "EXACT", "FLOAT", "coerce",
    "EulerFactorPoly", "NotDivisibleError",
    "Partition3", "cauchy_check", "schur3", "schur3_tableau",
    "CycloElement",
    "DirichletCharacter", "char_group", "gauss_beta", "gauss_classical",
    "SteinbergBlock",
    "CoeffData", "c_pi_tau", "double_sum_check", "lambda_rs", "lambda_std",
    "CosetContext", "FactorizationInstance", "Mat", "coset_reduce",
    "fe_root_number", "twisted_prefactor",
    "dirichlet_L", "fe_residual_dirichlet", "hurwitz_zeta", "synthetic_fe_check",
    "CHECKS", "RunConfig", "run_suite",
    "__version__",
]
