"""qlct2d: two-sided two-dimensional quaternion linear canonical
transform with a probability layer and a verification suite."""

from .quaternion import (Quaternion, ONE, I, J, K, mul, conj, norm, inverse,
                         exp_i, exp_j, sc, vec, dot, cross, isclose)
from .field import (GridSpec, SampledField, sample, integrate, l2_norm,
                    inner_product, convolve, quad_weights_1d)
from .lct import (LctParams, TransformParams, kernel_i, kernel_j,
                  inverse_params, fourier_params, kernel_matrix)
from .transform import (Spectrum, forward, inverse as inverse_transform,
                        parseval_ratio, correlate, phase_strip,
                        product_residuals)
from .prob import (QpdfReport, CharFn, MomentReport, validate_qpdf,
                   expectation, charfn, charfn_properties, invert_charfn,
                   fd_moment, covariance)
from .gridio import (ParseError, read_field, write_field, read_spectrum,
                     write_spectrum)
from .verify import Claim, run_verify, ledger_json, ledger_text

__version__ = "1.0.0"
