"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from mova.errors import NumericError, ShapeError, ValidationError

# Relative-error denominator floor; avoids blowup where both gradients vanish.
REL_ERR_FLOOR = 1e-8


@dataclass(frozen=True)
class GradCheckReport:
    op_name: str
    max_rel_error: float
    count: int
    eps: float

    def __post_init__(self):
        if self.max_rel_error < 0:
            raise ValueError("max relative error must be nonnegative")


def _probe(scalar_fn, theta: np.ndarray, flat: int, eps: float, op_name: str) -> float:
    original = theta.flat[flat]
    try:
        # A huge eps may overflow inside scalar_fn; the check below reports it once.
        with np.errstate(over="ignore", invalid="ignore"):
            theta.flat[flat] = original + eps
            f_plus = float(scalar_fn(theta))
            theta.flat[flat] = original - eps
            f_minus = float(scalar_fn(theta))
    finally:
        theta.flat[flat] = original
    if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
        raise NumericError(f"{op_name}: non-finite function value while probing element {flat}")
    return (f_plus - f_minus) / (2.0 * eps)


def rel_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_ERR_FLOOR)


def finite_diff_check(
    param_block: np.ndarray,
    scalar_fn: Callable[[np.ndarray], float],
    analytic_grad: np.ndarray,
    eps: float = 1e-5,
    op_name: str = "",
    indices: Sequence[int] | None = None,
) -> GradCheckReport:
    """Compare an analytic gradient against central differences.

    Checks every element of ``param_block`` (or just ``indices`` of its flat
    view when given) and reports the maximum relative error. Each element is
    moved by +-eps in place and restored, so ``scalar_fn`` may read the live
    array through whatever shares it. Non-finite gradients raise NumericError.
    """
    grad = np.asarray(analytic_grad, dtype=np.float64)
    if param_block.shape != grad.shape:
        raise ShapeError(
            f"gradient shape {grad.shape} does not match parameters {param_block.shape}"
        )
    if not eps > 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    bad = np.flatnonzero(~np.isfinite(grad))
    if bad.size:
        raise NumericError(f"{op_name}: non-finite analytic gradient at element {bad[0]}")
    probe_at = range(param_block.size) if indices is None else indices
    worst = 0.0
    for flat in probe_at:
        numeric = _probe(scalar_fn, param_block, int(flat), eps, op_name)
        worst = max(worst, rel_error(float(grad.flat[flat]), numeric))
    return GradCheckReport(op_name=op_name, max_rel_error=worst, count=len(probe_at), eps=eps)
