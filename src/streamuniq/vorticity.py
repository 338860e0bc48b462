"""Vorticity models and the structural checks the solvers rely on.

A model is admissible on the band (0, delta] (mirrored to [-delta, 0) by
oddness of the builtin laws) when

* f(0) = 0,
* psi * f(psi) < 0 for 0 < |psi| <= delta,
* |f(p) - f(q)| <= holder_C / sqrt(min(|p|, |q|)) * |p - q| for same-sign
  arguments in the band.

The square-root-weighted quotient in the last line is what makes the problem
non-Lipschitz at 0; both validators below sample it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .errors import DomainError, ModelValidationError

# strict upper bound for the oscillatory amplitude constant c2
OSCILLATORY_C2_BOUND = (17.0 * math.sqrt(2.0) - 24.0) / 2.0

_EQ_RTOL = 1.0e-12  # equality within this relative tolerance counts as a tie


def zero_vorticity(psi: float) -> float:
    """Identically zero law; useful for calibration runs (fails the sign check)."""
    return 0.0


@dataclass(frozen=True, eq=False)
class VorticityModel:
    """A vorticity law f together with its admissibility band and constants.

    Parameters
    ----------
    kind : {"classical", "oscillatory", "custom"}
    delta : float
        Half-width of the admissibility band around 0.
    holder_C : float
        Constant in the square-root-weighted difference bound.
    c1, c2 : float
        Oscillatory constants; zero for the other kinds.
    fn : callable, optional
        Scalar law for custom models.  Must satisfy fn(0) == 0.
    """

    kind: str
    delta: float
    holder_C: float
    c1: float = 0.0
    c2: float = 0.0
    fn: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.kind not in ("classical", "oscillatory", "custom"):
            raise DomainError(f"unknown vorticity kind {self.kind!r}")
        if not (0.0 < self.delta <= 0.25):
            raise DomainError("delta must lie in (0, 0.25]")
        if not (np.isfinite(self.holder_C) and self.holder_C > 0.0):
            raise DomainError("holder_C must be finite and positive")
        if self.kind == "custom" and self.fn is None:
            raise DomainError("custom models need a scalar callable")

    @classmethod
    def classical(cls, delta: float = 0.25) -> "VorticityModel":
        """psi - psi/sqrt(|psi|), with the sharp admissible constant for the band.

        |p - q| contributes sqrt(delta)/sqrt(min) and the root part 1/(2*sqrt(min)),
        so holder_C = sqrt(delta) + 1/2 is always admissible.
        """
        return cls(kind="classical", delta=delta, holder_C=math.sqrt(delta) + 0.5)

    @classmethod
    def oscillatory(cls, c2: float = 0.02, c1: float | None = None, delta: float = 0.25) -> "VorticityModel":
        """Root law modulated by 1 + c1 - sin(c2*psi^2/(psi^2+1)).

        c1 defaults to sin(c2/2) as the constraint chain requires.  The
        constant below adds the modulation's Lipschitz contribution
        (2*c2*delta^2) to the classical bound.
        """
        if c1 is None:
            c1 = math.sin(c2 / 2.0)
        validate_oscillatory_constants(c1, c2)
        holder_C = math.sqrt(delta) + 0.5 * (1.0 + c1) + 2.0 * c2 * delta * delta
        return cls(kind="oscillatory", delta=delta, holder_C=holder_C, c1=c1, c2=c2)

    @classmethod
    def custom(cls, fn: Callable[[float], float], delta: float = 0.25,
               holder_C: float | None = None) -> "VorticityModel":
        """Wrap a scalar callable.  Without an explicit holder_C the constant is
        set to 1.25x the sampled quotient supremum."""
        if holder_C is None:
            probe = cls(kind="custom", delta=delta, holder_C=1.0, fn=fn)
            sup, _ = estimate_holder_constant(probe)
            holder_C = 1.25 * sup if sup > 0.0 else 1.0
        return cls(kind="custom", delta=delta, holder_C=holder_C, fn=fn)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, psi: float) -> float:
        psi = float(psi)
        if self.kind == "custom":
            return float(self.fn(psi))
        if self.kind == "classical":
            return float(_kernels.f_classical(psi))
        return float(_kernels.f_oscillatory(self.c1, self.c2, psi))

    def evaluate_grid(self, psi) -> np.ndarray:
        arr = np.asarray(psi, dtype=np.float64)
        if self.kind == "custom":
            return np.frompyfunc(self.fn, 1, 1)(arr).astype(np.float64)
        return _kernels.vorticity_grid(self.kind, self.c1, self.c2, arr)


@dataclass(frozen=True)
class HypothesisReport:
    """Sampled evidence for the admissibility hypotheses.

    sign_margin is min over samples of -psi*f(psi) (forced negative when
    f(0) != 0); holder_sup is the sampled supremum of the weighted quotient
    sqrt(min(|p|,|q|)) * |f(p)-f(q)| / |p-q|.  A partial report produced by
    the sign check alone carries holder_sup = 0.
    """

    sign_margin: float
    holder_sup: float
    samples_used: int
    verdict: bool


def validate_oscillatory_constants(c1: float, c2: float) -> None:
    """Check 0 < c1 = sin(c2/2) < c2 < (17*sqrt(2)-24)/2, all strictly.

    Equality of c2 with the upper bound within 1e-12 relative is rejected,
    as is any c1 that does not equal sin(c2/2) to the same tolerance.
    Raises ModelValidationError naming the first failed link.
    """
    if not (np.isfinite(c1) and np.isfinite(c2)):
        raise ModelValidationError("oscillatory constants must be finite")
    if c1 <= 0.0:
        raise ModelValidationError(f"need 0 < c1, got c1 = {c1!r}")
    target = math.sin(c2 / 2.0)
    if abs(c1 - target) > _EQ_RTOL * max(abs(c1), abs(target)):
        raise ModelValidationError(
            f"need c1 = sin(c2/2): got c1 = {c1!r}, sin(c2/2) = {target!r}")
    if c2 - c1 <= _EQ_RTOL * abs(c2):
        raise ModelValidationError(f"need c1 < c2 strictly, got c1 = {c1!r}, c2 = {c2!r}")
    if OSCILLATORY_C2_BOUND - c2 <= _EQ_RTOL * OSCILLATORY_C2_BOUND:
        raise ModelValidationError(
            f"need c2 < {OSCILLATORY_C2_BOUND!r} strictly, got c2 = {c2!r}")


def check_sign_condition(model: VorticityModel) -> HypothesisReport:
    """Sample psi*f(psi) < 0 at psi = 0 and at +-2000 log-spaced magnitudes
    accumulating at 0.

    The margin is the raw minimum of -psi*f(psi); it decays like
    |psi|^{3/2} for the builtin laws, so strict positivity (not size) is the
    meaningful outcome.
    """
    mags = model.delta * np.logspace(0.0, -12.0, 2000)
    samples = np.concatenate([mags, -mags])
    fvals = model.evaluate_grid(samples)
    margin = float(np.min(-samples * fvals))
    f0 = model.evaluate(0.0)
    if f0 != 0.0:
        margin = min(margin, -abs(f0))
    return HypothesisReport(
        sign_margin=margin,
        holder_sup=0.0,
        samples_used=samples.size + 1,
        verdict=margin > 0.0,
    )


def _quotients(model: VorticityModel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # same-sign pairs only; min(|a|,|b|) is the weight the bound prescribes
    fa = model.evaluate_grid(a)
    fb = model.evaluate_grid(b)
    den = np.abs(b - a)
    keep = den > 0.0
    num = np.abs(fb - fa)[keep]
    w = np.sqrt(np.minimum(np.abs(a), np.abs(b))[keep])
    return w * num / den[keep]


def estimate_holder_constant(model: VorticityModel) -> tuple[float, int]:
    """Sampled supremum of the weighted difference quotient on (0, delta].

    Deterministic pair families (near-coincident partners down to tiny
    magnitudes, spread partners, mirrored negatives) are combined with 100000
    log-uniform random pairs drawn with seed 0.  Returns (sup, pairs_used).
    """
    delta = model.delta
    base = np.geomspace(delta, delta * 1.0e-20, 4001)
    sup = 0.0
    used = 0
    pairs = []
    for kappa in (2.0 ** -22, 2.0 ** -26, 2.0 ** -30):
        pairs.append((base, base * (1.0 + kappa)))
    for factor in (2.0, 10.0, 1.0e6):
        pairs.append((base, np.minimum(base * factor, delta)))
    rng = np.random.default_rng(0)
    lo = math.log(delta * 1.0e-16)
    hi = math.log(delta)
    ra = np.exp(rng.uniform(lo, hi, 100_000))
    rb = np.exp(rng.uniform(lo, hi, 100_000))
    pairs.append((ra, rb))
    for a, b in pairs:
        for sign in (1.0, -1.0):
            q = _quotients(model, sign * a, sign * b)
            used += a.size
            if q.size:
                sup = max(sup, float(q.max()))
    return sup, used


def validate_hypotheses(model: VorticityModel) -> HypothesisReport:
    """Run both sampled checks and combine them into one verdict."""
    sign_rep = check_sign_condition(model)
    holder_sup, pairs = estimate_holder_constant(model)
    return HypothesisReport(
        sign_margin=sign_rep.sign_margin,
        holder_sup=holder_sup,
        samples_used=sign_rep.samples_used + pairs,
        verdict=(sign_rep.sign_margin > 0.0) and (holder_sup <= model.holder_C),
    )
