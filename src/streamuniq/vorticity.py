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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels
from .errors import DomainError, ModelValidationError

# strict upper bound for the oscillatory amplitude constant c2
OSCILLATORY_C2_BOUND = (17.0 * math.sqrt(2.0) - 24.0) / 2.0

_EQ_RTOL = 1.0e-12  # equality within this relative tolerance counts as a tie


def check_delta(delta: float) -> None:
    """The band rule of every model, checked before any constant is derived
    from delta: 0 < delta <= 0.25."""
    if not (0.0 < delta <= 0.25):
        raise DomainError("delta must lie in (0, 0.25]")


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
    c2 : float
        Oscillatory frequency; zero for the other kinds.  c1 = sin(c2/2) is
        derived, the one value the constraint chain admits.
    fn : callable, optional
        Scalar law for custom models.  Must be a pure function of psi with
        fn(0) == 0: its values are sampled once per model, on first use.
    """

    kind: str
    delta: float
    holder_C: float
    c1: float = field(init=False)
    c2: float = 0.0
    fn: Callable[[float], float] | None = None
    # (sign_margin, holder_sup, samples_used) once validate_hypotheses has
    # sampled the law; it does not depend on holder_C
    _evidence: tuple[float, float, int] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("classical", "oscillatory", "custom"):
            raise DomainError(f"unknown vorticity kind {self.kind!r}")
        object.__setattr__(self, "c1", math.sin(self.c2 / 2.0))
        if self.kind == "oscillatory":
            validate_oscillatory_constants(self.c1, self.c2)
        check_delta(self.delta)
        if not (np.isfinite(self.holder_C) and self.holder_C > 0.0):
            raise DomainError("holder_C must be finite and positive")
        if self.kind == "custom" and self.fn is None:
            raise DomainError("custom models need a scalar callable")

    @classmethod
    def classical(cls, delta: float = 0.25) -> "VorticityModel":
        """psi - psi/sqrt(|psi|), with an admissible constant for the band.

        |p - q| contributes sqrt(delta)/sqrt(min) and the root part 1/(2*sqrt(min)),
        so holder_C = sqrt(delta) + 1/2 is always admissible.  It is not
        sharp: the sampled supremum of the weighted quotient is 1/2.
        """
        check_delta(delta)
        return cls(kind="classical", delta=delta, holder_C=math.sqrt(delta) + 0.5)

    @classmethod
    def oscillatory(cls, c2: float = 0.02, *, delta: float = 0.25) -> "VorticityModel":
        """Root law modulated by 1 + c1 - sin(c2*psi^2/(psi^2+1)), c1 = sin(c2/2).

        The constant below adds the modulation's Lipschitz contribution
        (2*c2*delta^2) to the classical bound.
        """
        check_delta(delta)
        c1 = math.sin(c2 / 2.0)
        holder_C = math.sqrt(delta) + 0.5 * (1.0 + c1) + 2.0 * c2 * delta * delta
        return cls(kind="oscillatory", delta=delta, holder_C=holder_C, c2=c2)

    @classmethod
    def custom(cls, fn: Callable[[float], float], delta: float = 0.25,
               holder_C: float | None = None) -> "VorticityModel":
        """Wrap a scalar callable.  Without an explicit holder_C the constant is
        set to 1.25x the sampled quotient supremum, or to 1.0 where that is
        not finite and positive (a zero, nan or infinite supremum)."""
        evidence = None
        if holder_C is None:
            probe = cls(kind="custom", delta=delta, holder_C=1.0, fn=fn)
            evidence = _sample_evidence(probe)
            holder_C = 1.25 * evidence[1]
            if not (np.isfinite(holder_C) and holder_C > 0.0):
                holder_C = 1.0
        model = cls(kind="custom", delta=delta, holder_C=holder_C, fn=fn)
        # the same law on the same band: its first report reuses the probe's samples
        object.__setattr__(model, "_evidence", evidence)
        return model

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, psi: float) -> float:
        psi = float(psi)
        if self.kind == "custom":
            try:
                return float(self.fn(psi))
            except Exception as exc:
                raise _law_failure(exc) from exc
        if self.kind == "classical":
            return float(_kernels.f_classical(psi))
        return float(_kernels.f_oscillatory(self.c1, self.c2, psi))

    def evaluate_grid(self, psi) -> np.ndarray:
        arr = np.asarray(psi, dtype=np.float64)
        if self.kind == "custom":
            try:
                values = np.frompyfunc(self.fn, 1, 1)(arr)
                out = values.astype(np.float64)
                # astype reads None as nan; float() refuses it, as in evaluate
                for value in values[np.isnan(out)]:
                    float(value)
            except Exception as exc:
                raise _law_failure(exc) from exc
            return out
        return _kernels.vorticity_grid(self.kind, self.c1, self.c2, arr)


def _law_failure(exc: Exception) -> ModelValidationError:
    """What a custom law that raised, or returned a value float() refuses,
    raises instead; the caller chains it from exc."""
    return ModelValidationError(f"custom law failed: {type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class HypothesisReport:
    """Sampled evidence for the admissibility hypotheses.

    sign_margin is min over samples of -psi*f(psi) (forced negative when
    f(0) != 0, nan when any sample is nan); holder_sup is the sampled supremum of the weighted quotient
    sqrt(min(|p|,|q|)) * |f(p)-f(q)| / |p-q|.  checks holds (name, passed)
    for sign_condition and holder_bound, in that order; the verdict is their
    conjunction.
    """

    sign_margin: float
    holder_sup: float
    samples_used: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def verdict(self) -> bool:
        return all(passed for _, passed in self.checks)


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


# a law that is not finite on the band shows up in the reported sup and
# margin, not as numpy warnings
@np.errstate(all="ignore")
def estimate_holder_constant(model: VorticityModel) -> tuple[float, int]:
    """Sampled supremum of the weighted difference quotient on (0, delta].

    Deterministic pair families (near-coincident partners down to tiny
    magnitudes, spread partners, mirrored negatives) are combined with 100000
    log-uniform random pairs drawn with seed 0.  Returns (sup, pairs_used);
    any nan quotient makes the sup nan.
    """
    delta = model.delta
    base = np.geomspace(delta, delta * 1.0e-20, 4001)
    partners = [base * (1.0 + kappa) for kappa in (2.0 ** -22, 2.0 ** -26, 2.0 ** -30)]
    partners += [np.minimum(base * factor, delta) for factor in (2.0, 10.0, 1.0e6)]
    rng = np.random.default_rng(0)
    lo = math.log(delta * 1.0e-16)
    hi = math.log(delta)
    # base once per partner family, then the random pairs (ra, rb)
    a = np.concatenate([base] * 6 + [np.exp(rng.uniform(lo, hi, 100_000))])
    b = np.concatenate(partners + [np.exp(rng.uniform(lo, hi, 100_000))])
    ra = a[6 * base.size:]
    # same-sign pairs only; min(|a|,|b|) is the weight the bound prescribes.
    # Negation is exact, so den, keep and w serve both signs.
    den = np.abs(b - a)
    keep = den > 0.0
    w = np.sqrt(np.minimum(a, b)[keep])
    den = den[keep]
    sups = []
    for sign in (1.0, -1.0):
        fb = model.evaluate_grid(sign * b)
        fa = np.concatenate([model.evaluate_grid(sign * base)] * 6
                            + [model.evaluate_grid(sign * ra)])
        sups.append((w * np.abs(fb - fa)[keep] / den).max())
    return float(np.maximum(*sups)), 2 * a.size


@np.errstate(all="ignore")
def _sample_evidence(model: VorticityModel) -> tuple[float, float, int]:
    """(sign_margin, holder_sup, samples_used) of the law on the model's band.

    The sign condition psi*f(psi) < 0 is sampled at psi = 0 and at +-2000
    log-spaced magnitudes accumulating at 0.  Its margin is the raw minimum
    of -psi*f(psi); it decays like |psi|^{3/2} for the builtin laws, so
    strict positivity (not size) is the meaningful outcome.  holder_sup is
    the sampled supremum from estimate_holder_constant.
    """
    mags = model.delta * np.logspace(0.0, -12.0, 2000)
    samples = np.concatenate([mags, -mags])
    margin = float(np.min(-samples * model.evaluate_grid(samples)))
    f0 = model.evaluate(0.0)
    if f0 != 0.0:
        margin = float(np.minimum(margin, -abs(f0)))
    holder_sup, pairs = estimate_holder_constant(model)
    return margin, holder_sup, samples.size + 1 + pairs


def validate_hypotheses(model: VorticityModel) -> HypothesisReport:
    """Report one check for each hypothesis: the sampled sign margin must be
    positive and the sampled supremum at most holder_C.

    The law is sampled on the model's first call only (or in
    VorticityModel.custom, which samples it to derive holder_C); every later
    call reuses that evidence and checks it against the model's holder_C.
    A model made by dataclasses.replace or a new construction samples again.
    """
    if model._evidence is None:
        object.__setattr__(model, "_evidence", _sample_evidence(model))
    margin, holder_sup, samples_used = model._evidence
    return HypothesisReport(
        sign_margin=margin,
        holder_sup=holder_sup,
        samples_used=samples_used,
        checks=(("sign_condition", margin > 0.0),
                ("holder_bound", holder_sup <= model.holder_C)),
    )
