import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamuniq import DomainError, ModelValidationError, VorticityModel, validate_hypotheses
from streamuniq.vorticity import (OSCILLATORY_C2_BOUND, estimate_holder_constant,
                                  validate_oscillatory_constants, zero_vorticity)

# closed-form samples of the classical law psi - psi/sqrt(|psi|)
CLASSICAL_VALUES = [
    (0.0, 0.0),
    (0.25, -0.25),
    (-0.25, 0.25),
    (1.0e-8, -9.999e-05),
    (0.01, 0.01 - 0.1),
]


@pytest.mark.parametrize("psi,expected", CLASSICAL_VALUES)
def test_classical_values(classical_model, psi, expected):
    np.testing.assert_allclose(classical_model.evaluate(psi), expected, rtol=1e-15, atol=0.0)


def test_oscillatory_value(oscillatory_model):
    # frozen from the closed form with c2 = 0.02, c1 = sin(0.01)
    np.testing.assert_allclose(oscillatory_model.evaluate(0.25), -0.2544116815086601,
                               rtol=1e-15)


def test_grid_matches_scalar(classical_model, oscillatory_model):
    psi = np.linspace(-0.25, 0.25, 501)
    for model in (classical_model, oscillatory_model):
        grid_vals = model.evaluate_grid(psi)
        scalar_vals = np.array([model.evaluate(p) for p in psi])
        np.testing.assert_allclose(grid_vals, scalar_vals, rtol=1e-14, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(psi=st.floats(min_value=1e-12, max_value=0.25, allow_nan=False))
def test_oddness_is_exact(psi):
    model = VorticityModel.classical()
    assert model.evaluate(-psi) == -model.evaluate(psi)
    osc = VorticityModel.oscillatory()
    assert osc.evaluate(-psi) == -osc.evaluate(psi)


def test_vanishes_at_zero(classical_model, oscillatory_model):
    assert classical_model.evaluate(0.0) == 0.0
    assert oscillatory_model.evaluate(0.0) == 0.0
    assert np.all(classical_model.evaluate_grid(np.zeros(4)) == 0.0)


def test_oscillatory_bound_value():
    # the algebraic forms (17*sqrt(2)-24)/2 and (3-2*sqrt(2))/(4+3*sqrt(2))
    # agree; frozen decimal checked to float precision
    alt = (3.0 - 2.0 * math.sqrt(2.0)) / (4.0 + 3.0 * math.sqrt(2.0))
    np.testing.assert_allclose(OSCILLATORY_C2_BOUND, 0.02081528017130907, rtol=1e-15)
    np.testing.assert_allclose(OSCILLATORY_C2_BOUND, alt, rtol=1e-13)


def test_oscillatory_constants_accept():
    validate_oscillatory_constants(math.sin(0.01), 0.02)
    c2 = OSCILLATORY_C2_BOUND * (1.0 - 1.0e-11)
    validate_oscillatory_constants(math.sin(c2 / 2.0), c2)


@pytest.mark.parametrize("c1,c2,fragment", [
    (-0.01, 0.02, "0 < c1"),
    (0.0, 0.02, "0 < c1"),
    (0.01, 0.02, "sin(c2/2)"),
    (math.sin(OSCILLATORY_C2_BOUND / 2.0), OSCILLATORY_C2_BOUND, "strictly"),
    (math.sin(0.015), 0.03, "strictly"),
    # c1 = sin(c2/2) = 1 holds, but c2 = -3*pi lies below it
    (math.sin(-1.5 * math.pi), -3.0 * math.pi, "need c1 < c2 strictly"),
])
def test_oscillatory_constants_reject(c1, c2, fragment):
    with pytest.raises(ModelValidationError) as err:
        validate_oscillatory_constants(c1, c2)
    assert fragment in str(err.value)


def test_boundary_equality_is_rejected():
    # equality with the bound within 1e-12 relative counts as a violation
    for c2 in (OSCILLATORY_C2_BOUND, OSCILLATORY_C2_BOUND * (1.0 - 1.0e-13)):
        with pytest.raises(ModelValidationError):
            validate_oscillatory_constants(math.sin(c2 / 2.0), c2)


def test_constructor_uses_validation():
    with pytest.raises(ModelValidationError):
        VorticityModel.oscillatory(c2=0.03)
    with pytest.raises(ModelValidationError, match="^oscillatory constants must be finite$"):
        VorticityModel.oscillatory(c2=math.nan)
    model = VorticityModel.oscillatory(c2=0.02)
    assert model.c1 == math.sin(0.01)


def test_c1_is_derived_from_c2():
    assert VorticityModel.oscillatory().c1 == math.sin(0.01)
    assert VorticityModel.classical().c1 == 0.0
    assert VorticityModel.custom(zero_vorticity, holder_C=1.0).c1 == 0.0
    with pytest.raises(TypeError):
        VorticityModel.oscillatory(c1=0.01)
    # delta is keyword-only, so the old positional (c2, c1) call fails
    with pytest.raises(TypeError):
        VorticityModel.oscillatory(0.02, math.sin(0.01))
    with pytest.raises(TypeError):
        VorticityModel(kind="classical", delta=0.25, holder_C=1.0, c1=0.0)
    # the direct constructor runs the constraint chain too: c2 = 0.5 is
    # about 24 times its bound
    with pytest.raises(ModelValidationError, match=r"^need c2 < "):
        VorticityModel(kind="oscillatory", delta=0.25, holder_C=1.0, c2=0.5)


def test_model_domain_errors():
    with pytest.raises(DomainError):
        VorticityModel(kind="banana", delta=0.25, holder_C=1.0)
    with pytest.raises(DomainError):
        VorticityModel(kind="classical", delta=0.3, holder_C=1.0)
    with pytest.raises(DomainError):
        VorticityModel(kind="classical", delta=0.25, holder_C=-1.0)
    with pytest.raises(DomainError):
        VorticityModel(kind="custom", delta=0.25, holder_C=1.0)


@pytest.mark.parametrize("factory", [VorticityModel.classical, VorticityModel.oscillatory])
@pytest.mark.parametrize("delta", [-1.0, 0.0, 0.3, math.nan])
def test_factories_check_delta_before_deriving_constants(factory, delta):
    # both factories take sqrt(delta) for holder_C; the band rule comes first
    with pytest.raises(DomainError, match=r"^delta must lie in \(0, 0\.25\]$"):
        factory(delta=delta)


def test_sign_condition_classical(classical_model):
    report = validate_hypotheses(classical_model)
    assert report.checks == (("sign_condition", True), ("holder_bound", True))
    assert report.verdict
    # margin decays like |psi|^{3/2} at the smallest sampled magnitude
    assert 0.0 < report.sign_margin < 1.0e-6


def test_sign_condition_zero_model():
    model = VorticityModel.custom(zero_vorticity, holder_C=1.0)
    report = validate_hypotheses(model)
    assert report.sign_margin == 0.0
    assert report.checks[0] == ("sign_condition", False)
    assert not report.verdict


def test_sign_condition_wrong_sign():
    model = VorticityModel.custom(lambda p: p, holder_C=1.0)
    report = validate_hypotheses(model)
    assert report.sign_margin < 0.0
    assert report.checks[0] == ("sign_condition", False)
    assert not report.verdict


def test_sign_condition_nonzero_at_origin():
    model = VorticityModel.custom(lambda p: p - 0.5, holder_C=1.0)
    report = validate_hypotheses(model)
    assert report.sign_margin <= -0.5
    assert report.checks[0] == ("sign_condition", False)
    assert not report.verdict


def _root_law(p):
    return p - p / math.sqrt(abs(p)) if p else 0.0


def test_sign_condition_nan_at_origin():
    # nan at 0 alone: every other sample sees the classical law
    model = VorticityModel.custom(lambda p: _root_law(p) if p else math.nan, holder_C=1.0)
    report = validate_hypotheses(model)
    assert math.isnan(report.sign_margin)
    assert report.checks == (("sign_condition", False), ("holder_bound", True))


def test_holder_bound_nan_on_a_thin_shell():
    # no sign sample falls in 1e-5 < |p| < 1.002e-5; a few random Hoelder pairs do
    model = VorticityModel.custom(
        lambda p: math.nan if 1e-5 < abs(p) < 1.002e-5 else _root_law(p), holder_C=1.0)
    report = validate_hypotheses(model)
    assert math.isnan(report.holder_sup)
    assert report.checks == (("sign_condition", True), ("holder_bound", False))


def test_custom_law_with_an_infinite_sup_gets_the_fallback_constant():
    # inf at the band edge alone: the sampled supremum and margin turn infinite
    def law(p):
        return math.inf if p == 0.25 else _root_law(p)

    model = VorticityModel.custom(law)
    assert model.holder_C == 1.0
    report = validate_hypotheses(model)
    assert report.holder_sup == math.inf
    assert report.sign_margin == -math.inf
    assert report.checks == (("sign_condition", False), ("holder_bound", False))


def test_holder_estimate_classical(classical_model):
    sup, used = estimate_holder_constant(classical_model)
    # the exact supremum over the band is 1/2, approached from below; the
    # near-coincident pairs resolve it to within a few 1e-7
    assert 0.5 <= sup <= 0.5001
    assert used > 200_000
    assert sup <= classical_model.holder_C


def test_holder_estimate_oscillatory(oscillatory_model):
    sup, _ = estimate_holder_constant(oscillatory_model)
    # modulation lifts the plateau to (1 + c1)/2
    assert 0.5 <= sup <= 0.5101
    assert sup <= oscillatory_model.holder_C


def test_holder_estimate_linear_custom():
    model = VorticityModel.custom(lambda p: p, holder_C=1.0)
    sup, _ = estimate_holder_constant(model)
    # Lipschitz law: quotient = sqrt(min) <= sqrt(delta) = 0.5
    assert sup <= 0.5 + 1e-12


def test_custom_constant_autoscaled():
    model = VorticityModel.custom(lambda p: p)
    np.testing.assert_allclose(model.holder_C, 0.625, rtol=1e-6)


def test_validate_hypotheses_verdicts(classical_model, oscillatory_model):
    for model in (classical_model, oscillatory_model):
        report = validate_hypotheses(model)
        assert report.verdict
        assert report.samples_used > 200_000
    bad = VorticityModel.custom(zero_vorticity, holder_C=1.0)
    assert not validate_hypotheses(bad).verdict


# the two custom laws of the cert-batch benchmark (perfbench/workloads.py)
def odd_root_law(p):
    return p - math.copysign(math.sqrt(abs(p)), p)


def lopsided_law(p):
    v = p - math.copysign(math.sqrt(abs(p)), p)
    return 2.0 * v if p < 0.0 else v


def _count_sampling(monkeypatch):
    calls = []

    def counting(model):
        calls.append(model)
        return estimate_holder_constant(model)

    monkeypatch.setattr("streamuniq.vorticity.estimate_holder_constant", counting)
    return calls


def test_two_reports_sample_the_law_once(monkeypatch):
    calls = _count_sampling(monkeypatch)
    model = VorticityModel.classical()
    first = validate_hypotheses(model)
    second = validate_hypotheses(model)
    assert calls == [model]
    assert second == first and second is not first


@pytest.mark.parametrize("factory", [
    VorticityModel.classical,
    VorticityModel.oscillatory,
    lambda: VorticityModel.custom(odd_root_law),
    lambda: VorticityModel.custom(lopsided_law),
], ids=["classical", "oscillatory", "odd-root", "lopsided"])
def test_a_reused_model_reports_what_a_fresh_one_does(factory):
    reused = factory()
    validate_hypotheses(reused)
    again = validate_hypotheses(reused)
    fresh = validate_hypotheses(factory())
    assert dataclasses.asdict(again) == dataclasses.asdict(fresh)
    assert again.verdict


def test_replace_gives_a_model_that_samples_again(monkeypatch):
    classical = VorticityModel.classical()
    assert validate_hypotheses(classical).verdict
    calls = _count_sampling(monkeypatch)
    tight = dataclasses.replace(classical, holder_C=0.4)
    report = validate_hypotheses(tight)
    assert calls == [tight]
    # the sampled sup of the classical law is 1/2 (plus float error)
    assert 0.5 <= report.holder_sup <= 0.5001
    assert report.checks == (("sign_condition", True), ("holder_bound", False))
    assert validate_hypotheses(classical).verdict
    assert calls == [tight]


def test_the_sampled_evidence_is_neither_an_argument_nor_shown():
    with pytest.raises(TypeError):
        VorticityModel(kind="classical", delta=0.25, holder_C=1.0, _evidence=(1.0, 0.5, 3))
    model = VorticityModel.classical()
    validate_hypotheses(model)
    assert repr(model) == ("VorticityModel(kind='classical', delta=0.25, holder_C=1.0, "
                           "c1=0.0, c2=0.0, fn=None)")


def test_a_custom_law_is_sampled_once_from_construction_to_report(monkeypatch):
    calls = _count_sampling(monkeypatch)
    model = VorticityModel.custom(odd_root_law)
    assert len(calls) == 1
    report = validate_hypotheses(model)
    assert len(calls) == 1
    assert report.verdict and model.holder_C == 1.25 * report.holder_sup
    # an explicit constant samples nothing until the first report
    explicit = VorticityModel.custom(odd_root_law, holder_C=1.0)
    assert len(calls) == 1
    assert validate_hypotheses(explicit).holder_sup == report.holder_sup
    assert calls[1:] == [explicit]


def _raising_law(p):
    raise ArithmeticError("no value here")


@pytest.mark.parametrize("law, cause, message", [
    (_raising_law, ArithmeticError, "ArithmeticError: no value here"),
    (lambda p: None, TypeError,
     "TypeError: float() argument must be a string or a real number, not 'NoneType'"),
    (lambda p: "x", ValueError, "ValueError: could not convert string to float: 'x'"),
], ids=["raises", "none", "text"])
def test_a_failing_custom_law_is_a_validation_error(law, cause, message):
    expected = "^" + re.escape("custom law failed: " + message) + "$"
    model = VorticityModel.custom(law, holder_C=1.0)
    with pytest.raises(ModelValidationError, match=expected) as err:
        validate_hypotheses(model)
    assert isinstance(err.value.__cause__, cause)
    # nothing is kept from a sampling that raised
    assert model._evidence is None
    with pytest.raises(ModelValidationError, match=expected) as err:
        VorticityModel.custom(law)
    assert isinstance(err.value.__cause__, cause)
    with pytest.raises(ModelValidationError, match=expected):
        model.evaluate(0.1)
    with pytest.raises(ModelValidationError, match=expected):
        model.evaluate_grid(np.array([0.0, 0.1]))

