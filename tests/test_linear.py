"""Online linear model tests: frozen update examples, margin identities,
finite-difference gradient checks."""

import json
import math
import re

import numpy as np
import pytest

from cooptile.linear import LinearModelConfig, ModelKind, OnlineLinearModel, Penalty

TOL = 1e-9


def fresh(kind, **kwargs) -> OnlineLinearModel:
    return LinearModelConfig(kind=kind, **kwargs).build(2)


class TestDecisionAndPredict:
    def test_zero_model(self):
        m = fresh(ModelKind.LOGIT)
        assert m.decision_value([3.0, -4.0]) == 0.0

    def test_dot_product(self):
        m = fresh(ModelKind.LOGIT)
        m.weights = np.array([1.0, 0.0])
        assert m.decision_value([2.0, 5.0]) == 2.0

    def test_bias(self):
        m = fresh(ModelKind.LOGIT)
        m.weights = np.array([1.0, 1.0])
        m.bias = -1.0
        assert m.decision_value([0.5, 0.5]) == 0.0

    def test_predict_signs(self):
        m = fresh(ModelKind.LOGIT)
        m.weights = np.array([1.0, 0.0])
        assert m.predict([2.0, 0.0]) == 1
        assert m.predict([-0.1, 0.0]) == 0
        assert m.predict([0.0, 0.0]) == 1  # tie goes to class 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fresh(ModelKind.LOGIT).decision_value([1.0])

    def test_predict_batch_rejects_non_finite_row(self):
        with pytest.raises(ValueError, match="non-finite"):
            fresh(ModelKind.LOGIT).predict_batch([[0.0, 0.0], [np.nan, 0.0]])

    def test_predict_batch_rejects_single_point(self):
        with pytest.raises(ValueError, match="2-d matrix"):
            fresh(ModelKind.LOGIT).predict_batch([1.0, 2.0])

    def test_predict_batch_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="points have dimension 3, model has 2"):
            fresh(ModelKind.LOGIT).predict_batch(np.zeros((4, 3)))

    def test_scaling_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(5)
        m = fresh(ModelKind.LINEAR_SVM)
        m.weights = rng.normal(size=2)
        m.bias = rng.normal()
        scaled = fresh(ModelKind.LINEAR_SVM)
        for lam in (0.001, 7.5, 4096.0):
            scaled.weights = lam * m.weights
            scaled.bias = lam * m.bias
            for x in rng.normal(size=(50, 2)):
                assert scaled.predict(x) == m.predict(x)


class TestPassiveAggressive:
    def test_pa1_frozen_example(self):
        # zero state, x=(1,0), y=1, C=1: tau = min(1, 1/(||x||^2+1)) = 0.5
        m = fresh(ModelKind.PA_I, aggressiveness_c=1.0)
        m.partial_fit([1.0, 0.0], 1)
        assert np.allclose(m.weights, [0.5, 0.0], atol=TOL)
        assert m.bias == pytest.approx(0.5, abs=TOL)
        assert m.step_count == 1

    def test_pa2_frozen_example(self):
        # tau = 1 / (2 + 1/(2C)) = 0.4 for C=1
        m = fresh(ModelKind.PA_II, aggressiveness_c=1.0)
        m.partial_fit([1.0, 0.0], 1)
        assert np.allclose(m.weights, [0.4, 0.0], atol=TOL)
        assert m.bias == pytest.approx(0.4, abs=TOL)

    def test_untruncated_update_lands_on_unit_margin(self):
        rng = np.random.default_rng(11)
        for kind in (ModelKind.PA_I, ModelKind.PA_II):
            for _ in range(50):
                m = fresh(kind, aggressiveness_c=1e12)
                m.weights = rng.normal(size=2)
                m.bias = rng.normal()
                x = rng.normal(size=2)
                y = int(rng.integers(0, 2))
                s = 2 * y - 1
                if 1.0 - s * m.decision_value(x) <= 0:
                    continue
                m.partial_fit(x, y)
                assert s * m.decision_value(x) == pytest.approx(1.0, abs=TOL)

    def test_hinge_loss_strictly_decreases(self):
        rng = np.random.default_rng(13)
        for kind in (ModelKind.PA_I, ModelKind.PA_II):
            for _ in range(50):
                m = fresh(kind, aggressiveness_c=1.0)
                m.weights = rng.normal(size=2)
                m.bias = rng.normal()
                x = rng.normal(size=2)
                y = int(rng.integers(0, 2))
                s = 2 * y - 1
                before = max(0.0, 1.0 - s * m.decision_value(x))
                if before == 0.0:
                    continue
                m.partial_fit(x, y)
                after = max(0.0, 1.0 - s * m.decision_value(x))
                assert after < before

    def test_zero_input_with_positive_loss_skips_update(self):
        m = fresh(ModelKind.PA_I)
        m.partial_fit([0.0, 0.0], 1)  # loss = 1, nothing to move along
        assert np.array_equal(m.weights, [0.0, 0.0])
        assert m.bias == 0.0
        assert m.step_count == 1

    def test_satisfied_margin_is_passive(self):
        m = fresh(ModelKind.PA_I)
        m.weights = np.array([2.0, 0.0])
        m.partial_fit([1.0, 0.0], 1)  # margin 2 >= 1: no move
        assert np.array_equal(m.weights, [2.0, 0.0])
        assert m.bias == 0.0


def regularized_logloss(w, b, x, y, config) -> float:
    s = 2 * y - 1
    f = float(w @ x) + b
    # log(1 + exp(-s f)) computed stably
    z = -s * f
    loss = math.log1p(math.exp(z)) if z < 30 else z
    a, r = config.alpha_reg, config.l1_ratio
    if config.penalty is Penalty.L2:
        loss += a * 0.5 * float(w @ w)
    elif config.penalty is Penalty.L1:
        loss += a * float(np.abs(w).sum())
    else:
        loss += a * (r * float(np.abs(w).sum()) + (1 - r) * 0.5 * float(w @ w))
    return loss


class TestGradientSteps:
    @pytest.mark.parametrize("penalty", ["l1", "l2", "elasticnet"])
    def test_logit_step_matches_finite_differences(self, penalty):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(30):
            m = fresh(ModelKind.LOGIT, alpha_reg=0.01, penalty=penalty)
            # keep weights away from the L1 kink at 0
            m.weights = rng.choice([-1, 1], size=2) * rng.uniform(0.1, 2.0, size=2)
            m.bias = rng.normal()
            x = rng.normal(size=2)
            y = int(rng.integers(0, 2))
            w0, b0 = m.weights.copy(), m.bias
            eta = m.config.learning_rate0
            m.partial_fit(x, y)
            step_w = (w0 - m.weights) / eta
            step_b = (b0 - m.bias) / eta
            fd_w = np.empty(2)
            for j in range(2):
                wp, wm = w0.copy(), w0.copy()
                wp[j] += h
                wm[j] -= h
                fd_w[j] = (
                    regularized_logloss(wp, b0, x, y, m.config)
                    - regularized_logloss(wm, b0, x, y, m.config)
                ) / (2 * h)
            fd_b = (
                regularized_logloss(w0, b0 + h, x, y, m.config)
                - regularized_logloss(w0, b0 - h, x, y, m.config)
            ) / (2 * h)
            assert np.allclose(step_w, fd_w, rtol=1e-5, atol=1e-7)
            assert step_b == pytest.approx(fd_b, rel=1e-5, abs=1e-7)

    def test_saturated_logit_only_shrinks(self):
        m = fresh(ModelKind.LOGIT, alpha_reg=0.01, penalty="l2")
        m.weights = np.array([50.0, 0.0])
        m.partial_fit([1.0, 0.0], 1)  # margin 50: loss gradient ~ 0
        expected = np.array([50.0, 0.0]) - 0.01 * (0.01 * np.array([50.0, 0.0]))
        assert np.allclose(m.weights, expected, atol=1e-12)

    def test_hinge_inactive_beyond_margin(self):
        m = fresh(ModelKind.LINEAR_SVM, alpha_reg=0.0)
        m.weights = np.array([2.0, 0.0])
        m.partial_fit([1.0, 0.0], 1)
        assert np.array_equal(m.weights, [2.0, 0.0])

    def test_hinge_active_inside_margin(self):
        m = fresh(ModelKind.LINEAR_SVM, alpha_reg=0.0)
        m.partial_fit([1.0, 0.0], 0)  # s=-1, f=0: gradient -s = +1 on w.x
        assert np.allclose(m.weights, [-0.01, 0.0], atol=1e-15)
        assert m.bias == pytest.approx(-0.01, abs=1e-15)

    def test_learning_rate_decays_with_steps(self):
        m = fresh(ModelKind.LINEAR_SVM, alpha_reg=1.0, penalty="l2", learning_rate0=0.5)
        m.partial_fit([1.0, 0.0], 1)
        first = m.weights[0]
        m.weights = np.zeros(2)
        m.bias = 0.0
        m.partial_fit([1.0, 0.0], 1)  # step_count now 1: eta halves (lr0*alpha=0.5)
        assert m.weights[0] == pytest.approx(first / 1.5, rel=1e-12)


class TestFit:
    def test_zero_epochs_is_identity(self):
        m = fresh(ModelKind.LOGIT)
        m.fit(np.array([[1.0, 0.0]]), np.array([1]), epochs=0)
        assert np.array_equal(m.weights, [0.0, 0.0])
        assert m.bias == 0.0

    def test_two_separated_points(self):
        X = np.array([[-2.0, 0.0], [2.0, 0.0]])
        Y = np.array([0, 1])
        m = fresh(ModelKind.LINEAR_SVM).fit(X, Y, epochs=100, seed=3)
        assert np.array_equal(m.predict_batch(X), Y)

    def test_and_like_separable_set(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        Y = np.array([0, 0, 0, 1])
        m = fresh(ModelKind.PA_I).fit(X, Y, epochs=10, seed=0)
        assert np.array_equal(m.predict_batch(X), Y)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(30, 2))
        Y = (X[:, 0] > 0).astype(int)
        a = fresh(ModelKind.LOGIT).fit(X, Y, epochs=20, seed=9)
        b = fresh(ModelKind.LOGIT).fit(X, Y, epochs=20, seed=9)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fresh(ModelKind.LOGIT).fit(np.empty((0, 2)), np.empty(0))

    def test_matches_partial_fit_loop(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(40, 2))
        Y = (X[:, 0] + X[:, 1] > 0).astype(int)
        for kind in ModelKind:
            fitted = fresh(kind).fit(X, Y, epochs=5, seed=4)
            looped = fresh(kind)
            order = np.random.default_rng(4)
            for _ in range(5):
                for i in order.permutation(X.shape[0]):
                    looped.partial_fit(X[i], int(Y[i]))
            assert looped.to_dict() == fitted.to_dict()

    @pytest.mark.parametrize("X,Y,match", [
        ([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], [0, 1, 2], "label"),
        ([[0.5, 1.0]], [1.7], "label"),
        ([[0.0, 1.0], [np.nan, 0.0]], [0, 1], "non-finite"),
        ([[0.0, 1.0], [1.0, 0.0]], [[0], [1]], "vector of 2 labels"),
    ])
    def test_bad_input_rejected_before_any_update(self, X, Y, match):
        m = fresh(ModelKind.LOGIT)
        with pytest.raises(ValueError, match=match):
            m.fit(X, Y, epochs=1, seed=1)
        assert np.array_equal(m.weights, [0.0, 0.0])
        assert m.bias == 0.0 and m.step_count == 0

    @pytest.mark.parametrize("epochs", [-3, 2.5, True])
    def test_fit_rejects_an_epoch_count_that_is_not_a_count(self, epochs):
        # -3 once trained nothing without a word, and True one epoch
        m = fresh(ModelKind.LOGIT)
        with pytest.raises(ValueError, match=f"epochs must be a non-negative integer, got {epochs}"):
            m.fit([[0.0, 1.0], [1.0, 0.0]], [0, 1], epochs=epochs)
        assert m.step_count == 0

    def test_partial_fit_rejects_non_finite_point(self):
        m = fresh(ModelKind.LOGIT)
        with pytest.raises(ValueError, match="non-finite"):
            m.partial_fit([np.nan, 0.0], 1)
        assert np.array_equal(m.weights, [0.0, 0.0])
        assert m.step_count == 0


class TestConfigAndSerialization:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinearModelConfig(kind=ModelKind.LOGIT, alpha_reg=-1.0)
        with pytest.raises(ValueError):
            LinearModelConfig(kind=ModelKind.PA_I, aggressiveness_c=0.0)
        with pytest.raises(ValueError):
            LinearModelConfig(kind=ModelKind.LOGIT, l1_ratio=1.5)
        # NaN fails every comparison, so a check like `alpha_reg < 0` let it through; an inf rate
        # or shrinkage weight gives NaN weights within two updates
        for field in ("alpha_reg", "learning_rate0", "aggressiveness_c"):
            with pytest.raises(ValueError, match=field):
                LinearModelConfig(kind=ModelKind.PA_I, **{field: math.nan})
        for field in ("alpha_reg", "learning_rate0"):
            with pytest.raises(ValueError, match=field):
                LinearModelConfig(kind=ModelKind.LOGIT, **{field: math.inf})
        # bools in float fields: once stored as 1.0 or 0.0
        for field, value in (("alpha_reg", True), ("aggressiveness_c", True), ("learning_rate0", True),
                             ("l1_ratio", False)):
            with pytest.raises(ValueError, match=f"{field} must be a number"):
                LinearModelConfig(kind=ModelKind.LOGIT, **{field: value})
        # an unbounded C is the classic PA update
        model = LinearModelConfig(kind=ModelKind.PA_I, aggressiveness_c=math.inf).build(2)
        model.partial_fit(np.array([1.0, 2.0]), 1)
        assert np.all(np.isfinite(model.weights)) and math.isfinite(model.bias)

    def test_string_coercion(self):
        cfg = LinearModelConfig(kind="pa1", penalty="l1")
        assert cfg.kind is ModelKind.PA_I and cfg.penalty is Penalty.L1

    def test_float_fields_write_as_floats(self):
        # equal configs write equal bytes, whatever number type built them
        as_floats = LinearModelConfig(kind=ModelKind.LOGIT, alpha_reg=0.0, l1_ratio=1.0, aggressiveness_c=2.0,
                                      learning_rate0=0.25)
        for number in (int, np.float32):
            cfg = LinearModelConfig(kind="logit", alpha_reg=number(0), l1_ratio=number(1), aggressiveness_c=number(2),
                                    learning_rate0=np.float32(0.25))
            assert json.dumps(cfg.to_dict(), sort_keys=True) == json.dumps(as_floats.to_dict(), sort_keys=True)
            assert type(cfg.alpha_reg) is float and cfg.to_dict()["kind"] == "logit"

    def test_roundtrip(self):
        m = fresh(ModelKind.PA_II, aggressiveness_c=2.0)
        m.fit(np.array([[1.0, 2.0], [-1.0, 0.5]]), np.array([1, 0]), epochs=3, seed=0)
        restored = OnlineLinearModel.from_dict(m.to_dict())
        assert restored.to_dict() == m.to_dict()
        X = np.random.default_rng(0).normal(size=(20, 2))
        assert np.array_equal(restored.predict_batch(X), m.predict_batch(X))

    @pytest.mark.parametrize("field,value,message", [
        ("weights", [float("nan"), 0.0], "model.weights[0] must be a finite number, got nan"),
        ("bias", float("inf"), "model.bias must be a finite number, got inf"),
    ])
    def test_from_dict_rejects_non_finite_state(self, field, value, message):
        d = fresh(ModelKind.PA_I).to_dict()
        d[field] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            OnlineLinearModel.from_dict(d)

    def test_from_dict_rejects_an_unknown_key(self):
        d = {**fresh(ModelKind.PA_I).to_dict(), "momentum": 0.9}
        with pytest.raises(ValueError, match="model holds the unknown key 'momentum'"):
            OnlineLinearModel.from_dict(d)

    @pytest.mark.parametrize("change,message", [
        (lambda d: [], "model must be a JSON object, got list"),
        (lambda d: {**d, "alpha_reg": None}, "model: alpha_reg must be a number, got None"),
        (lambda d: {**d, "weights": 3}, "model.weights must be a JSON array, got int"),
        # each of these once loaded as a number or, the last, as a (1, 2) weight matrix
        (lambda d: {**d, "weights": ["1", "2"]}, "model.weights[0] must be a finite number, got '1'"),
        (lambda d: {**d, "weights": [True, False]}, "model.weights[0] must be a finite number, got True"),
        (lambda d: {**d, "bias": "0.5"}, "model.bias must be a finite number, got '0.5'"),
        (lambda d: {**d, "bias": True}, "model.bias must be a finite number, got True"),
        (lambda d: {**d, "weights": [[1.0, 2.0]]}, "model.weights[0] must be a finite number, got [1.0, 2.0]"),
    ], ids=["list", "null_alpha_reg", "number_weights", "string_weights", "bool_weights", "string_bias", "bool_bias",
            "weight_matrix"])
    def test_from_dict_rejects_a_wrong_shape(self, change, message):
        # a model file of the wrong shape ends in an error message, not a TypeError's traceback
        with pytest.raises(ValueError, match=re.escape(message)):
            OnlineLinearModel.from_dict(change(fresh(ModelKind.PA_I).to_dict()))

    @pytest.mark.parametrize("value", [-1, 2.5, True])
    def test_from_dict_rejects_a_step_count_that_is_not_a_count(self, value):
        d = {**fresh(ModelKind.PA_I).to_dict(), "step_count": value}
        with pytest.raises(ValueError, match=f"model.step_count must be a non-negative integer, got {value}"):
            OnlineLinearModel.from_dict(d)

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            fresh(ModelKind.PA_I).partial_fit([1.0, 0.0], 2)
