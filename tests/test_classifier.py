import numpy as np
import pytest

from bovw.classifier import (
    LinearModel,
    TrainConfig,
    accuracy,
    decision_scores,
    load_model,
    save_model,
    train_ovr,
)


def one_hot_toy(n_per_class=10, k=6, jitter=0.02, seed=0):
    """Linearly separable by construction: class c concentrates on axis c,
    so w = 2*e_c - sum(e_other) separates c from the rest with margin."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c, label in enumerate(["alpha", "beta", "gamma"]):
        for _ in range(n_per_class):
            v = rng.uniform(0, jitter, k)
            v[c] = 1.0
            xs.append(v)
            ys.append(label)
    return np.array(xs), ys


class TestTrainOvr:
    def test_separable_toy_reaches_full_training_accuracy(self):
        x, y = one_hot_toy()
        model = train_ovr(x, y, TrainConfig())
        assert accuracy(model, x, y) == 1.0

    def test_single_class_rejected(self):
        x = np.ones((4, 3))
        with pytest.raises(ValueError, match="distinct classes"):
            train_ovr(x, ["same"] * 4, TrainConfig())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_ovr(np.empty((0, 3)), [], TrainConfig())

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            train_ovr(np.ones((3, 2)), ["a", "b"], TrainConfig())

    def test_bit_identical_across_runs(self):
        x, y = one_hot_toy(seed=3)
        a = train_ovr(x, y, TrainConfig(seed=11))
        b = train_ovr(x, y, TrainConfig(seed=11))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_labels_sorted(self):
        x, y = one_hot_toy()
        model = train_ovr(x, y, TrainConfig())
        assert model.labels == sorted(model.labels)

    def test_objective_decreases_from_zero_model(self):
        x, y = one_hot_toy(jitter=0.3, seed=5)
        cfg = TrainConfig(epochs=20, seed=2)
        model = train_ovr(x, y, cfg)
        lam = 1.0 / (cfg.c_reg * len(y))
        classes = model.labels
        final = 0.0
        for ci, c in enumerate(classes):
            signs = np.array([1.0 if lbl == c else -1.0 for lbl in y])
            margins = signs * (x @ model.weights[ci] + model.biases[ci])
            hinge = np.maximum(0.0, 1.0 - margins).mean()
            final += 0.5 * lam * model.weights[ci] @ model.weights[ci] + hinge
        final /= len(classes)
        initial = 1.0  # hinge of the zero model; no regularization term
        assert final < initial


class TestPredict:
    """The prediction rule accuracy scores: argmax of the decision scores,
    ties to the lowest class index."""

    def test_favoring_weights(self):
        model = LinearModel(
            weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
            biases=np.zeros(2),
            labels=["first", "second"],
        )
        assert accuracy(model, np.array([[3.0, 1.0], [1.0, 3.0]]), ["first", "second"]) == 1.0

    def test_all_equal_scores_break_to_first_label(self):
        model = LinearModel(weights=np.zeros((3, 4)), biases=np.zeros(3),
                            labels=["aa", "bb", "cc"])
        assert accuracy(model, np.ones((2, 4)), ["aa", "aa"]) == 1.0
        assert accuracy(model, np.ones((2, 4)), ["bb", "cc"]) == 0.0

    def test_training_set_predictions_match(self):
        x, y = one_hot_toy(seed=7)
        model = train_ovr(x, y, TrainConfig())
        pred = np.argmax(decision_scores(model, x), axis=1)
        assert [model.labels[i] for i in pred] == y

    def test_dimension_mismatch(self):
        model = LinearModel(weights=np.zeros((2, 4)), biases=np.zeros(2), labels=["a", "b"])
        with pytest.raises(ValueError, match="dim"):
            accuracy(model, np.ones((1, 3)), ["a"])

    def test_scaling_inputs_and_inverse_weights_preserves_predictions(self):
        x, y = one_hot_toy(jitter=0.4, seed=9)
        model = train_ovr(x, y, TrainConfig())
        scaled = LinearModel(weights=model.weights / 4.0, biases=model.biases,
                             labels=model.labels)
        base = np.argmax(decision_scores(model, x), axis=1)
        after = np.argmax(decision_scores(scaled, x * 4.0), axis=1)
        assert np.array_equal(base, after)


class TestAccuracy:
    def _model(self):
        return LinearModel(
            weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
            biases=np.zeros(2),
            labels=["a", "b"],
        )

    def test_all_correct(self):
        m = self._model()
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(m, x, ["a", "b"]) == 1.0

    def test_none_correct(self):
        m = self._model()
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(m, x, ["b", "a"]) == 0.0

    def test_three_of_five(self):
        m = self._model()
        x = np.array([[1, 0], [1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        assert accuracy(m, x, ["a", "a", "a", "a", "a"]) == pytest.approx(0.6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(self._model(), np.empty((0, 2)), [])


class TestModelIO:
    def test_round_trip_bitwise(self, tmp_path):
        x, y = one_hot_toy(seed=13)
        model = train_ovr(x, y, TrainConfig(seed=4))
        path = tmp_path / "m.bin"
        save_model(model, path)
        back = load_model(path)
        assert back.labels == model.labels
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.biases, model.biases)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError, match="not a linear model"):
            load_model(path)
