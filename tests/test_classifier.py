import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bovw import binfile
from bovw.classifier import (
    MODEL_MAGIC,
    MODEL_VERSION,
    LinearModel,
    TrainConfig,
    accuracy,
    decision_scores,
    load_model,
    save_model,
    train_ovr,
)

from oracles import train_ovr_reference


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


def bow_rows(n_cls, per_class, k=1000, dense=False, seed=0):
    """Bag-of-words-like training rows, grouped by class. Hard/average-like
    rows are 81-point histograms over k words (<= 81 nonzeros), a third of
    each image's points on a class-specific run of 20 words; soft rows are
    dense positive rows summing to 1 with a class-specific bump."""
    rng = np.random.default_rng(seed)
    x = np.empty((n_cls * per_class, k))
    labels = []
    for c in range(n_cls):
        home = (c * 37 + np.arange(20)) % k
        for r in range(c * per_class, (c + 1) * per_class):
            if dense:
                row = rng.random(k)
                row[home] += 2.0
            else:
                words = np.concatenate([rng.integers(0, k, 54), rng.choice(home, 27)])
                row = np.bincount(words, minlength=k).astype(np.float64)
            x[r] = row / row.sum()
            labels.append(f"class{c:03d}")
    return x, labels


def assert_matches_reference(x, labels, cfg):
    """The oracle's violation path (biases, sums of +-eta in update order,
    byte-equal) and its weights up to rounding (1e-12 relative)."""
    model = train_ovr(x, labels, cfg)
    weights, biases, classes = train_ovr_reference(x, labels, cfg.c_reg, cfg.epochs, cfg.seed)
    assert model.labels == classes
    assert model.biases.tobytes() == biases.tobytes()
    assert np.linalg.norm(model.weights - weights) <= 1e-12 * np.linalg.norm(weights)
    return model, weights, biases


def ovr_objective(weights, biases, classes, x, labels, lam):
    """The regularized hinge objective averaged over the binary problems."""
    total = 0.0
    for ci, c in enumerate(classes):
        signs = np.array([1.0 if lbl == c else -1.0 for lbl in labels])
        margins = signs * (x @ weights[ci] + biases[ci])
        hinge = np.maximum(0.0, 1.0 - margins).mean()
        total += 0.5 * lam * weights[ci] @ weights[ci] + hinge
    return total / len(classes)


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

    @pytest.mark.parametrize("c_reg", [1e308, 1e-320])
    def test_lambda_must_be_positive_and_finite(self, c_reg):
        # lambda = 1/(c_reg*n) is 0 for 1e308 and inf for 1e-320
        x, y = one_hot_toy()
        with pytest.raises(ValueError, match="lambda = 1/\\(c_reg\\*n\\) must be positive"):
            train_ovr(x, y, TrainConfig(c_reg=c_reg))

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
        final = ovr_objective(model.weights, model.biases, model.labels, x, y, lam)
        initial = 1.0  # hinge of the zero model; no regularization term
        assert final < initial


class TestTrainOvrExact:
    """train_ovr takes the violation path of the textbook vectorized update
    in tests/oracles.py, and its weights differ only by rounding (the
    argument is in the train_ovr docstring)."""

    @pytest.mark.parametrize("c_reg", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("dense", [False, True], ids=["hard-avg", "soft"])
    @pytest.mark.parametrize("n_cls", [2, 3, 8, 15, 101])
    def test_bit_identical_to_reference(self, n_cls, dense, epochs, c_reg):
        x, labels = bow_rows(n_cls, 3, dense=dense, seed=n_cls)
        assert_matches_reference(x, labels, TrainConfig(c_reg=c_reg, epochs=epochs, seed=n_cls))

    @pytest.mark.parametrize("c_reg", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("dense", [False, True], ids=["hard-avg", "soft"])
    @pytest.mark.parametrize("n_cls", [2, 3, 8])
    def test_matches_reference_near_convergence(self, n_cls, dense, c_reg):
        # 10 rows per class over 20 epochs bring some training margins so
        # close to 1 that reading them with the post-shrink scale a*(1 - 1/t)
        # takes another branch; the 3-row, 3-epoch grid above seldom does
        x, labels = bow_rows(n_cls, 10, dense=dense, seed=n_cls)
        assert_matches_reference(x, labels, TrainConfig(c_reg=c_reg, epochs=20, seed=n_cls))

    @pytest.mark.parametrize("n_cls", [2, 8, 101])
    def test_one_image_per_class(self, n_cls):
        x, labels = bow_rows(n_cls, 1, seed=1)
        assert_matches_reference(x, labels, TrainConfig(epochs=5, seed=2))

    @pytest.mark.parametrize("layout", ["fortran", "column-sliced"])
    def test_non_contiguous_input(self, layout):
        x, labels = bow_rows(8, 4, k=2000 if layout == "column-sliced" else 1000, seed=3)
        x = np.asfortranarray(x) if layout == "fortran" else x[:, ::2]
        assert not x.flags.c_contiguous
        assert_matches_reference(x, labels, TrainConfig(epochs=3, seed=4))

    def test_margin_of_exactly_one_is_not_a_violation(self):
        # With zero features only the biases move, by eta_t = c_reg*n/t = 2/t.
        # Seed 0 visits the rows in order (a, b) in both epochs: biases go
        # (2, -2) then (1, -1), so at update 3 row a's margins are exactly 1
        # for both classes and nothing changes; update 4 (row b) moves both
        # by 1/2.
        x, labels, cfg = np.zeros((2, 3)), ["a", "b"], TrainConfig(c_reg=1.0, epochs=2, seed=0)
        model = train_ovr(x, labels, cfg)
        assert model.biases.tolist() == [0.5, -0.5]
        assert_matches_reference(x, labels, cfg)

    def test_input_not_mutated(self):
        x, labels = bow_rows(8, 4, seed=6)
        before = x.copy()
        train_ovr(x, labels, TrainConfig(epochs=3))
        assert x.tobytes() == before.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(n_cls=st.integers(2, 12), per_class=st.integers(1, 4), k=st.integers(1, 60),
           density=st.floats(0.0, 1.0), c_reg=st.floats(1e-3, 1e3), epochs=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), shuffle=st.booleans())
    def test_bit_identical_property(self, n_cls, per_class, k, density, c_reg, epochs, seed,
                                    shuffle):
        rng = np.random.default_rng(seed)
        n = n_cls * per_class
        x = rng.random((n, k)) * (rng.random((n, k)) < density)
        labels = [f"c{i % n_cls}" for i in range(n)]
        if shuffle:
            labels = [labels[i] for i in rng.permutation(n)]
        assert_matches_reference(x, labels, TrainConfig(c_reg=c_reg, epochs=epochs, seed=seed))

    def test_model_bytes_pinned(self):
        # sha256 of weights then biases, recorded with the kept-scores loop
        # (numpy 2.4, OpenBLAS 0.3.31); the Gram product's and the final
        # weights product's summation orders are the BLAS's
        x, labels = bow_rows(8, 17, seed=5)
        model = train_ovr(x, labels, TrainConfig(epochs=50, seed=17))
        digest = hashlib.sha256(model.weights.tobytes() + model.biases.tobytes()).hexdigest()
        assert digest == "92b74e8683e8b5d0c363ea7a5b6b516723d84dc583ec17986cc6713bcee361b5"


class TestScaleFactorGate:
    """At the scale factor's edges (a first shrink of 0 and one other than
    0, the sweep's 50 epochs, C = 101) training takes the oracle's violation
    path, and on held-out rows it scores as the oracle's model does: the
    same regularized hinge objective to 1e-12 relative, and the same argmax
    predictions."""

    @pytest.mark.parametrize("n_cls, per_class, dense, epochs", [
        (8, 17, False, 50), (8, 17, True, 50), (15, 5, False, 10), (31, 3, False, 5),
        (31, 3, True, 5), (101, 3, False, 3), (101, 3, True, 3),
    ], ids=["sweep-hard-avg", "sweep-soft", "C15", "first-shrink-nonzero-hard-avg",
            "first-shrink-nonzero-soft", "C101-hard-avg", "C101-soft"])
    def test_held_out_objective_and_predictions(self, n_cls, per_class, dense, epochs):
        x, labels = bow_rows(n_cls, per_class, dense=dense, seed=n_cls)
        # the first update's shrink 1 - eta_1*lambda: at c_reg = 1, fl(1/lambda)
        # * lambda rounds away from 1 for n = 93 (also 99, 161, 186), and to 1
        # for the other sizes here
        lam = 1.0 / len(labels)
        assert (1.0 - (1.0 / lam) * lam != 0.0) == (len(labels) == 93)
        model, weights, biases = assert_matches_reference(
            x, labels, TrainConfig(epochs=epochs, seed=n_cls + 1))
        held_x, held_labels = bow_rows(n_cls, 4, dense=dense, seed=n_cls + 1000)
        got = ovr_objective(model.weights, model.biases, model.labels, held_x, held_labels, lam)
        want = ovr_objective(weights, biases, model.labels, held_x, held_labels, lam)
        assert abs(got - want) <= 1e-12 * abs(want)
        assert np.array_equal(np.argmax(decision_scores(model, held_x), axis=1),
                              np.argmax(held_x @ weights.T + biases, axis=1))


class TestTrainConfig:
    @pytest.mark.parametrize("c_reg", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_c_reg_must_be_positive_and_finite(self, c_reg):
        with pytest.raises(ValueError, match="c_reg must be positive and finite"):
            TrainConfig(c_reg=c_reg)

    @pytest.mark.parametrize("epochs", [2.5, 3.0, "3"])
    def test_epochs_must_be_an_integer(self, epochs):
        with pytest.raises(ValueError, match="epochs must be an integer"):
            TrainConfig(epochs=epochs)

    def test_numpy_integer_epochs_accepted(self):
        assert TrainConfig(epochs=np.int64(3)).epochs == 3


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

    @pytest.mark.parametrize("labels", [["b", "a"], ["a", "a"]], ids=["unsorted", "repeated"])
    def test_load_rejects_labels_not_strictly_ascending(self, tmp_path, labels):
        path = tmp_path / "m.bin"
        binfile.write(path, MODEL_MAGIC, MODEL_VERSION, struct.pack("<2I", 2, 3),
                      *map(binfile.pack_str, labels), np.zeros(8, dtype="<f8"))
        with pytest.raises(ValueError, match="strictly ascending"):
            load_model(path)


class TestLinearModel:
    def test_one_dimensional_weights_rejected(self):
        with pytest.raises(ValueError, match=r"weights must be \(C, k\)"):
            LinearModel(np.zeros(3), np.zeros(3), ["a", "b", "c"])

    def test_weights_row_count_must_match_labels(self):
        with pytest.raises(ValueError, match=r"weights must be \(C, k\)"):
            LinearModel(np.zeros((3, 4)), np.zeros(2), ["a", "b"])

    @pytest.mark.parametrize("labels", [["b", "a"], ["a", "a"], ["a", "c", "b"]])
    def test_labels_must_be_strictly_ascending(self, labels):
        with pytest.raises(ValueError, match="strictly ascending"):
            LinearModel(np.zeros((len(labels), 2)), np.zeros(len(labels)), labels)
