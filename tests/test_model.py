"""Assembly of the seven-stage stack: shapes, counts, determinism,
serialization, and full-model gradients."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import hyperts.model as model_mod
from conftest import check_model_gradients
from hyperts.model import (INFER_ROWS, SPEC_FIELDS, Model, ModelSpec, build,
                           load_model, min_window)
from hyperts.nn import ShapeError
from hyperts.search import Grid, enumerate_specs
from hyperts.train import Adam, TrainConfig, fit


def spec_for(kind, size, algebra=None, n_dense1=0, n_dense2=0, dense_units=8,
             dense_activation="linear", window=10, span=1, seed=0):
    return ModelSpec(kind=kind, size=size, algebra=algebra,
                     n_dense1=n_dense1, n_dense2=n_dense2,
                     dense_units=dense_units,
                     dense_activation=dense_activation,
                     window=window, span=span, seed=seed)


class TestBuild:
    def test_hyper_total_params(self):
        # hyper(1): 4*1*1+4*1 = 8; pool halves 10 -> 5 steps of width 4;
        # flatten 20; output dense 20*1+1 = 21; total 29
        model = build(spec_for("hyper", 1, "quaternion"))
        assert model.param_count() == 29

    def test_cnn_total_params(self):
        # conv 8*3*4+8 = 104 -> [8,8] -> pool [4,8] -> flat 32 -> dense 33
        model = build(spec_for("cnn", 8))
        assert model.param_count() == 137

    def test_lstm_total_params(self):
        # lstm 4*(4*8+64+8) = 416 -> [10,8] -> pool [5,8] -> flat 40 -> 41
        model = build(spec_for("lstm", 8))
        assert model.param_count() == 457

    def test_optional_dense_layers_add_params(self):
        base = build(spec_for("hyper", 1, "quaternion")).param_count()
        with_d2 = build(spec_for("hyper", 1, "quaternion", n_dense2=1,
                                 dense_units=8)).param_count()
        # dense2 on flat 20: 20*8+8 = 168; output dense becomes 8*1+1 = 9
        assert with_d2 == 8 + 168 + 9

    def test_same_seed_same_weights(self):
        a = build(spec_for("cnn", 8, n_dense1=1, seed=123))
        b = build(spec_for("cnn", 8, n_dense1=1, seed=123))
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_different_weights(self):
        a = build(spec_for("cnn", 8, seed=1))
        b = build(spec_for("cnn", 8, seed=2))
        assert any(not np.array_equal(pa, pb)
                   for pa, pb in zip(a.params(), b.params()))

    def test_window_too_small_rejected_with_minimum(self):
        assert min_window("cnn") == 4
        with pytest.raises(ShapeError, match="minimum is 4"):
            build(spec_for("cnn", 8, window=3))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            spec_for("hyper", 1, algebra=None)
        with pytest.raises(ValueError):
            spec_for("cnn", 8, algebra="quaternion")
        with pytest.raises(ValueError):
            spec_for("cnn", 8, window=1)
        with pytest.raises(ValueError):
            spec_for("cnn", 8, span=0)


class TestForward:
    def test_output_shapes(self, rng):
        for kind, size, alg in [("cnn", 8, None), ("lstm", 4, None),
                                ("hyper", 2, "cl11")]:
            model = build(spec_for(kind, size, alg, span=5))
            out = model.forward(rng.normal(size=(1, 10, 4)))
            assert out.shape == (1, 5)
            out = model.forward(rng.normal(size=(7, 10, 4)))
            assert out.shape == (7, 5)

    def test_zero_final_dense_gives_zero_output(self, rng):
        model = build(spec_for("hyper", 2, "quaternion"))
        model.layers[-1].w[...] = 0.0
        model.layers[-1].b[...] = 0.0
        out = model.forward(rng.normal(size=(1, 10, 4)))
        np.testing.assert_array_equal(out, np.zeros((1, 1)))

    def test_inference_is_deterministic(self, rng):
        model = build(spec_for("cnn", 8, n_dense2=1))
        x = rng.normal(size=(1, 10, 4))
        np.testing.assert_array_equal(model.forward(x), model.forward(x))

    def test_matches_manual_layer_composition(self, rng):
        model = build(spec_for("lstm", 3, n_dense1=1, n_dense2=1,
                               dense_activation="relu"))
        x = rng.normal(size=(1, 10, 4))
        want = x
        for lyr in model.layers:
            want = lyr.forward(want, training=False)
        np.testing.assert_array_equal(model.forward(x), want)

    def test_rejects_wrong_shape(self, rng):
        model = build(spec_for("cnn", 8))
        with pytest.raises(ShapeError):
            model.forward(rng.normal(size=(1, 9, 4)))
        with pytest.raises(ShapeError):
            model.forward(rng.normal(size=(1, 10, 3)))

    def test_rejects_single_window(self, rng):
        model = build(spec_for("cnn", 8))
        with pytest.raises(ShapeError, match=r"\[batch, 10, 4\].*\(10, 4\)"):
            model.forward(rng.normal(size=(10, 4)))


class TestBackward:
    def test_backward_before_forward_rejected(self):
        model = build(spec_for("cnn", 8))
        with pytest.raises(RuntimeError):
            model.backward(np.zeros((1, 1)))

    def test_zero_upstream_gives_zero_grads(self, rng):
        model = build(spec_for("hyper", 2, "coquaternion", n_dense2=1))
        model.forward(rng.normal(size=(1, 10, 4)))
        model.backward(np.zeros((1, 1)))
        for g in model.grads():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_rejects_single_window_gradient(self, rng):
        model = build(spec_for("lstm", 3, span=2))
        model.forward(rng.normal(size=(1, 10, 4)))
        with pytest.raises(ShapeError, match=r"\(2,\) does not match output"
                                             r" shape \(1, 2\)"):
            model.backward(rng.normal(size=2))

    def test_grad_shapes_match_param_shapes(self, rng):
        model = build(spec_for("lstm", 3, n_dense1=1))
        model.forward(rng.normal(size=(4, 10, 4)))
        model.backward(rng.normal(size=(4, 1)))
        for p, g in zip(model.params(), model.grads()):
            assert p.shape == g.shape

    @pytest.mark.parametrize("kind,size,alg", [
        ("cnn", 3, None), ("lstm", 3, None), ("hyper", 2, "quaternion"),
        ("hyper", 2, "coquaternion"), ("hyper", 2, "cl11")])
    def test_full_model_finite_differences(self, kind, size, alg, rng):
        spec = spec_for(kind, size, alg, n_dense1=1, n_dense2=1,
                        dense_units=4, dense_activation="relu", window=8,
                        span=2, seed=5)
        check_model_gradients(build(spec), rng.normal(size=(3, 8, 4)), rng)

    def test_param_count_invariant_under_training_steps(self, rng):
        model = build(spec_for("cnn", 4))
        n = model.param_count()
        x = rng.normal(size=(6, 10, 4))
        model.forward(x, training=True)
        model.backward(rng.normal(size=(6, 1)))
        for p, g in zip(model.params(), model.grads()):
            p -= 0.01 * g
        assert model.param_count() == n


class TestSerialization:
    def test_round_trip_bit_identical_forward(self, tmp_path, rng):
        model = build(spec_for("hyper", 2, "cl11", n_dense1=1, n_dense2=1,
                               dense_activation="relu", seed=17))
        x = rng.normal(size=(5, 10, 4))
        want = model.forward(x)
        path = tmp_path / "weights.json"
        model.save(path)
        clone = load_model(path)
        got = clone.forward(x)
        np.testing.assert_array_equal(got, want)

    def test_doc_lists_every_param(self):
        model = build(spec_for("lstm", 2))
        doc = model.to_doc()
        assert len(doc["params"]) == sum(len(l.params())
                                         for l in model.layers)
        for entry in doc["params"]:
            assert len(entry["values"]) == int(np.prod(entry["shape"]))

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_save_writes_the_doc_as_one_json_text(self, chunk, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(model_mod, "SAVE_CHUNK", chunk)
        model = build(spec_for("cnn", 3, n_dense1=1, n_dense2=1, seed=5))
        model.save(tmp_path / "weights.json")
        assert (tmp_path / "weights.json").read_text() == \
            json.dumps(model.to_doc())

    @staticmethod
    def saved_doc(tmp_path, doc):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(doc))
        return path

    def test_load_rejects_wrongly_shaped_entry(self, tmp_path):
        doc = build(spec_for("hyper", 2, "quaternion", span=8)).to_doc()
        entry = doc["params"][-1]
        assert (entry["param"], entry["shape"]) == ("b", [8])
        entry.update(shape=[1], values=[0.25])
        with pytest.raises(ValueError, match=r"04_dense\.b: document shape"
                                             r" \(1,\) != layer shape \(8,\)"):
            load_model(self.saved_doc(tmp_path, doc))

    def test_load_rejects_wrong_value_count(self, tmp_path):
        doc = build(spec_for("hyper", 2, "quaternion", span=8)).to_doc()
        doc["params"][-1]["values"] = [0.25] * 3
        with pytest.raises(ValueError, match=r"04_dense\.b: document has 3"
                                             r" values for shape \(8,\)"):
            load_model(self.saved_doc(tmp_path, doc))

    def test_load_rejects_missing_entry(self, tmp_path):
        doc = build(spec_for("hyper", 2, "quaternion", span=8)).to_doc()
        doc["params"].pop()
        with pytest.raises(ValueError,
                           match=r"04_dense\.b: no entry in the document"):
            load_model(self.saved_doc(tmp_path, doc))

    @pytest.mark.parametrize("key", ["layer", "param", "shape", "values"])
    def test_load_rejects_entry_without_a_field(self, key, tmp_path):
        doc = build(spec_for("hyper", 2, "quaternion")).to_doc()
        del doc["params"][1][key]
        with pytest.raises(ValueError,
                           match=rf"^params\[1\]: no {key} in the document$"):
            load_model(self.saved_doc(tmp_path, doc))

    def test_load_rejects_empty_entry(self, tmp_path):
        doc = build(spec_for("hyper", 2, "quaternion")).to_doc()
        doc["params"][0] = {}
        with pytest.raises(ValueError, match=r"^params\[0\]: no layer or"
                                             r" param or shape or values"):
            load_model(self.saved_doc(tmp_path, doc))

    def test_load_rejects_unmatched_entry(self, tmp_path):
        doc = build(spec_for("hyper", 2, "quaternion")).to_doc()
        doc["params"].append(dict(doc["params"][-1], layer="05_dense"))
        with pytest.raises(ValueError, match=r"unmatched parameters in"
                           r" document: \[\('05_dense', 'b'\)\]"):
            load_model(self.saved_doc(tmp_path, doc))

    @pytest.mark.parametrize("doc,missing", [
        ({}, "spec or params"),
        ({"spec": spec_for("hyper", 2, "quaternion").to_json_dict()},
         "params"),
    ], ids=["empty", "spec-only"])
    def test_load_rejects_document_without_spec_or_params(self, doc, missing,
                                                          tmp_path):
        path = self.saved_doc(tmp_path, doc)
        with pytest.raises(ValueError,
                           match=f"no {missing} in the document$") as info:
            load_model(path)
        assert str(path) in str(info.value)

    def test_load_rejects_document_that_is_not_an_object(self, tmp_path):
        path = self.saved_doc(tmp_path, [])
        with pytest.raises(ValueError, match="not a JSON object$") as info:
            load_model(path)
        assert str(path) in str(info.value)

    def test_load_rejects_spec_without_fields(self, tmp_path):
        path = self.saved_doc(tmp_path, {"spec": {"test_layer": "cnn:2"},
                                         "params": []})
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == (
            'spec {"test_layer":"cnn:2"}: no n_dense1 or n_dense2 or'
            ' dense_units or dense_activation or window or span or seed in'
            ' the document')

    @pytest.mark.parametrize("field", SPEC_FIELDS)
    def test_spec_without_a_field_names_it(self, field):
        doc = spec_for("hyper", 2, "quaternion").to_json_dict()
        del doc[field]
        with pytest.raises(ValueError,
                           match=f"^spec {{.*}}: no {field} in the document$"):
            ModelSpec.from_json_dict(doc)

    @pytest.mark.parametrize("test_layer", ["hyper:8", "cnn", "cnn:8:cl11", 8])
    def test_malformed_test_layer_names_the_spec(self, test_layer):
        doc = dict(spec_for("cnn", 8).to_json_dict(), test_layer=test_layer)
        with pytest.raises(ValueError, match=f"^spec {{.*}}: test_layer is"
                           f" not kind:size or hyper:size:algebra$"):
            ModelSpec.from_json_dict(doc)

    def test_spec_json_round_trip(self):
        specs = [spec for kind in ("cnn", "lstm", "hyper")
                 for spec in enumerate_specs(Grid.default(kind), window=20,
                                             span=5, seed=9)]
        assert len(specs) == 125 + 125 + 450
        for spec in specs:
            doc = json.loads(json.dumps(spec.to_json_dict()))
            assert list(doc) == list(SPEC_FIELDS)
            assert ModelSpec.from_json_dict(doc) == spec

    def test_canonical_is_stable(self):
        spec = spec_for("cnn", 8)
        assert spec.canonical() == spec.canonical()
        assert spec.stable_id() == \
            dataclasses.replace(spec).stable_id()


LINKED_SPECS = [
    ("cnn", 4, None), ("lstm", 3, None), ("hyper", 2, "coquaternion")]


def assert_vectors_linked(model):
    """Every layer's named arrays are views of the model's two vectors,
    which hold them back to back in layer order."""
    (params,), (grads,) = model.params(), model.grads()
    assert params.shape == grads.shape == (model.param_count(),)
    for lyr in model.layers:
        for p, g in zip(lyr.params(), lyr.grads()):
            assert np.shares_memory(p, params)
            assert np.shares_memory(g, grads)
    for vector, arrays in ((params, [p for l in model.layers
                                     for p in l.params()]),
                           (grads, [g for l in model.layers
                                    for g in l.grads()])):
        np.testing.assert_array_equal(
            vector, np.concatenate([a.reshape(-1) for a in arrays]))


class TestParameterVectors:
    @pytest.mark.parametrize("kind,size,alg", LINKED_SPECS)
    def test_linked_after_build(self, kind, size, alg):
        assert_vectors_linked(build(spec_for(kind, size, alg, n_dense1=1,
                                             n_dense2=1)))

    @pytest.mark.parametrize("kind,size,alg", LINKED_SPECS)
    def test_linked_after_load_model(self, kind, size, alg, tmp_path):
        model = build(spec_for(kind, size, alg, n_dense1=1, seed=3))
        model.params()[0][...] += 0.5
        model.save(tmp_path / "weights.json")
        clone = load_model(tmp_path / "weights.json")
        assert_vectors_linked(clone)
        np.testing.assert_array_equal(clone.params()[0], model.params()[0])

    @pytest.mark.parametrize("kind,size,alg", LINKED_SPECS)
    def test_linked_after_fit(self, kind, size, alg, rng):
        model = build(spec_for(kind, size, alg, n_dense2=1, span=2))
        before = model.params()[0].copy()
        fit(model, rng.normal(size=(20, 10, 4)), rng.normal(size=(20, 2)),
            TrainConfig(epochs=2, batch_size=8, seed=1))
        assert_vectors_linked(model)
        assert not np.array_equal(model.params()[0], before)

    @pytest.mark.parametrize("name", ["w", "dw"])
    def test_fit_rejects_rebound_array(self, name, rng):
        model = build(spec_for("hyper", 2, "quaternion"))
        last = model.layers[-1]
        setattr(last, name, getattr(last, name).copy())
        with pytest.raises(ValueError, match=rf"04_dense\.{name} was rebound"):
            fit(model, rng.normal(size=(8, 10, 4)), rng.normal(size=(8, 1)),
                TrainConfig(epochs=2, batch_size=4))


STACK_KINDS = [("cnn", 3, None), ("lstm", 3, None), ("hyper", 2, "quaternion"),
               ("hyper", 1, "coquaternion"), ("hyper", 2, "cl11")]


def members_of(kind, size, alg, seeds=(1, 2, 3)):
    """Fresh models of one spec, every layer class in it, one per seed."""
    return [build(spec_for(kind, size, alg, n_dense1=1, n_dense2=1,
                           dense_units=4, dense_activation="relu", window=8,
                           span=2, seed=seed)) for seed in seeds]


class TestStack:
    @pytest.mark.parametrize("kind,size,alg", STACK_KINDS)
    def test_members_view_their_rows(self, kind, size, alg):
        members = members_of(kind, size, alg)
        before = [m.params()[0].copy() for m in members]
        stacked = Model.stack(members)
        (params,), (grads,) = stacked.params(), stacked.grads()
        assert params.shape == grads.shape == (3, members[0].param_count())
        assert stacked.param_count() == members[0].param_count()
        for row, (member, values) in enumerate(zip(members, before)):
            assert_vectors_linked(member)
            assert np.shares_memory(member.params()[0], params[row])
            assert np.shares_memory(member.grads()[0], grads[row])
            np.testing.assert_array_equal(params[row], values)

    @pytest.mark.parametrize("kind,size,alg", STACK_KINDS)
    def test_finite_differences(self, kind, size, alg, rng):
        stacked = Model.stack(members_of(kind, size, alg, seeds=(5, 6)))
        check_model_gradients(stacked, rng.normal(size=(2, 3, 8, 4)), rng)

    @pytest.mark.parametrize("kind,size,alg", STACK_KINDS)
    def test_nan_in_one_member_leaves_the_others_bit_equal(self, kind, size,
                                                           alg, rng):
        x = rng.normal(size=(3, 6, 8, 4))
        y = rng.normal(size=(3, 6, 2))

        def one_step(poison):
            members = members_of(kind, size, alg)
            if poison:
                members[1].layers[0].w.flat[0] = np.nan
            stacked = Model.stack(members)
            out = stacked.forward(x, training=True)
            stacked.backward(out - y)
            grads = stacked.grads()[0].copy()
            Adam(stacked.params(), lr=1e-2).step(stacked.grads())
            return out, grads, stacked.params()[0]

        clean, poisoned = one_step(False), one_step(True)
        for a, b in zip(clean, poisoned):
            assert np.isnan(b[1]).any()
            for row in (0, 2):
                assert np.array_equal(a[row].view(np.int64),
                                      b[row].view(np.int64))

    def test_rejects_input_without_the_member_axis(self, rng):
        stacked = Model.stack(members_of("cnn", 3, None))
        with pytest.raises(ShapeError, match=r"members=3, batch, 8, 4"):
            stacked.forward(rng.normal(size=(6, 8, 4)))


CHUNK_KINDS = [("cnn", 4, None), ("lstm", 3, None), ("hyper", 2, "quaternion"),
               ("hyper", 2, "coquaternion"), ("hyper", 2, "cl11")]


def chunk_model(kind, size, alg, dense):
    return build(spec_for(kind, size, alg, n_dense1=dense, n_dense2=dense,
                          dense_units=8, dense_activation="relu", span=2,
                          seed=9))


def bits(a):
    return a.shape, a.dtype, a.tobytes()


class TestChunkedInference:
    @pytest.mark.parametrize("n", [INFER_ROWS, INFER_ROWS + 1,
                                   2 * INFER_ROWS + 37])
    @pytest.mark.parametrize("dense", [0, 1])
    @pytest.mark.parametrize("kind,size,alg", CHUNK_KINDS)
    def test_equals_a_loop_over_the_parts(self, kind, size, alg, dense, n,
                                          rng):
        model = chunk_model(kind, size, alg, dense)
        x = rng.normal(size=(n, 10, 4))
        parts = np.array_split(x, -(-n // INFER_ROWS))
        assert min(len(p) for p in parts) >= INFER_ROWS // 2
        want = np.concatenate([model.forward(p) for p in parts])
        assert bits(model.forward(x)) == bits(want)

    def test_stacked_model_chunks_along_the_batch_axis(self, rng):
        stacked = Model.stack(members_of("lstm", 3, None, seeds=(1, 2)))
        x = rng.normal(size=(2, INFER_ROWS + 1, 8, 4))
        want = np.concatenate([stacked.forward(p) for p in
                               np.array_split(x, 2, axis=1)], axis=1)
        assert bits(stacked.forward(x)) == bits(want)

    def test_one_chunk_keeps_the_caches_for_backward(self, rng):
        model = chunk_model("lstm", 3, None, 1)
        model.forward(rng.normal(size=(INFER_ROWS, 10, 4)))
        dx = model.backward(rng.normal(size=(INFER_ROWS, 2)))
        assert dx.shape == (INFER_ROWS, 10, 4)
        assert np.any(model.grads()[0] != 0)

    @pytest.mark.parametrize("kind,size,alg", CHUNK_KINDS)
    def test_several_chunks_leave_no_cache(self, kind, size, alg, rng):
        model = chunk_model(kind, size, alg, 1)
        model.forward(rng.normal(size=(INFER_ROWS + 1, 10, 4)))
        assert all(lyr._cache is None for lyr in model.layers)
        with pytest.raises(RuntimeError, match="backward called before"):
            model.backward(rng.normal(size=(INFER_ROWS + 1, 2)))

    @pytest.mark.parametrize("kind,size,alg", CHUNK_KINDS)
    def test_training_forward_is_one_pass(self, kind, size, alg, rng):
        x = rng.normal(size=(600, 10, 4))
        upstream = rng.normal(size=(600, 2))
        model, manual = (chunk_model(kind, size, alg, 1) for _ in range(2))
        model.forward(x, training=True)
        dx = model.backward(upstream)
        want_x, want_dx = x, upstream
        for lyr in manual.layers:
            want_x = lyr.forward(want_x, training=True)
        for lyr in reversed(manual.layers):
            want_dx = lyr.backward(want_dx)
        assert bits(dx) == bits(want_dx)
        assert bits(model.grads()[0]) == bits(manual.grads()[0])


def inference_peak(model, n, rng) -> int:
    """Bytes that ``model.forward`` over ``n`` windows allocates at its
    peak, beyond what was allocated before the call."""
    x = rng.normal(size=(n, model.spec.window, 4))
    model.forward(x[:2])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.forward(x)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind,size,alg,window", [
    ("hyper", 32, "quaternion", 10), ("lstm", 16, None, 40)])
def test_inference_memory_does_not_grow_with_windows(kind, size, alg, window,
                                                     rng):
    model = build(spec_for(kind, size, alg, n_dense1=1, n_dense2=1,
                           dense_units=32, window=window))
    one = inference_peak(model, INFER_ROWS, rng)
    eight = inference_peak(model, 8 * INFER_ROWS, rng)
    assert eight <= 2 * one, f"{eight / one:.2f}x the one-chunk peak"
