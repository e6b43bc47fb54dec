"""The parameter arena: the flat in-place Adam against the per-parameter
oracle, parameter views that stay aliased to the arena, and its lifetime."""

import gc
import weakref

import numpy as np
import pytest

import concept_parse.autodiff as ad
from concept_parse.data import tags_from_records
from concept_parse.errors import NonFiniteError, ShapeError
from concept_parse.model import ConceptModel
from concept_parse.training import batch_nll_tensor

from helpers import (TINY, build_model, parameter, records_from_rows,
                     reference_adam_step, two_domain_rows)


@pytest.fixture(scope="module")
def corpus():
    return records_from_rows(two_domain_rows(12, seed=0))


def backward_on(model, batch):
    tags = tags_from_records(batch)
    ad.backward(batch_nll_tensor(model, batch, tags, model.encode_concepts_tensor(tags)))


def assert_views_of_one_arena(model):
    params = model.parameters().values()
    arena = next(iter(params)).arena
    for p in params:
        assert p.arena is arena, p.name
        assert np.shares_memory(p.data, arena.data), p.name
        assert np.shares_memory(p.grad, arena.grad), p.name


class TestFlatAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_bit_equal_to_per_parameter_oracle(self, corpus, precision, weight_decay):
        flat = build_model(corpus, seed=1, precision=precision, **TINY)
        oracle = build_model(corpus, seed=1, precision=precision, **TINY)
        state = {}
        for step in range(6):
            batch = corpus[4 * step:4 * step + 4]
            lr = 1e-3 * (step + 1)
            backward_on(flat, batch)
            backward_on(oracle, batch)
            for name, p in flat.parameters().items():
                assert p.grad.tobytes() == oracle.params[name].grad.tobytes(), name
            ad.adam_step(flat.parameters().values(), lr, weight_decay=weight_decay)
            reference_adam_step(oracle.parameters().values(), state, lr,
                                weight_decay=weight_decay)
            for name, p in flat.parameters().items():
                assert p.data.tobytes() == oracle.params[name].data.tobytes(), (step, name)
                assert not p.grad.any(), name

    def test_part_of_an_arena_is_refused(self, corpus):
        model = build_model(corpus, seed=1, **TINY)
        before = model.value_buffer().copy()
        params = list(model.parameters().values())
        for p in params:
            p.grad.fill(1)
        with pytest.raises(ValueError, match="whole arenas"):
            ad.adam_step(params[1:], lr=1e-3)
        assert np.array_equal(before, model.value_buffer())

    def test_no_parameters_are_refused(self):
        with pytest.raises(ValueError, match="whole arenas"):
            ad.adam_step([], lr=1e-3)

    def test_two_whole_arenas_are_refused(self):
        params = [*ad.arena_parameters({"a": (2, 3)}, np.float32).values(),
                  *ad.arena_parameters({"b": (4,)}, np.float32).values()]
        for p in params:
            p.grad.fill(1)
        with pytest.raises(ValueError, match="whole arenas"):
            ad.adam_step(params, lr=1e-3)
        assert not any(p.data.any() or p.arena.step for p in params)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_gradient_is_refused_before_any_write(self, corpus, value):
        model = build_model(corpus, seed=1, **TINY)
        backward_on(model, corpus[:4])
        ad.adam_step(model.parameters().values(), lr=1e-3, weight_decay=0.01)
        backward_on(model, corpus[4:8])
        arena = model.params["decoder.bos"].arena
        arena.grad[7] = value
        before = [buffer.tobytes() for buffer in (arena.data, arena.grad, arena.m, arena.v)]
        with pytest.raises(NonFiniteError, match="Adam step 2"):
            ad.adam_step(model.parameters().values(), lr=1e-3, weight_decay=0.01)
        assert arena.step == 1
        assert [buffer.tobytes() for buffer in (arena.data, arena.grad, arena.m, arena.v)] \
            == before


class TestViews:
    def test_views_survive_step_restore_and_assignment(self, corpus):
        model = build_model(corpus, seed=1, **TINY)
        saved = model.value_buffer().copy()
        backward_on(model, corpus[:4])
        ad.adam_step(model.parameters().values(), lr=1e-3, weight_decay=0.01)
        assert_views_of_one_arena(model)
        assert not np.array_equal(saved, model.value_buffer())
        model.value_buffer()[...] = saved
        assert_views_of_one_arena(model)
        assert all(np.array_equal(saved[p.span].reshape(p.data.shape), p.data)
                   for p in model.parameters().values())
        p = model.params["decoder.bos"]
        p.data = np.ones_like(p.data)
        p.grad = np.full_like(p.grad, 2.0)
        assert_views_of_one_arena(model)
        assert np.all(p.arena.data[p.span] == 1.0)
        assert np.all(p.arena.grad[p.span] == 2.0)

    def test_views_survive_load(self, tmp_path, corpus):
        model = build_model(corpus, seed=1, **TINY)
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = ConceptModel.load(path)
        assert_views_of_one_arena(loaded)
        for name, p in model.parameters().items():
            assert p.data.tobytes() == loaded.params[name].data.tobytes(), name

    def test_assignment_of_another_shape_is_refused(self):
        p = parameter("p", np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="p.data"):
            p.data = np.zeros(6)
        with pytest.raises(ShapeError, match="p.grad"):
            p.grad = np.zeros((3, 2))


def test_dropped_model_frees_its_arena_without_the_cycle_collector(corpus):
    gc.collect()
    gc.disable()
    try:
        model = build_model(corpus, seed=1, **TINY)
        backward_on(model, corpus[:4])
        ad.adam_step(model.parameters().values(), lr=1e-3)
        buffer = weakref.ref(next(iter(model.parameters().values())).arena.data)
        del model
        assert buffer() is None
    finally:
        gc.enable()
