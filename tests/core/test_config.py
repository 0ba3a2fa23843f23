"""Typed configuration layer: enums, QueryOptions, EngineConfig."""

import dataclasses

import pytest

from repro import EngineConfig, Method, QueryOptions
from repro.core.config import coerce_options


class TestEnums:
    def test_string_coercion(self):
        assert Method.coerce("exact") is Method.EXACT

    def test_coercion_is_case_insensitive(self):
        assert Method.coerce("EXACT") is Method.EXACT
        assert Method.coerce("Approx") is Method.APPROX

    def test_enum_passthrough(self):
        assert Method.coerce(Method.APPROX) is Method.APPROX

    def test_unknown_values_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'fuzzy'"):
            Method.coerce("fuzzy")
        assert [method.value for method in Method] == ["approx", "exact"]

    def test_str_mixin(self):
        # Enums render as their value (log/CLI friendly) and compare to it.
        assert str(Method.EXACT) == "exact"
        assert Method.EXACT == "exact"


class TestQueryOptions:
    def test_defaults(self):
        opts = QueryOptions()
        assert opts.method is Method.APPROX

    def test_one_field(self):
        # The kernels are not a choice: numpy is the engine, and
        # repro.oracle is the scalar reference tests compare it with.
        # Nor is the pipeline: Sections 4 and 7 are reference code.
        assert [f.name for f in dataclasses.fields(QueryOptions)] == ["method"]

    def test_strings_coerce_in_constructor(self):
        opts = QueryOptions(method="exact")
        assert opts.method is Method.EXACT

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            QueryOptions(method="fuzzy")

    def test_mode_is_not_an_option(self):
        # One pipeline: Section 4's baseline is core.baseline's
        # reference code, Section 7's search repro.oracle's.
        with pytest.raises(TypeError):
            QueryOptions(mode="baseline")

    def test_backend_is_not_an_option(self):
        with pytest.raises(TypeError):
            QueryOptions(backend="python")

    def test_workers_is_not_an_option(self):
        # Parallelism belongs to a ShardedEngine's lanes, not to a query.
        with pytest.raises(TypeError):
            QueryOptions(workers=2)

    def test_frozen(self):
        opts = QueryOptions()
        with pytest.raises(AttributeError):
            opts.method = Method.EXACT

    def test_with_(self):
        opts = QueryOptions().with_(method="exact")
        assert opts.method is Method.EXACT
        assert QueryOptions().method is Method.APPROX  # original untouched

    def test_shared_default(self):
        """Regression: query defaulted "python", query_batch None.

        Both entry points now resolve through this one default; pinning
        it here keeps them from drifting apart again.
        """
        default = QueryOptions.default()
        assert default == QueryOptions()
        assert default.method is Method.APPROX


class TestSharedDefaultAcrossEntryPoints:
    def test_query_and_query_batch_use_the_same_default(self, monkeypatch):
        """Both kwarg-less entry points must plan with QueryOptions.default()."""
        import random

        import repro.core.batch as batch_mod
        import repro.core.engine as engine_mod
        from repro import Dataset, MaxBRSTkNNEngine

        from ..conftest import make_random_objects, make_random_users

        rng = random.Random(3)
        dataset = Dataset(
            make_random_objects(40, 12, rng),
            make_random_users(8, 12, rng),
            relevance="LM",
            alpha=0.5,
        )
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        from repro.core.query import MaxBRSTkNNQuery
        from repro.model.objects import STObject
        from repro.spatial.geometry import Point

        query = MaxBRSTkNNQuery(
            ox=STObject(item_id=-1, location=Point(1.0, 1.0), terms={}),
            locations=[Point(2.0, 2.0)],
            keywords=[0, 1, 2],
            ws=1,
            k=2,
        )

        seen = []
        real_plan_batch = batch_mod.plan_batch
        for module in (engine_mod, batch_mod):
            monkeypatch.setattr(
                module, "plan_batch",
                lambda opts, caps, ks, **kw: (
                    seen.append(opts) or real_plan_batch(opts, caps, ks, **kw)
                ),
            )
        engine.query(query)
        engine.query_batch([query])
        assert seen == [QueryOptions.default(), QueryOptions.default()]


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.buffer_pages == 0
        assert [f.name for f in dataclasses.fields(config)] == [
            "fanout", "buffer_pages", "num_shards", "use_shm",
        ]
        with pytest.raises(TypeError):
            EngineConfig(index_users=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(fanout=1)
        with pytest.raises(ValueError):
            EngineConfig(buffer_pages=-1)

    @pytest.mark.parametrize("kwargs", [
        # bool is an int subclass: EngineConfig(fanout=True) would
        # otherwise sail through as fanout=1's neighbor.
        {"fanout": True},
        {"buffer_pages": True},
        {"num_shards": True},
        {"use_shm": 1},
    ])
    def test_bools_are_not_ints(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_engine_accepts_config(self, tiny_dataset):
        from repro import MaxBRSTkNNEngine

        engine = MaxBRSTkNNEngine(tiny_dataset, EngineConfig(fanout=4))
        assert engine.config.fanout == 4
        assert engine.object_tree.fanout == 4

    @pytest.mark.parametrize("args, kwargs", [
        pytest.param((4,), {}, id="positional-fanout"),
        pytest.param((), {"fanout": 4}, id="fanout-kwarg"),
        pytest.param((), {"index_users": True}, id="index_users-kwarg"),
        pytest.param((), {"buffer_pages": 8}, id="buffer_pages-kwarg"),
        pytest.param((EngineConfig(),), {"fanout": 8}, id="config-plus-kwarg"),
    ])
    def test_engine_legacy_forms_raise(self, tiny_dataset, args, kwargs):
        """``config=EngineConfig(...)`` is the one way to configure an
        engine: the old kwargs and the positional fanout are gone."""
        from repro import MaxBRSTkNNEngine

        with pytest.raises(TypeError):
            MaxBRSTkNNEngine(tiny_dataset, *args, **kwargs)

    def test_engine_rejects_wrong_config_type(self, tiny_dataset):
        from repro import MaxBRSTkNNEngine

        with pytest.raises(TypeError):
            MaxBRSTkNNEngine(tiny_dataset, "fast")


class TestCoerceOptions:
    def test_none_yields_default(self):
        assert coerce_options(None) == QueryOptions.default()

    def test_options_passthrough(self):
        opts = QueryOptions(method="exact")
        assert coerce_options(opts) is opts

    @pytest.mark.parametrize("value", [42, "exact", {"method": "exact"}])
    def test_wrong_type_rejected(self, value):
        with pytest.raises(TypeError, match="must be a QueryOptions"):
            coerce_options(value)

    def test_options_plus_legacy_rejected(self):
        with pytest.raises(TypeError):
            coerce_options(QueryOptions(), method="exact")

    def test_positional_string_plus_method_kwarg_rejected(self):
        with pytest.raises(TypeError):
            coerce_options("exact", method="approx")

    @staticmethod
    def _engine_and_query(dataset, sharded):
        from repro.core.query import MaxBRSTkNNQuery
        from repro.model.objects import STObject
        from repro.serve import make_engine
        from repro.spatial.geometry import Point

        engine = make_engine(dataset, EngineConfig(num_shards=2 if sharded else 1))
        query = MaxBRSTkNNQuery(
            ox=STObject(item_id=-1, location=Point(1.0, 1.0), terms={}),
            locations=[Point(2.0, 2.0), Point(5.0, 5.0)],
            keywords=[0, 1, 2],
            ws=1,
            k=2,
        )
        return engine, query

    @pytest.mark.parametrize(
        "legacy",
        [
            pytest.param(("exact",), id="positional-method-string"),
            *(
                pytest.param({kwarg: None}, id=f"{kwarg}-kwarg")
                for kwarg in ("method", "mode", "backend", "workers", "pool")
            ),
        ],
    )
    @pytest.mark.parametrize("entry", ["query", "query_batch"])
    @pytest.mark.parametrize("sharded", [False, True])
    def test_query_entry_points_take_only_query_options(
        self, tiny_dataset, sharded, entry, legacy
    ):
        """The string-kwarg API is gone on both engines: a positional
        method string is a TypeError, and loose kwargs are unknown
        arguments."""
        engine, query = self._engine_and_query(tiny_dataset, sharded)
        call = getattr(engine, entry)
        arg = query if entry == "query" else [query]
        with pytest.raises(TypeError):
            if isinstance(legacy, tuple):
                call(arg, *legacy)
            else:
                call(arg, **legacy)

    @pytest.mark.parametrize("sharded", [False, True])
    def test_query_options_answer_positionally(self, tiny_dataset, sharded):
        engine, query = self._engine_and_query(tiny_dataset, sharded)
        exact = QueryOptions(method="exact")
        assert engine.query(query, exact).location == engine.query_batch(
            [query], exact
        )[0].location
