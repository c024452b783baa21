"""ExecutionConfig values and the named-backend registry."""

from dataclasses import fields

import pytest

from repro.api import (
    Backend,
    ExecutionConfig,
    available_backends,
    create_backend,
    register_backend,
)
from repro.api import backends as backends_module
from repro.core.strategy import Strategy
from repro.errors import StrategyError
from repro.simdb.database import IdealDatabase, ProfiledDatabase, SimulatedDatabase
from repro.simdb.des import Simulation
from repro.simdb.profiler import DbFunction


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.code == "PCE0"
        assert config.halt_policy == "cancel"
        assert config.query_cache is False
        assert config.backend == "ideal"
        assert dict(config.backend_options) == {}

    def test_from_code(self):
        config = ExecutionConfig.from_code("PSE80")
        assert config.strategy == Strategy.parse("PSE80")
        assert config.permitted == 80
        assert config.code == "PSE80"

    def test_from_code_with_strategy_overrides(self):
        config = ExecutionConfig.from_code("PSE80", permitted=40, cancel_unneeded=True)
        assert config.code == "PSE40"
        assert config.cancel_unneeded is True

    def test_from_code_with_config_overrides(self):
        config = ExecutionConfig.from_code(
            "PCE100", query_cache=True, halt_policy="drain", backend="bounded"
        )
        assert config.query_cache is True
        assert config.halt_policy == "drain"
        assert config.backend == "bounded"

    def test_strategy_string_coerced(self):
        assert ExecutionConfig(strategy="NCC0").code == "NCC0"

    def test_replace_config_fields(self):
        base = ExecutionConfig.from_code("PCE0")
        changed = base.replace(query_cache=True, backend="bounded")
        assert changed.query_cache and changed.backend == "bounded"
        # The original is untouched (configs are values).
        assert not base.query_cache and base.backend == "ideal"

    def test_replace_routes_strategy_fields(self):
        base = ExecutionConfig.from_code("PCE0")
        changed = base.replace(permitted=50, speculative=True)
        assert changed.code == "PSE50"
        assert base.code == "PCE0"

    def test_replace_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            ExecutionConfig().replace(bogus=1)

    def test_bad_halt_policy_rejected(self):
        with pytest.raises(ValueError, match="halt_policy"):
            ExecutionConfig(halt_policy="pause")

    def test_bad_strategy_rejected(self):
        with pytest.raises(StrategyError):
            ExecutionConfig(strategy=42)

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionConfig(backend="")

    def test_backend_options_frozen(self):
        config = ExecutionConfig(backend_options={"seed": 1})
        with pytest.raises(TypeError):
            config.backend_options["seed"] = 2

    def test_immutable(self):
        config = ExecutionConfig()
        with pytest.raises(AttributeError):
            config.halt_policy = "drain"

    def test_repr_mentions_code_and_backend(self):
        text = repr(ExecutionConfig.from_code("PSE80", query_cache=True))
        assert "PSE80" in text and "ideal" in text and "query-cache" in text

    def test_sharding_defaults(self):
        config = ExecutionConfig()
        assert config.shards == 1
        assert config.executor == "serial"

    @pytest.mark.parametrize("shards", [0, -3, 1.5, "4", True])
    def test_bad_shards_rejected_naming_the_value(self, shards):
        with pytest.raises(ValueError, match=f"shards must be an int >= 1, got {shards!r}"):
            ExecutionConfig(shards=shards)

    @pytest.mark.parametrize("executor", ["threads", "", "Serial"])
    def test_bad_executor_rejected_naming_the_value(self, executor):
        with pytest.raises(ValueError, match="executor must be one of"):
            ExecutionConfig(executor=executor)

    def test_placement_is_not_a_config_field(self):
        from repro.api import config as config_module

        with pytest.raises(TypeError):
            ExecutionConfig(placement="hash")
        with pytest.raises(ValueError, match="unknown config field"):
            ExecutionConfig(shards=2).replace(placement="hash")
        assert not hasattr(config_module, "PLACEMENTS")

    def test_sharding_fields_via_from_code_and_replace(self):
        config = ExecutionConfig.from_code("PSE80", shards=4, executor="process")
        assert (config.shards, config.executor) == (4, "process")
        reduced = config.replace(shards=2, executor="serial")
        assert (reduced.shards, reduced.executor) == (2, "serial")
        assert (config.shards, config.executor) == (4, "process")  # value semantics

    def test_repr_mentions_sharding_when_non_default(self):
        assert "shards=4xprocess" in repr(ExecutionConfig(shards=4, executor="process"))
        assert "shards" not in repr(ExecutionConfig())


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert {"ideal", "bounded", "profiled"} <= set(available_backends())

    def test_ideal_backend(self):
        backend = create_backend("ideal")
        assert isinstance(backend.database, IdealDatabase)
        assert backend.time_unit == "units"
        assert backend.database.sim is backend.simulation

    def test_bounded_backend_with_field_overrides(self):
        backend = create_backend("bounded", num_cpus=2, seed=5)
        assert isinstance(backend.database, SimulatedDatabase)
        assert backend.database.params.num_cpus == 2
        assert backend.time_unit == "ms"

    def test_bounded_rejects_params_plus_overrides(self):
        from repro.simdb.database import DbParams

        with pytest.raises(ValueError, match="not both"):
            create_backend("bounded", params=DbParams(), num_cpus=2)

    def test_profiled_backend_with_explicit_function(self):
        db = DbFunction(((1.0, 10.0), (8.0, 40.0)))
        backend = create_backend("profiled", db_function=db)
        assert isinstance(backend.database, ProfiledDatabase)
        assert backend.database.db_function is db

    def test_profiled_backend_calibrates_once_per_distinct_arguments(self, monkeypatch):
        from repro.api import backends
        from repro.simdb.database import DbParams

        calls = []
        real = backends.profile_database

        def counting(params, gmpl_levels, completions_per_level, warmup, seed, mode):
            calls.append(seed)
            return real(params, gmpl_levels, completions_per_level, warmup, seed, mode)

        monkeypatch.setattr(backends, "profile_database", counting)
        backends._calibrate.cache_clear()
        small = dict(gmpl_levels=[1, 4], completions_per_level=40, warmup=10)
        first = create_backend("profiled", **small)
        again = create_backend("profiled", params=DbParams(), **small)
        other = create_backend("profiled", seed=1, **small)
        assert calls == [0, 1]
        assert first.database.db_function is again.database.db_function
        assert first.database is not again.database  # only the calibration is shared
        assert other.database.db_function != first.database.db_function
        backends._calibrate.cache_clear()  # drop entries made through the patch

    def test_fresh_instances_per_create(self):
        first = create_backend("ideal")
        second = create_backend("ideal")
        assert first.simulation is not second.simulation
        assert first.database is not second.database

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("quantum")

    def test_register_custom_backend(self):
        def factory(unit_duration=0.5):
            simulation = Simulation()
            return Backend(
                "turbo", simulation, IdealDatabase(simulation, unit_duration=unit_duration)
            )

        register_backend("turbo", factory)
        try:
            backend = create_backend("turbo")
            assert backend.database.unit_duration == 0.5
            assert "turbo" in available_backends()
            with pytest.raises(ValueError, match="already registered"):
                register_backend("turbo", factory)
            register_backend("turbo", factory, replace=True)  # explicit override ok
        finally:
            backends_module._REGISTRY.pop("turbo", None)

    def test_factory_must_return_backend(self):
        register_backend("broken", lambda: object())
        try:
            with pytest.raises(TypeError, match="expected Backend"):
                create_backend("broken")
        finally:
            backends_module._REGISTRY.pop("broken", None)

    def test_backend_validates_simulation_binding(self):
        simulation = Simulation()
        other = Simulation()
        with pytest.raises(ValueError, match="different simulation"):
            Backend("odd", other, IdealDatabase(simulation))

    def test_backend_validates_time_unit(self):
        simulation = Simulation()
        with pytest.raises(ValueError, match="time_unit"):
            Backend("odd", simulation, IdealDatabase(simulation), time_unit="hours")


class TestDispatchAndQueryCache:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.engine == "batched"
        assert config.query_cache is False

    def test_pooled_dispatch_accepted(self):
        config = ExecutionConfig.from_code("PSE80", query_cache=True)
        assert config.query_cache is True

    def test_bad_dispatch_rejected(self):
        # Every service pools and cohorts come with the query cache: the
        # config names neither axis.
        for removed in ("dispatch", "cohorts"):
            with pytest.raises(TypeError, match=removed):
                ExecutionConfig(**{removed: "pooled"})
            with pytest.raises(ValueError, match=removed):
                ExecutionConfig().replace(**{removed: True})

    def test_share_results_is_gone(self):
        # The query cache is the one cross-instance sharing: nine fields.
        assert len(fields(ExecutionConfig)) == 9
        with pytest.raises(TypeError, match="share_results"):
            ExecutionConfig(share_results=True)
        with pytest.raises(ValueError, match="share_results"):
            ExecutionConfig().replace(share_results=True)

    def test_non_bool_query_cache_rejected(self):
        with pytest.raises(ValueError, match="query_cache"):
            ExecutionConfig(query_cache=4096)

    def test_replace_routes_dispatch_fields(self):
        config = ExecutionConfig().replace(query_cache=True)
        assert config.query_cache is True

    def test_repr_names_non_defaults(self):
        config = ExecutionConfig(engine="reference", query_cache=True)
        assert "engine=reference" in repr(config)
        assert "query-cache" in repr(config)
        assert "engine" not in repr(ExecutionConfig())


class TestObserve:
    def test_defaults_off(self):
        assert ExecutionConfig().observe is False

    def test_armed_via_from_code_and_replace(self):
        assert ExecutionConfig.from_code("PSE80", observe=True).observe is True
        assert ExecutionConfig().replace(observe=True).observe is True

    def test_non_bool_observe_rejected(self):
        with pytest.raises(ValueError, match="observe"):
            ExecutionConfig(observe=1)

    def test_repr_names_observe_when_armed(self):
        assert "observe" in repr(ExecutionConfig(observe=True))
        assert "observe" not in repr(ExecutionConfig())
