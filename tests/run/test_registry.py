"""Registry behavior: registration, lookup, did-you-mean errors."""

import pytest

from repro import registry
from repro.registry import Registry, RegistryError


class TestRegistryCore:
    def test_register_decorator_round_trip(self):
        reg = Registry("widget")

        @reg.register("frob")
        class Frob:
            pass

        assert reg.resolve("frob") is Frob
        assert "frob" in reg
        assert reg.names() == ["frob"]

    def test_duplicate_registration_rejected(self):
        reg = Registry("widget")
        reg.add("frob", object())
        with pytest.raises(ValueError, match="already registered"):
            reg.add("frob", object())

    def test_replace_opt_in(self):
        reg = Registry("widget")
        first, second = object(), object()
        reg.add("frob", first)
        reg.add("frob", second, replace=True)
        assert reg.resolve("frob") is second

    def test_empty_name_rejected(self):
        reg = Registry("widget")
        with pytest.raises(ValueError, match="non-empty"):
            reg.add("", object())

    def test_unknown_name_raises_registry_error(self):
        reg = Registry("widget")
        reg.add("frobnicator", object())
        with pytest.raises(RegistryError) as exc:
            reg.resolve("frobnicatr")
        msg = str(exc.value)
        assert "unknown widget 'frobnicatr'" in msg
        assert "did you mean 'frobnicator'" in msg
        assert "known: frobnicator" in msg

    def test_registry_error_is_key_error(self):
        """Legacy ``except KeyError`` call sites keep working."""
        reg = Registry("widget")
        with pytest.raises(KeyError):
            reg.resolve("nope")

    def test_no_suggestion_when_nothing_close(self):
        reg = Registry("widget")
        reg.add("alpha", object())
        with pytest.raises(RegistryError) as exc:
            reg.resolve("zzzzzzzz")
        assert "did you mean" not in str(exc.value)

    def test_get_returns_default(self):
        reg = Registry("widget")
        assert reg.get("nope") is None
        assert reg.get("nope", 42) == 42


class TestGlobalRegistries:
    """The four built-in registries populate lazily and completely."""

    def test_workloads_populated(self):
        expected = {"jacobi", "pagerank", "sssp", "als", "ct", "eqwp",
                    "diffusion", "hit"}
        assert expected <= set(registry.workloads.names())

    def test_paradigms_populated(self):
        expected = {"p2p", "wc", "gps", "finepack", "dma", "dma_sliced",
                    "infinite"}
        assert expected <= set(registry.paradigms.names())

    def test_topologies_populated(self):
        expected = {"single_switch", "fully_connected", "two_level_tree",
                    "two_level"}
        assert expected <= set(registry.topologies.names())

    def test_scenarios_populated(self):
        assert "flaky-retimer" in registry.scenarios
        assert "partition" in registry.scenarios

    def test_resolved_workload_class_matches_name(self):
        cls = registry.workloads.resolve("jacobi")
        assert cls.name == "jacobi"

    def test_no_import_time_name_copies(self):
        """The registries are the only name views: a copy taken at
        import time would miss anything registered later."""
        import importlib

        copies = (
            "WORKLOADS", "PARADIGMS", "make_paradigm", "SCENARIOS", "list_scenarios",
        )
        for name in (
            "repro",
            "repro.workloads",
            "repro.sim",
            "repro.sim.paradigms",
            "repro.faults",
            "repro.faults.scenarios",
        ):
            module = importlib.import_module(name)
            assert [c for c in copies if hasattr(module, c)] == [], name


class TestSharedValidationSurface:
    """One resolve() serves the CLI, the run layer, topology and chaos."""

    def test_cli_unknown_workload_suggests(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="did you mean 'jacobi'"):
            main(["run", "jacboi", "finepack"])

    def test_make_paradigm_keeps_keyerror_contract(self):
        with pytest.raises(KeyError, match="did you mean"):
            registry.paradigms.resolve("finepak")

    def test_unknown_topology_keeps_valueerror_contract(self):
        from repro.sim.system import MultiGPUSystem

        with pytest.raises(ValueError, match="topology"):
            MultiGPUSystem.build(n_gpus=2, topology_kind="ring_of_fire")

    def test_unknown_scenario_suggests(self):
        from repro.faults import ScenarioError, load_scenario

        with pytest.raises(ScenarioError, match="flaky-retimer"):
            load_scenario("flaky-retimr")
