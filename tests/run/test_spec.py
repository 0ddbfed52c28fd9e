"""RunSpec: deep-freezing, content addressing, component construction."""

import dataclasses

import pytest

from repro.core.config import FabricConfig, FinePackConfig
from repro.interconnect.pcie import GENERATIONS
from repro.run import RunSpec, freeze_params
from repro.workloads import JacobiWorkload


class TestFreezeParams:
    def test_sorts_and_tuples(self):
        assert freeze_params({"b": 2, "a": 1}) == (("a", 1), ("b", 2))

    def test_none_and_empty(self):
        assert freeze_params(None) == ()
        assert freeze_params({}) == ()

    def test_rejects_non_scalar_values(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            freeze_params({"a": [1, 2]})

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            freeze_params((("a", 1), ("a", 2)))

    def test_rejects_bad_names(self):
        with pytest.raises(TypeError, match="non-empty strings"):
            freeze_params({"": 1})


class TestSpecIdentity:
    def test_hashable_and_equal(self):
        a = RunSpec(workload="jacobi", workload_params={"n": 64})
        b = RunSpec(workload="jacobi", workload_params=(("n", 64),))
        assert a == b
        assert hash(a) == hash(b)
        assert a.key() == b.key()

    def test_key_changes_with_any_knob(self):
        base = RunSpec(workload="jacobi")
        assert base.key() != base.with_options(seed=8).key()
        assert base.key() != base.with_options(paradigm="p2p").key()
        assert base.key() != base.with_options(
            finepack=FinePackConfig(subheader_bytes=3)
        ).key()

    def test_trace_key_ignores_replay_only_knobs(self):
        """Every paradigm/fabric variation replays the same trace."""
        base = RunSpec(workload="jacobi", workload_params={"n": 64})
        same = [
            base.with_options(paradigm="p2p"),
            base.with_options(generation=GENERATIONS[3]),
            base.with_options(fabric=FabricConfig(error_rate=1e-6)),
            base.with_options(topology="two_level", with_credits=True),
        ]
        assert {s.trace_key() for s in same} == {base.trace_key()}

    def test_trace_key_tracks_trace_inputs(self):
        base = RunSpec(workload="jacobi", workload_params={"n": 64})
        assert base.trace_key() != base.with_options(seed=8).trace_key()
        assert base.trace_key() != base.with_options(n_gpus=2).trace_key()
        assert (
            base.trace_key()
            != base.with_options(workload_params={"n": 128}).trace_key()
        )

    def test_scenario_json_is_canonicalized(self):
        from repro.faults import load_scenario

        schedule = load_scenario("flaky-retimer")
        pretty = schedule.to_json(indent=2)
        compact = schedule.to_json(indent=None)
        a = RunSpec(workload="jacobi", scenario=pretty)
        b = RunSpec(workload="jacobi", scenario=compact)
        assert a == b and a.key() == b.key()


class TestDeepFreeze:
    """Satellite: the mutable-default sharing hazard is closed."""

    def test_spec_is_immutable(self):
        spec = RunSpec(workload="jacobi")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 99

    def test_sub_configs_are_frozen_types(self):
        spec = RunSpec(workload="jacobi")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.finepack.subheader_bytes = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.fabric.error_rate = 0.5

    def test_rejects_mutable_stand_ins(self):
        with pytest.raises(TypeError, match="frozen FinePackConfig"):
            RunSpec(workload="jacobi", finepack={"subheader_bytes": 5})

    def test_default_specs_never_alias_across_instances(self):
        a, b = RunSpec(workload="jacobi"), RunSpec(workload="pagerank")
        assert a.finepack == b.finepack  # equal values...
        assert a == a.with_options()  # ...and replace() round-trips


class TestValidation:
    def test_rejects_empty_workload(self):
        with pytest.raises(ValueError, match="workload"):
            RunSpec(workload="")

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="n_gpus"):
            RunSpec(workload="jacobi", n_gpus=0)
        with pytest.raises(ValueError, match="iterations"):
            RunSpec(workload="jacobi", iterations=0)
        with pytest.raises(ValueError, match="intensity"):
            RunSpec(workload="jacobi", intensity=-0.1)

    def test_rejects_analytical_error_injection(self):
        # The analytical tier has no replay term: such a spec would
        # silently predict zero link replays.
        lossy = FabricConfig(error_rate=1e-3)
        with pytest.raises(ValueError, match="error injection"):
            RunSpec(workload="jacobi", fidelity="analytical", fabric=lossy)
        spec = RunSpec(workload="jacobi", fabric=lossy)
        with pytest.raises(ValueError, match="error injection"):
            spec.with_options(fidelity="analytical")

    def test_rejects_unknown_paradigm_with_suggestion(self):
        from repro.registry import RegistryError

        with pytest.raises(RegistryError, match="did you mean 'finepack'"):
            RunSpec(workload="jacobi", paradigm="finepak")
        with pytest.raises(RegistryError, match="unknown paradigm"):
            RunSpec(workload="jacobi").with_options(paradigm="warp-drive")

    def test_rejects_unknown_topology_with_valueerror(self):
        with pytest.raises(ValueError, match="did you mean 'fat_tree'"):
            RunSpec(workload="jacobi", topology="fat_tre")
        with pytest.raises(ValueError, match="unknown topology"):
            RunSpec(workload="jacobi").with_options(topology="ring_of_fire")

    @pytest.mark.parametrize(
        "topology, params, accepted",
        [
            ("single_switch", {"planes": 2}, "propagation_ns"),
            # No topology means the single_switch default.
            (None, {"fanout": 2}, "propagation_ns"),
            ("fat_tree", {"fanuot": 2}, "fanout, oversubscription, propagation_ns"),
        ],
        ids=["single_switch", "default", "fat_tree"],
    )
    def test_rejects_topology_params_the_factory_does_not_take(
        self, topology, params, accepted
    ):
        # Such a spec used to build and hash, then every run of it died
        # with the factory's TypeError.
        with pytest.raises(ValueError, match=f"it accepts {accepted}$"):
            RunSpec(
                workload="jacobi",
                n_gpus=2,
                topology=topology,
                topology_params=params,
            )

    def test_spec_fields_are_not_topology_params(self):
        # make_topology passes these from the spec's own fields.
        with pytest.raises(ValueError, match="'with_credits'"):
            RunSpec(
                workload="jacobi",
                topology="fat_tree",
                topology_params={"with_credits": True},
            )

    def test_accepts_the_factory_keywords(self):
        spec = RunSpec(
            workload="jacobi",
            n_gpus=8,
            topology="fat_tree",
            topology_params={"fanout": 2, "oversubscription": 2.0},
        )
        assert spec.topology_params == (("fanout", 2), ("oversubscription", 2.0))

    @pytest.mark.parametrize(
        "n_gpus, topology, params, message",
        [
            (6, "two_level", {"fanout": 4}, "n_gpus=6 must be a multiple of fanout=4"),
            (4, "switched_mesh", {"planes": 0}, "planes must be >= 1, got 0"),
            (4, "fat_tree", {"fanout": 1}, "fanout must be >= 2, got 1"),
        ],
        ids=["two_level", "switched_mesh", "fat_tree"],
    )
    def test_rejects_shapes_the_factory_rejects(self, n_gpus, topology, params, message):
        # Such a spec used to build and hash, then every run of it died
        # in the factory (and a lenient grid retried each cell).
        with pytest.raises(ValueError, match=f"^{message}$"):
            RunSpec(
                workload="jacobi",
                n_gpus=n_gpus,
                topology=topology,
                topology_params=params,
            )

    def test_shape_check_builds_no_topology(self, monkeypatch):
        from repro.interconnect import topology

        def no_links(*args, **kwargs):
            raise AssertionError("the spec built a link")

        monkeypatch.setattr(topology, "_add_duplex", no_links)
        RunSpec(workload="jacobi", n_gpus=16, topology="fat_tree")
        # One GPU builds no fabric, so no shape applies.
        RunSpec(workload="jacobi", n_gpus=1, topology="two_level")

    def test_rejects_finepack_config_in_paradigm_params(self):
        # finepack= owns the FinePack config.  A JSON-scalar override
        # could only be None, which ran the default 5-byte sub-headers
        # under a spec that names 2-byte ones.
        with pytest.raises(ValueError, match="finepack="):
            RunSpec(
                workload="jacobi",
                n_gpus=2,
                iterations=1,
                finepack=FinePackConfig(subheader_bytes=2),
                paradigm_params={"config": None},
            )
        with pytest.raises(ValueError, match="finepack="):
            RunSpec(workload="jacobi").with_options(paradigm_params={"config": None})

    def test_workload_name_is_not_resolved(self):
        # A replayed trace may name a workload this process never
        # registered; only the trace's consumer needs the class.
        assert RunSpec(workload="not_registered_here").workload == "not_registered_here"


class TestForWorkload:
    def test_from_name_validates_early(self):
        from repro.registry import RegistryError

        with pytest.raises(RegistryError, match="did you mean"):
            RunSpec.for_workload("jacboi")

    def test_instance_contributes_its_params(self):
        spec = RunSpec.for_workload(JacobiWorkload(n=128), n_gpus=2)
        assert spec.workload == "jacobi"
        assert dict(spec.workload_params) == {"n": 128}
        assert spec.n_gpus == 2

    def test_unregistered_class_rejected(self):
        class Rogue:
            name = "rogue"

        with pytest.raises(TypeError, match="cannot build a spec"):
            RunSpec.for_workload(Rogue())

    @staticmethod
    def _ad_hoc_workload():
        from repro.workloads import MultiGPUWorkload

        class AdHoc(MultiGPUWorkload):
            name = "ad_hoc"

            def iter_phases(self, n_gpus, iterations=3, seed=7):
                yield from ()
                return {}

        return AdHoc

    def test_unregistered_workload_class_hints_register(self):
        with pytest.raises(ValueError, match=r"registry\.workloads\.register"):
            RunSpec.for_workload(self._ad_hoc_workload())

    def test_unregistered_workload_instance_hints_register(self):
        with pytest.raises(ValueError, match="register it"):
            RunSpec.for_workload(self._ad_hoc_workload()())


class TestComponentConstruction:
    def test_build_workload_applies_params(self):
        spec = RunSpec(workload="jacobi", workload_params={"n": 64})
        assert spec.build_workload().n == 64

    def test_finepack_paradigm_receives_spec_config(self):
        cfg = FinePackConfig(subheader_bytes=3)
        spec = RunSpec(workload="jacobi", paradigm="finepack", finepack=cfg)
        assert spec.build_paradigm().config == cfg

    def test_single_gpu_baseline_shape(self):
        spec = RunSpec(
            workload="jacobi",
            paradigm="p2p",
            n_gpus=4,
            topology="two_level",
            scenario=None,
        )
        base = spec.single_gpu_baseline()
        assert base.n_gpus == 1
        assert base.paradigm == "infinite"
        assert base.topology is None
        assert base.scenario is None
        # the trace inputs otherwise match, so seeds line up
        assert base.seed == spec.seed and base.iterations == spec.iterations

    def test_build_schedule_scales_intensity(self):
        from repro.faults import load_scenario

        schedule = load_scenario("flaky-retimer")
        spec = RunSpec(
            workload="jacobi",
            scenario=schedule.to_json(indent=None),
            intensity=0.0,
        )
        scaled = spec.build_schedule()
        assert len(scaled) == 0  # intensity 0 disarms every fault
