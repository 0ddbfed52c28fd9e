"""Differential tier: collectives x paradigms x scaled-up topologies.

Every collective workload is run through the fingerprint harness under
p2p/dma/finepack on both new topology families:

* ``switched_mesh`` -- plane-pinned two-hop routes are hop-disjoint,
  the simplest batch-eligible shape;
* ``fat_tree`` -- leaf links serve several hop positions, but the
  event-ordered transport plan (topologically ordered links, per-link
  traffic merged in global issue order) keeps fat trees on the
  vectorized fast path at every scale (verified structurally below).

In both cases the fast run must be byte-identical to the scalar
reference.

A committed golden-fingerprint table pins representative cells as
regression anchors: any change to collective lowering, topology
construction, or the transport math shows up as a diff against
``golden_collective_fingerprints.json`` (regenerate with
``python tests/perf/test_collective_equivalence.py --regen``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.interconnect.topology import fat_tree, switched_mesh
from repro.perf.harness import profile_run
from repro.perf.transport import build_plan, links_eligible
from repro.run import RunSpec, TraceCache

COLLECTIVES = (
    "allreduce_ring",
    "allreduce_tree",
    "allgather",
    "alltoall",
    "pipeline",
)

#: Small messages keep the grid fast while still spanning several
#: chunks per transfer and several steps per invocation.
WORKLOAD_PARAMS = {
    "allreduce_ring": {"message_bytes": 4096, "chunk_bytes": 512},
    "allreduce_tree": {"message_bytes": 4096, "chunk_bytes": 1024},
    "allgather": {"message_bytes": 2048, "chunk_bytes": 512},
    "alltoall": {"message_bytes": 4096, "chunk_bytes": 512},
    "pipeline": {"message_bytes": 2048, "chunk_bytes": 512, "microbatches": 2},
}

PARADIGMS = ("p2p", "dma", "finepack")

TOPOLOGIES = {
    "switched_mesh": {"planes": 2},
    "fat_tree": {"fanout": 2},
}

GOLDEN_PATH = Path(__file__).parent / "golden_collective_fingerprints.json"


def spec_for(
    workload: str, paradigm: str, topology: str, **overrides
) -> RunSpec:
    fields = {"n_gpus": 4, "iterations": 1, **overrides}
    return RunSpec(
        workload=workload,
        workload_params=WORKLOAD_PARAMS[workload],
        paradigm=paradigm,
        topology=topology,
        topology_params=TOPOLOGIES[topology],
        **fields,
    )


def fingerprints(spec: RunSpec) -> tuple[str, str]:
    cache = TraceCache()
    fast = profile_run(spec, scalar=False, trace_cache=cache)
    scalar = profile_run(spec, scalar=True, trace_cache=cache)
    return fast.fingerprint, scalar.fingerprint


class TestFastPathEligibility:
    """The structural claims the equivalence grid relies on."""

    def test_switched_mesh_is_batch_eligible(self):
        topo = switched_mesh(n_gpus=4, planes=2)
        assert links_eligible(topo)
        plan = build_plan(topo)
        assert plan is not None
        assert all(len(edges) == 2 for edges in plan.routes.values())

    def test_fat_tree_is_batch_eligible(self):
        # Intra-leaf traffic uses a leaf link at hop 1, cross-leaf at a
        # later hop -- not hop-disjoint, but the route adjacency is
        # acyclic so the event-ordered plan still covers it.
        topo = fat_tree(n_gpus=4, fanout=2)
        assert links_eligible(topo)
        assert build_plan(topo) is not None

    def test_large_fat_trees_stay_eligible(self):
        for n in (8, 16, 64):
            plan = build_plan(fat_tree(n_gpus=n))
            assert plan is not None
            # Every link used by some route appears exactly once in the
            # topological processing order.
            used = {e for edges in plan.routes.values() for e in edges}
            assert sorted(plan.link_order) == sorted(used)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("paradigm", PARADIGMS)
@pytest.mark.parametrize("workload", COLLECTIVES)
def test_fast_matches_scalar(workload, paradigm, topology):
    fast, scalar = fingerprints(spec_for(workload, paradigm, topology))
    assert fast == scalar


def test_fine_grained_stores_match_scalar():
    # fine_grained=True keeps stores at element granularity (the
    # FinePack-relevant regime); the fast paths must still agree.
    spec = RunSpec(
        workload="allreduce_ring",
        workload_params={
            "message_bytes": 2048,
            "chunk_bytes": 512,
            "fine_grained": True,
        },
        paradigm="finepack",
        topology="switched_mesh",
        topology_params={"planes": 2},
        n_gpus=4,
        iterations=1,
    )
    fast, scalar = fingerprints(spec)
    assert fast == scalar


def test_eight_gpu_mesh_matches_scalar():
    fast, scalar = fingerprints(
        spec_for("alltoall", "finepack", "switched_mesh", n_gpus=8)
    )
    assert fast == scalar


def test_sixteen_gpu_fat_tree_matches_scalar():
    # The scale point the event-ordered plan exists for: a three-level
    # fat tree whose leaf links serve several hop positions.
    fast, scalar = fingerprints(
        spec_for("allreduce_ring", "finepack", "fat_tree", n_gpus=16)
    )
    assert fast == scalar


# -- committed regression anchors -----------------------------------

def _golden_cells() -> dict[str, RunSpec]:
    """The pinned subset: every workload once, spanning both topologies
    and all three paradigms."""
    return {
        "allreduce_ring/finepack/switched_mesh": spec_for(
            "allreduce_ring", "finepack", "switched_mesh"
        ),
        "allreduce_tree/dma/fat_tree": spec_for(
            "allreduce_tree", "dma", "fat_tree"
        ),
        "allgather/p2p/switched_mesh": spec_for(
            "allgather", "p2p", "switched_mesh"
        ),
        "alltoall/finepack/fat_tree": spec_for(
            "alltoall", "finepack", "fat_tree"
        ),
        "pipeline/dma/switched_mesh": spec_for(
            "pipeline", "dma", "switched_mesh"
        ),
    }


def _current_fingerprints() -> dict[str, str]:
    cache = TraceCache()
    return {
        label: profile_run(spec, trace_cache=cache).fingerprint
        for label, spec in _golden_cells().items()
    }


def test_golden_fingerprints_unchanged():
    golden = json.loads(GOLDEN_PATH.read_text())
    current = _current_fingerprints()
    assert current == golden, (
        "collective RunMetrics fingerprints drifted; if the change is "
        "intentional, regenerate with "
        "`python tests/perf/test_collective_equivalence.py --regen`"
    )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_PATH.write_text(
            json.dumps(_current_fingerprints(), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
