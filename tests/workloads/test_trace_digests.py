"""Op-for-op digests of every generator's seed-7 trace.

One SHA-256 per trace pins exactly what a generator emits: for each
phase its iteration, GPU, :class:`KernelWork` (floats as hex), the
phase's store/atomic/DMA ``digest`` and its ``reads_digest``, then the
metadata dict as canonical JSON.  The shapes are every registered
workload at its default 4-GPU shape plus the collectives at the 8- and
16-GPU fat-tree shapes the benchmark runs (topology does not enter a
trace, so only GPU count and iterations matter).

A generator rewrite meant to be byte-identical must leave every entry
unchanged.  After a deliberate change to what a generator emits,
regenerate the table with::

    PYTHONPATH=src python tests/workloads/test_trace_digests.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.registry import workloads
from repro.run import RunSpec

COLLECTIVES = ("allgather", "allreduce_ring", "allreduce_tree", "alltoall", "pipeline")

#: (label, RunSpec) for every pinned trace, at seed 7.
SHAPES = (
    [(name, RunSpec(workload=name)) for name in sorted(workloads.names())]
    + [(f"{name}/8gpu", RunSpec(workload=name, n_gpus=8)) for name in COLLECTIVES]
    + [
        (f"{name}/16gpu", RunSpec(workload=name, n_gpus=16, iterations=2))
        for name in COLLECTIVES
    ]
)

DIGESTS = {
    "allgather": "2d4da2d8877e15c12e33e50ace5a7d4dc794239af570838df550240fcaf798a9",
    "allreduce_ring": "1a4da8c69f9754b49d0cf575cee6e873250a2781b4716a8123e90cd7f4f6876a",
    "allreduce_tree": "ecdc48c2f906e4039c317705053bb65bbea5ee1b47cc270cf6b416ef294f3bf2",
    "alltoall": "10ad841219f247304dcba153520f428b2aa79c4552c51fa22b24e9b270d7cc9e",
    "als": "3a68b76f523251b944f94038cfc04bcaa000c9e465170dcdf910d4a6279e09c9",
    "ct": "5091f8d0b47379701a03419d2b5b7f3ba23b58b6c2f55741d35422ebe17534ca",
    "diffusion": "904e090b42731ecf951555030c4f1080068de2ef767db69e74e0a9b54a89c9e2",
    "eqwp": "68b352de9948aa43b148b24abd2a442bf2569570afb387b902a164de3c3acf90",
    "faulty": "ebb8e471e3f941b887b92a823bde31d6ea908fa1870c7595ab66c8593fefe2f6",
    "hit": "e0283c7fc0bbd95e7b845b9a150bc2aa808c941eedf5bdbe29eb52794068fd85",
    "jacobi": "d8a714c022fc3cd11206f849af279aae7418b014cd17c7372eb9849ec8f8aafc",
    "pagerank": "f2028d6fbf38932d6205553735c61d3cfca4d3626907ca978f12765cf496098f",
    "pipeline": "490370dfdb97f2fc472788112b0a91dce553f79b285583225603f79d59c4bfdd",
    "sssp": "474db2067741524f5e051fd75ba2bcf0d85c863486412dd797566e04017bc3b3",
    "allgather/8gpu": "a2cb56d6aaf83a7b9d6dd79f9bfcbbe6d3b5934ceb6f18d9a19ac5982c5225b8",
    "allreduce_ring/8gpu": "8c0fd60485743ba1d99b3eb0a39f83630d271a578f34c810c694f94ef04e12c0",
    "allreduce_tree/8gpu": "8055cf7ab310ad50ab1dcf9c25923cf2a4a304b03e4671583eeef62c6d88cef3",
    "alltoall/8gpu": "535d9c997620405296e11b6912a0f778de7e4cdc6e2d37318ac1db6490226d74",
    "pipeline/8gpu": "7ec680f52675af61d0fbdb89312cf065fe1502977df852f943202c389f894f27",
    "allgather/16gpu": "88f5722b2a298a3a369be95670299cd3a2ada4c3675e78d266945305bb0f8bae",
    "allreduce_ring/16gpu": "c92a77865429572fabb751ac6baa9becc6ff576bf2c785baf8bfc1ab4f5b9582",
    "allreduce_tree/16gpu": "dba6cfd8fec9b4bc665e56fabd4e36aa8d2d3c56569530214df37c1da39737c9",
    "alltoall/16gpu": "f65fe72dea769a3d5b3e3427554b634dfd3946f69521ab75a760f3faaaaa22b5",
    "pipeline/16gpu": "84b7af71a66debccad956237ea11151e17ba00e2b0f4f5ffb1a8ce90a79843dc",
}


def trace_digest(spec: RunSpec) -> str:
    """SHA-256 over every phase ``spec``'s generator emits, in order."""
    h = hashlib.sha256()
    gen = spec.build_workload().iter_phases(
        spec.n_gpus, iterations=spec.iterations, seed=spec.seed
    )
    while True:
        try:
            iteration, phase = next(gen)
        except StopIteration as stop:
            metadata = stop.value or {}
            break
        work = phase.work
        h.update(
            f"{iteration} {phase.gpu} {float(work.flops).hex()} "
            f"{float(work.dram_bytes).hex()} {work.precision}".encode()
        )
        h.update(phase.digest)
        h.update(phase.reads_digest)
    h.update(json.dumps(metadata, sort_keys=True).encode())
    return h.hexdigest()


def test_table_covers_every_shape():
    assert sorted(DIGESTS) == sorted(label for label, _ in SHAPES)


@pytest.mark.parametrize("label,spec", SHAPES, ids=[label for label, _ in SHAPES])
def test_trace_digest_is_pinned(label, spec):
    assert trace_digest(spec) == DIGESTS[label]


if __name__ == "__main__":
    print("DIGESTS = {")
    for label, spec in SHAPES:
        print(f'    "{label}": "{trace_digest(spec)}",')
    print("}")
