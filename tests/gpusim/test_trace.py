"""Per-kernel profiles of engine runs, read from the kernel events an
obs :class:`~repro.obs.Tracer` aggregates under each span."""

import pytest

from repro import IGKway, PartitionConfig
from repro.gpusim import GpuContext
from repro.graph import EdgeInsert, ModifierBatch, circuit_graph
from repro.obs import Tracer, span


def _kernel_seconds(ctx, run):
    """Modeled seconds per kernel name of ``run()``, traced under one
    span (kernels outside every span are not recorded)."""
    tracer = Tracer(ledger=ctx.ledger)
    with tracer.activate(), span("profile"):
        run()
    seconds = {}
    for event in tracer.events:
        if event.kind == "kernel":
            seconds[event.name] = (
                seconds.get(event.name, 0.0) + event.device_seconds
            )
    return seconds


class TestEndToEndProfile:
    @pytest.mark.parametrize("mode", ["warp", "vector"])
    def test_incremental_iteration_names_kernels(self, mode):
        csr = circuit_graph(300, 1.4, seed=1)
        ctx = GpuContext()
        ig = IGKway(csr, PartitionConfig(k=2, seed=1, mode=mode), ctx=ctx)

        def run():
            ig.full_partition()
            ig.apply(
                ModifierBatch([EdgeInsert(0, 250), EdgeInsert(1, 200)])
            )

        names = set(_kernel_seconds(ctx, run))
        assert "apply-modifiers" in names
        assert "affected-dispatch" in names
        # FGP kernels are named too (the warp path uses the
        # lane-faithful matching/gain kernels).
        if mode == "warp":
            assert "uf-match-select" in names
            assert "refine-gains" in names
        else:
            assert "uf-match" in names
            assert "refine-pass" in names
        assert "contract" in names

    def test_profile_identifies_dispatch_cost(self):
        """On larger graphs the |V|-warp dispatch tops the incremental
        profile — the documented scaling behavior."""
        csr = circuit_graph(3000, 1.4, seed=1)
        ctx = GpuContext()
        ig = IGKway(csr, PartitionConfig(k=2, seed=1), ctx=ctx)
        ig.full_partition()
        seconds = _kernel_seconds(
            ctx, lambda: ig.apply(ModifierBatch([EdgeInsert(0, 2500)]))
        )
        top = sorted(seconds, key=seconds.get, reverse=True)[:3]
        assert "affected-dispatch" in top
