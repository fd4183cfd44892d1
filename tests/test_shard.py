"""Tests for the pipeline-parallel shard subsystem (:mod:`repro.shard`).

Contracts under test:

* the greedy partitioner balances measured cost, respects the per-stage
  macro (crossbar) budget and fails loudly when no contiguous cut can;
* a pipeline stage is an op range of the plan's op program, cut only
  where one tensor is live; pickled stages composed in order are
  bit-identical to the uncut plan;
* the stage-process pipeline serves bit-identical logits to single-worker
  execution on every backend (including the order-sensitive analog noise
  streams across multiple batches), survives bad batches, unlinks its
  shared-memory segments even after a SIGKILLed stage, and makes
  over-budget models runnable via sharding.
"""

import dataclasses
import os
import pickle
import signal
import threading

import numpy as np
import pytest

from repro.exec import BatchRunner, ExecutionContext, run_model
from repro.exec.plan import ModelPlan
from repro.nn import (
    DatasetConfig,
    SGD,
    Sequential,
    SyntheticImageDataset,
    Trainer,
    build_mobilenet_lite,
    build_resnet_lite,
)
from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.model import ResidualBlock
from repro.serve import InferenceService, ServeConfig, serve_requests
from repro.serve.shm import segment_exists
from repro.shard import (
    CapacityError,
    PartitionError,
    PipelineStageError,
    ShardedPipeline,
    StageDiedError,
    build_stage_payloads,
    plan_partition,
    run_pipelined,
    static_op_costs,
)


@pytest.fixture(scope="module")
def trained_setup():
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=4, image_size=10,
                                                  noise_sigma=0.3, seed=7))
    x_train, y_train, x_test, _ = dataset.train_test_split(96, 48)
    model = Sequential(
        Flatten(),
        Linear(300, 48, rng=np.random.default_rng(0)),
        ReLU(),
        Linear(48, 24, rng=np.random.default_rng(1)),
        ReLU(),
        Linear(24, 4, rng=np.random.default_rng(2)),
    )
    Trainer(model, SGD(model.parameters(), learning_rate=0.05), batch_size=32).fit(
        x_train, y_train, epochs=1
    )
    return model, x_train, x_test


# ----------------------------------------------------------------------
# Partitioner
# ----------------------------------------------------------------------
class TestPlanPartition:
    def test_balances_equal_costs(self):
        boundaries = plan_partition([1.0] * 6, [0] * 6, 3)
        assert boundaries == [(0, 2), (2, 4), (4, 6)]

    def test_heavy_layer_gets_its_own_stage(self):
        boundaries = plan_partition([10.0, 1.0, 1.0, 1.0], [0] * 4, 2)
        assert boundaries == [(0, 1), (1, 4)]

    def test_deterministic(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        macros = [1, 0, 2, 0, 1, 1]
        first = plan_partition(costs, macros, 3, max_macros_per_stage=3)
        second = plan_partition(costs, macros, 3, max_macros_per_stage=3)
        assert first == second

    def test_every_stage_gets_a_layer(self):
        boundaries = plan_partition([100.0, 1.0, 1.0], [0] * 3, 3)
        assert boundaries == [(0, 1), (1, 2), (2, 3)]

    def test_capacity_forces_earlier_cut(self):
        # Cost alone would put the first three layers together; the 2-macro
        # budget forces the cut after two.
        boundaries = plan_partition([1.0, 1.0, 1.0, 10.0], [1, 1, 1, 0], 2,
                                    max_macros_per_stage=2)
        loads = [sum([1, 1, 1, 0][a:b]) for a, b in boundaries]
        assert max(loads) <= 2

    def test_capacity_repair_falls_back_to_feasible_cut(self):
        # Greedy balance would overload the tail stage; the DP fallback
        # finds the feasible cut.
        costs = [1.0, 1.0, 1.0, 1.0]
        macros = [0, 0, 2, 2]
        boundaries = plan_partition(costs, macros, 2, max_macros_per_stage=2)
        loads = [sum(macros[a:b]) for a, b in boundaries]
        assert max(loads) <= 2

    def test_single_layer_over_budget_raises(self):
        with pytest.raises(CapacityError, match="alone"):
            plan_partition([1.0, 1.0], [3, 0], 2, max_macros_per_stage=2)

    def test_total_over_budget_names_required_stages(self):
        with pytest.raises(CapacityError, match="needs >= 3"):
            plan_partition([1.0, 1.0, 1.0], [2, 2, 2], 2,
                           max_macros_per_stage=2)

    def test_no_contiguous_cut_raises(self):
        with pytest.raises(CapacityError, match="contiguous"):
            plan_partition([1.0, 1.0, 1.0], [2, 3, 2], 2,
                           max_macros_per_stage=4)

    def test_more_stages_than_layers_raises(self):
        with pytest.raises(PartitionError):
            plan_partition([1.0, 1.0], [0, 0], 3)

    def test_static_costs_cover_every_op(self):
        # Any model lowers to ops, a bare ResidualBlock included: every op
        # gets a cost, the convs their parameter counts, and the block only
        # splits after its residual add.
        block = ResidualBlock(3, 4, stride=2)
        with BatchRunner(block, "ideal") as runner:
            plan = runner.plan
            costs = static_op_costs(plan)
            assert len(costs) == len(plan.ops) and min(costs) >= 1.0
            conv_cost = float(block.conv1.weight.value.size)
            assert costs[[getattr(op, "layer", None) for op in plan.ops]
                         .index(block.conv1)] == conv_cost
            assert plan.cut_points() == [0, len(plan.ops) - 1, len(plan.ops)]
            assert build_stage_payloads(plan, 2).boundaries == [
                (0, len(plan.ops) - 1), (len(plan.ops) - 1, len(plan.ops))]
            with pytest.raises(PartitionError):
                build_stage_payloads(plan, 3)


# ----------------------------------------------------------------------
# Plan splitting
# ----------------------------------------------------------------------
class TestSplitPlan:
    def test_stage_ranges_must_cut_where_one_tensor_is_live(self):
        # Inside a residual block the shortcut tensor is live too: a stage
        # may neither start nor stop there, nor be empty.
        model = build_resnet_lite(num_classes=4, stage_widths=(4,),
                                  blocks_per_stage=1)
        with BatchRunner(model, "ideal") as runner:
            plan = runner.plan
            cuts = plan.cut_points()
            inside = next(i for i in range(len(plan.ops)) if i not in cuts)
            with pytest.raises(ValueError, match="cut points"):
                plan.stage(0, inside)
            with pytest.raises(ValueError, match="cut points"):
                plan.stage(inside, len(plan.ops))
            with pytest.raises(ValueError, match="non-empty"):
                plan.stage(cuts[1], cuts[1])
            stage = plan.stage(cuts[1], cuts[-1])
            assert stage.op_range == (cuts[1], cuts[-1])
            assert stage.ops == plan.ops[cuts[1]:]

    def test_stage_composition_bit_identical_analog(self, trained_setup):
        # Pickle-round-tripped stage plans, composed in order, reproduce
        # the uncut plan bit for bit — macros, codecs and generator states
        # survive the split.
        model, x_train, x_test = trained_setup
        context = ExecutionContext(calibration=x_train[:16],
                                   max_mapped_layers=2, batch_size=16, seed=0)
        direct = run_model(model, x_test[:16], backend="analog",
                           context=context)
        runner = BatchRunner(model, "analog", context=context)
        try:
            partition = build_stage_payloads(runner.plan, 3,
                                             probe=x_train[:16])
        finally:
            runner.close()
        stages = [pickle.loads(payload) for payload in partition.payloads]
        assert [type(stage) for stage in stages] == [ModelPlan] * 3
        # A stage carries its own ops only, not the model or the backend.
        assert all(stage.model is None and stage.backend is None
                   for stage in stages)
        assert [len(stage.ops) for stage in stages] == [
            stop - start for start, stop in partition.boundaries]
        x = x_test[:16]
        for stage in stages:
            x = stage.forward(x)
        assert np.array_equal(x, direct.logits)
        # Conversion metering is per stage and sums to the uncut total.
        assert sum(stage.conversions() for stage in stages) >= 0
        assert sum(stage.num_macros() for stage in stages) == 2

    def test_partition_reports_costs_and_macros(self, trained_setup):
        model, x_train, _ = trained_setup
        context = ExecutionContext(calibration=x_train[:16],
                                   max_mapped_layers=1, batch_size=16, seed=0)
        with BatchRunner(model, "analog", context=context) as runner:
            assert runner.plan.num_macros() >= 1
            partition = build_stage_payloads(runner.plan, 2,
                                             probe=x_train[:16])
            # One stage has nothing to balance: no probe forward runs.
            whole = build_stage_payloads(runner.plan, 1, probe=x_train[:16])
        assert partition.measured and not whole.measured
        assert whole.boundaries == [(0, len(whole.op_costs))]
        assert partition.num_stages == 2
        assert sum(partition.stage_macros()) == count_plan_macros_value(partition)
        description = partition.describe()
        assert "stage 0" in description and "macros" in description

    def test_probe_does_not_disturb_parent_plan(self, trained_setup):
        # Cost probing runs on a pickled copy: two identically-seeded
        # runners, one probed and one not, must still serve bit-identical
        # logits (the analog noise streams were not advanced).
        model, x_train, x_test = trained_setup
        context = ExecutionContext(calibration=x_train[:16],
                                   max_mapped_layers=2, batch_size=16, seed=0)
        runner = BatchRunner(model, "analog", context=context)
        try:
            build_stage_payloads(runner.plan, 2, probe=x_train[:16])
            probed_logits = runner.forward(x_test[:16])
        finally:
            runner.close()
        direct = run_model(model, x_test[:16], backend="analog",
                           context=context)
        assert np.array_equal(probed_logits, direct.logits)


def count_plan_macros_value(partition) -> int:
    return sum(partition.op_macros)


# ----------------------------------------------------------------------
# Pipeline executor
# ----------------------------------------------------------------------
class TestShardedPipeline:
    def test_run_pipelined_bit_identical_every_backend(self, trained_setup):
        model, x_train, x_test = trained_setup
        from repro.exec import available_backends

        context = ExecutionContext(calibration=x_train[:16],
                                   max_mapped_layers=1, batch_size=16, seed=0)
        for backend in available_backends():
            direct = run_model(model, x_test[:32], backend=backend,
                               context=context)
            report = run_pipelined(model, x_test[:32], backend=backend,
                                   context=context, num_stages=2)
            assert np.array_equal(report.logits, direct.logits), backend
            assert report.num_stages == 2

    def test_multi_batch_noise_stream_order_preserved(self, trained_setup):
        # Default macro config keeps read noise on: several batches through
        # the pipeline must draw the same per-macro noise sequence as the
        # uncut plan — the FIFO stage rings are what guarantees it.
        model, x_train, x_test = trained_setup
        context = ExecutionContext(calibration=x_train[:16],
                                   max_mapped_layers=2, batch_size=8, seed=0)
        direct = run_model(model, x_test[:32], backend="analog",
                           context=context)
        report = run_pipelined(model, x_test[:32], backend="analog",
                               context=context, num_stages=3)
        assert np.array_equal(report.logits, direct.logits)
        assert report.conversions == direct.conversions
        # 24 eager submissions through a window of W = 3 stages + 2 slots:
        # every edge ring wraps around its W sequence-owned slots more
        # than three times.
        context = dataclasses.replace(context, batch_size=2)
        direct = run_model(model, x_test[:48], backend="analog",
                           context=context)
        report = run_pipelined(model, x_test[:48], backend="analog",
                               context=context, num_stages=3, slots=2)
        assert np.array_equal(report.logits, direct.logits)
        assert report.conversions == direct.conversions

    def test_cut_inside_depthwise_separable_block_bit_identical(self):
        # MobileNet-lite's block inlines into the program, so a stage may
        # start at its pointwise conv: the parameter-count proxy puts a cut
        # there, and so does the 8-macro budget (depthwise 8 + pointwise 1
        # macros cannot share a stage).  Every backend still serves the
        # single-worker logits bit for bit.
        from repro.exec import available_backends

        model = build_mobilenet_lite(num_classes=4, widths=(8, 16), seed=3)
        images = np.random.default_rng(4).standard_normal((16, 3, 10, 10))
        with BatchRunner(model, "ideal") as runner:
            layers = [getattr(op, "layer", None) for op in runner.plan.ops]
        pointwise = layers.index(model.layers[3].pointwise)
        context = ExecutionContext(batch_size=8, seed=0)
        for backend in available_backends():
            direct = run_model(model, images, backend=backend, context=context)
            report = run_pipelined(model, images, backend=backend,
                                   context=context, num_stages=3,
                                   max_macros_per_stage=8)
            assert pointwise in [start for start, _ in
                                 report.partition.boundaries], backend
            assert np.array_equal(report.logits, direct.logits), backend
            assert report.conversions == direct.conversions, backend

    def test_stage_stats_surface_occupancy(self, trained_setup):
        model, _, x_test = trained_setup
        report = run_pipelined(model, x_test[:32], backend="ideal",
                               num_stages=2, batch_size=8)
        assert len(report.stage_stats) == 2
        for stats in report.stage_stats:
            assert stats["batches"] == 4
            assert stats["forward_s"] >= 0.0
            assert "bubble_s" in stats and "transport_s" in stats
        rendered = report.render()
        assert "bubble" in rendered and "stage 1" in rendered

    def test_bad_batch_fails_future_but_pipeline_survives(self, trained_setup):
        model, _, x_test = trained_setup
        with BatchRunner(model, "ideal") as runner:
            partition = build_stage_payloads(runner.plan, 2)
        pipeline = ShardedPipeline(partition.payloads, max_batch=8)
        pipeline.start()
        try:
            good = pipeline.forward(x_test[:8])
            bad = pipeline.submit(np.zeros((4, 2, 3, 3)))  # wrong channels
            with pytest.raises(PipelineStageError, match="stage 0"):
                bad.result(timeout=30)
            again = pipeline.forward(x_test[:8])
            assert np.array_equal(good, again)
        finally:
            pipeline.close()

    def test_segments_unlinked_after_stage_sigkill(self, trained_setup):
        model, _, x_test = trained_setup
        with BatchRunner(model, "ideal") as runner:
            partition = build_stage_payloads(runner.plan, 2)
        pipeline = ShardedPipeline(partition.payloads, max_batch=8)
        pipeline.start()
        try:
            pipeline.forward(x_test[:8])  # warm-up builds the stage rings
            pipeline.forward(x_test[:8])
            names = pipeline.segment_names
            assert names and all(segment_exists(name) for name in names)
            os.kill(pipeline.pids()[0], signal.SIGKILL)
            # Depending on when the collector notices the death, either the
            # submit itself or its future fails — both with the stage error.
            with pytest.raises(PipelineStageError):
                pipeline.submit(x_test[:8]).result(timeout=30)
        finally:
            pipeline.close()
        assert not any(segment_exists(name) for name in names)

    def test_concurrent_starts_keep_each_stage_death_visible(
            self, trained_setup, monkeypatch):
        # The first fork holds its parent side open (before the sentinel's
        # write end is closed) until a second thread forks too, or 1 s
        # passes: a fork let in there inherits the first stage's sentinel
        # write end, so that stage's death would never wake its watcher.
        model, _, x_test = trained_setup
        with BatchRunner(model, "ideal") as runner:
            payloads = build_stage_payloads(runner.plan, 1).payloads
        real_fork, forks = os.fork, []
        second_fork = threading.Event()

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
                if len(forks) == 1:
                    second_fork.wait(timeout=1.0)
                else:
                    second_fork.set()
            return pid

        monkeypatch.setattr(os, "fork", fork)
        pipelines = [ShardedPipeline(payloads, max_batch=8) for _ in range(2)]
        starters = [threading.Thread(target=pipeline.start)
                    for pipeline in pipelines]
        try:
            for starter in starters:
                starter.start()
            for starter in starters:
                starter.join()
            monkeypatch.undo()
            first = next(p for p in pipelines if p.pids() == [forks[0]])
            os.kill(forks[0], signal.SIGKILL)
            with pytest.raises(StageDiedError):
                first.submit(x_test[:8]).result(timeout=10)
        finally:
            for pipeline in pipelines:
                pipeline.close()

    def test_submit_after_close_rejected(self, trained_setup):
        model, _, x_test = trained_setup
        with BatchRunner(model, "ideal") as runner:
            partition = build_stage_payloads(runner.plan, 2)
        pipeline = ShardedPipeline(partition.payloads, max_batch=8)
        pipeline.start()
        pipeline.close()
        with pytest.raises(PipelineStageError):
            pipeline.submit(x_test[:8])


# ----------------------------------------------------------------------
# Serving integration and the crossbar-capacity contract
# ----------------------------------------------------------------------
class TestPipelineServing:
    def test_pipeline_serving_bit_identical_all_backends(self, trained_setup):
        from repro.exec import available_backends

        model, x_train, x_test = trained_setup
        images = x_test[:24]
        context = ExecutionContext(calibration=x_train[:16],
                                   max_mapped_layers=1, seed=0)
        for backend in available_backends():
            direct = run_model(model, images, backend=backend,
                               context=context, batch_size=len(images))
            served, snapshot = serve_requests(
                model, images,
                ServeConfig(backend=backend, max_batch=len(images),
                            context=context, pipeline_stages=2))
            assert np.array_equal(served, direct.logits), backend
            assert all(worker.mode == "pipeline"
                       for worker in snapshot.workers)

    def test_pipeline_serving_reports_stage_occupancy(self, trained_setup):
        model, _, x_test = trained_setup
        _, snapshot = serve_requests(model, x_test[:32],
                                     ServeConfig(max_batch=8,
                                                 pipeline_stages=2))
        stages = [stage for worker in snapshot.workers
                  for stage in worker.stages]
        assert len(stages) == 2
        assert all(stage.batches == 4 for stage in stages)
        assert "pipeline stages" in snapshot.render()

    def test_pipeline_serving_unlinks_segments_on_stop(self, trained_setup):
        import asyncio

        model, _, x_test = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(max_batch=8,
                                                          pipeline_stages=2))
            await service.start()
            for _ in range(3):
                await service.submit(x_test[:8])
            names = service.shm_segment_names()
            assert names
            await service.stop()
            return names

        names = asyncio.run(scenario())
        assert not any(segment_exists(name) for name in names)

    def test_over_budget_model_rejected_then_runs_via_sharding(
            self, trained_setup):
        # The model maps onto 3 macros (all three Linear layers); with a
        # 2-macro worker crossbar budget a single worker must refuse it,
        # and sharding it across two stages makes it runnable — the
        # capacity contract of the shard subsystem.
        model, x_train, x_test = trained_setup
        images = x_test[:16]
        context = ExecutionContext(calibration=x_train[:16], seed=0)
        with BatchRunner(model, "analog", context=context) as runner:
            total_macros = runner.plan.num_macros()
        assert total_macros == 3
        budget = 2
        with pytest.raises(CapacityError, match="crossbar"):
            serve_requests(model, images,
                           ServeConfig(backend="analog",
                                       max_batch=len(images), context=context,
                                       macro_budget=budget))
        direct = run_model(model, images, backend="analog", context=context,
                           batch_size=len(images))
        served, snapshot = serve_requests(
            model, images,
            ServeConfig(backend="analog", max_batch=len(images),
                        context=context, macro_budget=budget,
                        pipeline_stages=2))
        assert np.array_equal(served, direct.logits)
        stage_macros = [stage.index for worker in snapshot.workers
                        for stage in worker.stages]
        assert len(stage_macros) == 2

    def test_invalid_pipeline_config_rejected(self, trained_setup):
        model, _, _ = trained_setup
        with pytest.raises(ValueError, match="pipeline_stages"):
            InferenceService(model, ServeConfig(pipeline_stages=0))
        with pytest.raises(ValueError, match="macro_budget"):
            InferenceService(model, ServeConfig(macro_budget=0))
