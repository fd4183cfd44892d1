"""CLI subcommand: ``python -m repro run`` — one-shot inference on a backend.

Runs a small trained demo CNN through the chosen execution backend via the
compiled-plan path and prints the throughput report.  ``--profile`` adds the
plan's per-stage (DAC / crossbar / ADC / digital) wall-clock breakdown, and
``--no-plan`` runs the generic kernels instead — handy for eyeballing the
compiled-plan speedup from a shell::

    python -m repro run --backend analog --profile
    python -m repro run --backend analog --no-plan --profile
    python -m repro run --backend analog --pipeline-stages 2 --profile
    python -m repro run --backend analog --trace-out trace.json --profile
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import List, Optional, Tuple

from repro.exec import blas
from repro.exec.backend import ExecutionContext
from repro.exec.engine import run_model
from repro.exec.plan import StageProfile
from repro.exec.registry import available_backends


def build_run_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``run`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description=(
            "Run a demo CNN inference batch on one execution backend "
            "through the compiled execution plan and report throughput."
        ),
    )
    parser.add_argument("--backend", default="analog", choices=available_backends(),
                        help="execution backend to run on")
    parser.add_argument("--samples", type=int, default=64,
                        help="number of evaluation samples")
    parser.add_argument("--batch-size", type=int, default=64,
                        help="minibatch size of the evaluation loop")
    parser.add_argument("--mapped-layers", type=int, default=1,
                        help="matmul layers mapped onto macros (analog backend)")
    parser.add_argument("--profile", action="store_true",
                        help="print the plan's per-stage wall-clock breakdown")
    parser.add_argument("--no-plan", action="store_true",
                        help="run the generic kernels instead of the compiled plan")
    parser.add_argument("--pipeline-stages", type=int, default=1,
                        help="shard the compiled plan across this many "
                             "pipeline stage processes (>=2) instead of "
                             "running it on one worker")
    parser.add_argument("--macro-budget", type=int, default=None,
                        help="per-stage crossbar capacity in macros for the "
                             "pipeline partitioner")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="export the run's per-layer DAC/crossbar/ADC "
                             "spans as Chrome/Perfetto trace-event JSON "
                             "(single-worker plan runs)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the model, data and backend")
    return parser


def render_stage_profile(profile: dict) -> str:
    """Render a stage-profile dict through :class:`StageProfile`.

    The rendering carries a percent-of-total column for every stage and a
    ``transport`` row whenever process-worker transport time was metered.
    """
    return StageProfile(**{
        field.name: type(field.default)(profile.get(field.name, field.default))
        for field in dataclasses.fields(StageProfile)
    }).render()


def describe_blas_threads() -> str:
    """The BLAS thread count plan forwards run on, beside the default."""
    with blas.single_thread():
        forwards = blas.blas_threads()
    default = blas.blas_threads()
    if default is None:
        return "BLAS threads in forwards: unknown (no OpenBLAS thread control)"
    return f"BLAS threads in forwards: {forwards} (process default {default})"


def run_run_command(args: argparse.Namespace) -> Tuple[str, int]:
    """Execute the ``run`` subcommand; returns (report, exit code)."""
    # Imported lazily: the serving CLI owns the demo-workload builder.
    from repro.serve.cli import demo_workload

    if args.samples < 1:
        raise SystemExit(f"--samples must be >= 1, got {args.samples}")
    # Built before the demo model trains, so a bad count fails fast.
    try:
        context = ExecutionContext(
            max_mapped_layers=args.mapped_layers,
            batch_size=args.batch_size,
            seed=args.seed,
            compile_plan=not args.no_plan,
        )
    except ValueError as error:
        raise SystemExit(f"--mapped-layers: {error}") from None
    model, x_train, x_test = demo_workload(seed=args.seed,
                                           test_samples=args.samples)
    images = x_test[: args.samples]
    if args.backend != "ideal":
        context = dataclasses.replace(context, calibration=x_train[:16])
    if args.pipeline_stages > 1:
        if args.trace_out:
            raise SystemExit(
                "--trace-out traces the single-worker plan run; for "
                "pipeline-stage spans use "
                "`python -m repro loadtest --pipeline-stages N --trace-out`")
        # Imported lazily: the shard layer pulls in the multiprocessing
        # pipeline machinery only sharded runs need.
        from repro.shard import run_pipelined

        report = run_pipelined(model, images, backend=args.backend,
                               context=context,
                               num_stages=args.pipeline_stages,
                               probe=x_train[:16],
                               max_macros_per_stage=args.macro_budget)
        lines = [report.render()]
        if args.profile:
            for stage in report.stage_stats:
                lines.append(f"stage {stage['stage']} profile:")
                profile = dict(stage.get("profile", {}))
                profile["transport_s"] = stage.get("transport_s", 0.0)
                profile["bubble_s"] = stage.get("bubble_s", 0.0)
                lines.append(render_stage_profile(profile))
                if stage.get("largest_slab") is not None:
                    lines.append(f"stage {stage['stage']} " + _scratch_line(
                        stage["scratch_bytes"], stage["largest_slab"]))
        return "\n".join(lines), 0
    tracer = None
    if args.trace_out:
        # The run is one synthetic "request": the per-layer spans recorded
        # by the plan hook are re-anchored under it exactly as the serving
        # path re-anchors a worker forward, so `run` and `loadtest` traces
        # read the same in Perfetto.
        import time

        from repro.obs.export import write_chrome_trace
        from repro.obs.trace import PlanTraceBuffer, Tracer, plan_trace

        start = time.perf_counter()
        buffer = PlanTraceBuffer(t0=start)
        with plan_trace(buffer):
            report = run_model(model, images, backend=args.backend,
                               context=context)
        end = time.perf_counter()
        tracer = Tracer(sample_rate=1.0, seed=args.seed)
        root = tracer.begin("run", category="request", start_s=start,
                            backend=args.backend, samples=int(args.samples))
        # The worker span covers the measured forward only — plan prepare
        # shows as the gap after the root opens, and the aggregated
        # profile's total matches the report's forward wall time.  The
        # buffer anchored its relative clocks at `start` (before prepare),
        # so the records are rebased onto the forward window.
        forward_start = max(start, end - report.wall_time_s)
        offset = forward_start - start
        records = [(name, category, rel_start - offset, rel_end - offset,
                    parent_index)
                   for name, category, rel_start, rel_end, parent_index
                   in buffer.records]
        tracer.attach_remote([(None, report.wall_time_s, records)],
                             parent=root, start_s=forward_start, end_s=end)
        tracer.end(root, end)
        write_chrome_trace(args.trace_out, tracer.spans)
    else:
        report = run_model(model, images, backend=args.backend,
                           context=context)
    lines = [
        f"Backend {report.backend}: {report.samples} samples in "
        f"{report.wall_time_s * 1e3:.1f} ms "
        f"({report.samples_per_second:.1f} samples/s, "
        f"cpu {report.cpu_time_s / report.samples * 1e3:.3f} ms/sample), "
        f"prepare {report.prepare_time_s * 1e3:.1f} ms, "
        f"{report.conversions} conversions, "
        f"plan={report.plan_mode}",
        describe_blas_threads(),
    ]
    if tracer is not None:
        lines.append(f"trace: {len(tracer.spans)} spans -> {args.trace_out}")
    if args.profile:
        if tracer is not None:
            # One timing pathway: the profile is re-derived from the span
            # aggregates, which carry exactly the StageProfile timer deltas.
            from repro.obs.export import aggregate_profile

            lines.append(render_stage_profile(aggregate_profile(tracer.spans)))
        elif report.stage_profile is not None:
            lines.append(render_stage_profile(report.stage_profile))
        if report.largest_slab is not None:
            lines.append(_scratch_line(report.scratch_bytes,
                                       report.largest_slab))
    return "\n".join(lines), 0


def _scratch_line(scratch_bytes: int, largest_slab: Tuple[str, int]) -> str:
    """The plan arena's size and its largest slab, after the run."""
    name, nbytes = largest_slab
    return (f"plan scratch  {scratch_bytes / 1e6:.2f} MB "
            f"(largest slab {name}, {nbytes / 1e6:.2f} MB)")


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``run`` subcommand; returns an exit code."""
    args = build_run_parser().parse_args(argv if argv is not None else [])
    report, exit_code = run_run_command(args)
    print(report)
    return exit_code
