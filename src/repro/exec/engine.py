"""The unified execution engine: ``run_model(model, data, backend=...)``.

One entry point runs any model on any registered backend, batched and
timed, and returns an :class:`~repro.exec.backend.ExecutionReport` with the
logits, accuracy and steady-state throughput.  Higher-level helpers build on
it: :func:`compare_backends` races every requested backend on the same data,
and :func:`run_ptq_sweep` reproduces the Fig. 6(c) format sweep through the
registry (numerically identical to the legacy ``repro.nn.quantize`` flow).
:class:`BatchRunner` is the low-level batched-submit entry point: prepare
once, then push service-assembled batches straight through the backend.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from repro.exec.backend import ExecutionBackend, ExecutionContext, ExecutionReport, FormatLike
from repro.exec.plan import ModelPlan
from repro.exec.registry import create_backend
from repro.formats.fp8 import E2M5, E3M4
from repro.formats.intq import INT8
from repro.nn.data import iterate_minibatches
from repro.nn.functional import accuracy
from repro.nn.model import Model
from repro.nn.quantize import CIMNonidealities, PTQResult

BackendLike = Union[str, ExecutionBackend]

#: The Fig. 6(c) format trio, keyed the way the analysis runners report them.
DEFAULT_PTQ_FORMATS: Dict[str, FormatLike] = {
    "INT8": INT8,
    "FP8-E3M4": E3M4,
    "FP8-E2M5": E2M5,
}


def _resolve_backend(backend: BackendLike) -> ExecutionBackend:
    if isinstance(backend, ExecutionBackend):
        return backend
    return create_backend(backend)


class BatchRunner:
    """A prepared ``(model, backend)`` pair accepting raw batches.

    :func:`run_model` re-prepares the backend and re-iterates minibatches on
    every call — the right shape for offline evaluation, the wrong one for a
    service that coalesces requests into batches of its own choosing.  A
    ``BatchRunner`` pays the ``prepare`` cost once and then exposes a single
    :meth:`forward` that pushes one already-assembled batch through the
    backend and returns the logits, with no internal re-batching, shuffling
    or report assembly.  It is the batched-submit entry point under
    :class:`repro.serve.InferenceService` workers.

    Use as a context manager (or call :meth:`close`) so the backend is torn
    off the model when the runner is done::

        with BatchRunner(model, "analog", calibration=x[:32]) as runner:
            logits = runner.forward(batch)
    """

    def __init__(self, model: Model, backend: BackendLike = "ideal",
                 context: Optional[ExecutionContext] = None,
                 **context_overrides) -> None:
        ctx = context if context is not None else ExecutionContext()
        if context_overrides:
            ctx = dataclasses.replace(ctx, **context_overrides)
        self.model = model
        self.context = ctx
        self.backend = _resolve_backend(backend)
        self._closed = False
        # The plan prepares the backend (tearing it off again on failure)
        # and compiles the prepared state into LUT-fused kernels unless the
        # context opts out; BatchRunner is a thin wrapper over it.
        self.plan = ModelPlan(model, self.backend, ctx)
        self.prepare_time_s = self.plan.prepare_time_s

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Run one assembled batch through the prepared plan."""
        if self._closed:
            raise RuntimeError("BatchRunner is closed")
        return self.plan.forward(images)

    @property
    def plan_mode(self) -> str:
        """``"compiled"`` or ``"generic"`` execution.

        ``generic`` also covers compiled plans that had nothing to compile
        (the ``ideal`` backend, or analog configs whose every tile fell
        back) — no plan kernels actually ran there.
        """
        return "compiled" if self.plan.compiled else "generic"

    def conversions(self) -> int:
        """Analog macro conversions spent so far by the backend."""
        return self.plan.conversions()

    def stage_profile(self) -> Dict[str, float]:
        """Per-stage (DAC / crossbar / ADC / digital) wall-clock breakdown."""
        return self.plan.stage_profile()

    def close(self) -> None:
        """Tear the backend off the model (idempotent)."""
        if not self._closed:
            self._closed = True
            self.plan.close()

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_model(model: Model, images: np.ndarray,
              labels: Optional[np.ndarray] = None,
              backend: BackendLike = "ideal",
              context: Optional[ExecutionContext] = None,
              **context_overrides) -> ExecutionReport:
    """Run ``images`` through ``model`` on the chosen execution backend.

    Parameters
    ----------
    model:
        The network to evaluate (restored to its digital state afterwards).
    images:
        Input batch (any leading batch dimension the model accepts).
    labels:
        Optional integer labels; when given, the report carries Top-1
        accuracy.
    backend:
        A registered backend name (``ideal`` / ``fake_quant`` /
        ``fast_noise`` / ``analog``) or a backend instance.  Passing the
        same instance again reuses its prepared state — for the analog
        backend that skips re-programming and re-calibrating the macros.
    context:
        Execution context; keyword overrides are applied on top (e.g.
        ``run_model(m, x, backend="analog", calibration=x[:32])``).
    """
    images = np.asarray(images, dtype=np.float64)
    label_array = (
        np.asarray(labels) if labels is not None
        else np.zeros(images.shape[0], dtype=np.int64)
    )

    runner = BatchRunner(model, backend, context=context, **context_overrides)
    try:
        conversions_before = runner.conversions()
        logits = []
        forward_start = time.perf_counter()
        # Forwards run on this thread with one BLAS thread: its CPU time is
        # theirs, whatever other threads (a BLAS helper still spinning after
        # the caller's own GEMMs, say) burn meanwhile.
        cpu_start = time.thread_time()
        for batch_x, _ in iterate_minibatches(images, label_array,
                                              runner.context.batch_size,
                                              shuffle=False):
            logits.append(runner.forward(batch_x))
        cpu_time = time.thread_time() - cpu_start
        wall_time = time.perf_counter() - forward_start
        all_logits = (
            np.concatenate(logits, axis=0) if logits
            else np.zeros((0, 0), dtype=np.float64)
        )
        conversions = runner.conversions() - conversions_before
        profile = runner.stage_profile()
        plan_mode = runner.plan_mode
        scratch_bytes = runner.plan.arena.nbytes()
        largest_slab = runner.plan.arena.largest_slab()
    finally:
        runner.close()

    top1 = accuracy(all_logits, label_array) if labels is not None and logits else None
    return ExecutionReport(
        backend=runner.backend.name,
        logits=all_logits,
        samples=int(images.shape[0]),
        wall_time_s=wall_time,
        cpu_time_s=cpu_time,
        prepare_time_s=runner.prepare_time_s,
        accuracy=top1,
        conversions=conversions,
        stage_profile=profile,
        plan_mode=plan_mode,
        scratch_bytes=scratch_bytes,
        largest_slab=largest_slab,
    )


def compare_backends(model: Model, images: np.ndarray,
                     labels: Optional[np.ndarray] = None,
                     backends: Sequence[BackendLike] = ("ideal", "fake_quant",
                                                        "fast_noise", "analog"),
                     context: Optional[ExecutionContext] = None,
                     **context_overrides) -> Dict[str, ExecutionReport]:
    """Run the same data through several backends and collect the reports.

    Reports are keyed by backend name; passing two differently-configured
    instances of the same backend keeps both, with ``#2``, ``#3``, …
    suffixes on the later ones.
    """
    reports: Dict[str, ExecutionReport] = {}
    for backend in backends:
        report = run_model(model, images, labels, backend=backend,
                           context=context, **context_overrides)
        key = report.backend
        suffix = 2
        while key in reports:
            key = f"{report.backend}#{suffix}"
            suffix += 1
        reports[key] = report
    return reports


def run_ptq_sweep(model: Model, calibration: np.ndarray,
                  test_images: np.ndarray, test_labels: np.ndarray,
                  formats: Optional[Dict[str, FormatLike]] = None,
                  nonidealities: Optional[CIMNonidealities] = None,
                  batch_size: int = 64, seed: int = 0) -> Dict[str, PTQResult]:
    """Evaluate PTQ accuracy for several formats through the backend registry.

    The FP32 baseline runs on the ``ideal`` backend and each format on
    ``fast_noise`` (or ``fake_quant`` when no non-idealities are given).
    """
    if formats is None:
        formats = dict(DEFAULT_PTQ_FORMATS)
    baseline = run_model(model, test_images, test_labels, backend="ideal",
                         batch_size=batch_size)
    backend_name = "fake_quant" if nonidealities is None else "fast_noise"
    results: Dict[str, PTQResult] = {}
    for name, fmt in formats.items():
        context = ExecutionContext(
            calibration=np.asarray(calibration, dtype=np.float64),
            weight_format=fmt,
            activation_format=fmt,
            nonidealities=nonidealities,
            batch_size=batch_size,
            seed=seed,
        )
        report = run_model(model, test_images, test_labels,
                           backend=backend_name, context=context)
        results[name] = PTQResult(
            format_name=fmt.name,
            accuracy=report.accuracy,
            fp32_accuracy=baseline.accuracy,
        )
    return results
