"""The execution-backend protocol: one interface for every way to run a model.

Network-on-CIM execution historically lived in three ad-hoc places — the
lumped-noise PTQ flow (:mod:`repro.nn.quantize`), the hardware-in-the-loop
macro mapping (:mod:`repro.nn.cim_backend`) and the plain floating-point
reference.  An :class:`ExecutionBackend` wraps each of those behind the same
``prepare`` / ``forward`` / ``teardown`` lifecycle, so experiment runners and
benchmarks can swap the execution substrate with a string
(``run_model(model, x, backend="analog")``).

Backends are stateful on purpose: ``prepare`` may build expensive state (for
the analog backend, programming and calibrating every macro tile) and a
backend instance caches that state across runs, so repeated evaluations of
the same model skip re-calibration.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Optional, Tuple, Union

import numpy as np

from repro.core.config import MacroConfig
from repro.formats.fp8 import E2M5, FloatFormat
from repro.formats.intq import IntFormat
from repro.nn.model import Model
from repro.nn.quantize import CIMNonidealities

FormatLike = Union[FloatFormat, IntFormat]


@dataclasses.dataclass(frozen=True)
class ExecutionContext:
    """Everything a backend may need to set itself up for a model.

    Attributes
    ----------
    calibration:
        A representative input batch used to calibrate activation ranges
        (quantiser observers, macro activation scales and ADC full-scale
        currents).  Backends that need calibration fall back to synthetic
        statistics when it is omitted.
    macro_config:
        Macro configuration for hardware-in-the-loop execution and for
        extracting lumped non-idealities.
    weight_format / activation_format:
        Number formats used by the quantising backends.
    nonidealities:
        Lumped CIM noise for the ``fast_noise`` backend; extracted from the
        macro model when omitted.
    max_mapped_layers:
        Cap on how many matmul layers the ``analog`` backend maps onto
        macros (``None`` maps everything).
    batch_size:
        Minibatch size of the evaluation loop.
    seed:
        Seed for the stochastic parts of a backend.
    compile_plan:
        Compile the prepared backend state into a :class:`~repro.exec.plan.
        ModelPlan` with LUT-fused conversion kernels and pre-packed tiles
        (bit-identical, faster).  ``False`` keeps the generic kernels — the
        hook path, which is the bit-identity oracle the plan is tested
        against.
    """

    calibration: Optional[np.ndarray] = None
    macro_config: MacroConfig = dataclasses.field(default_factory=MacroConfig)
    weight_format: FormatLike = E2M5
    activation_format: FormatLike = E2M5
    nonidealities: Optional[CIMNonidealities] = None
    max_mapped_layers: Optional[int] = None
    batch_size: int = 64
    seed: int = 0
    compile_plan: bool = True

    def __post_init__(self) -> None:
        if self.max_mapped_layers is not None and self.max_mapped_layers < 0:
            raise ValueError(
                f"max_mapped_layers must be None (map every layer) or >= 0, "
                f"got {self.max_mapped_layers}")


@dataclasses.dataclass
class ExecutionReport:
    """Outcome of running a model through one backend.

    ``wall_time_s`` covers only the forward passes, not ``prepare`` — the
    preparation cost is reported separately so throughput numbers compare
    steady-state inference.  ``cpu_time_s`` is the calling thread's CPU time
    over the same forwards, which run on that thread with one BLAS thread;
    below ``wall_time_s`` it shows the forwards waiting for a core.
    """

    backend: str
    logits: np.ndarray
    samples: int
    wall_time_s: float
    prepare_time_s: float
    accuracy: Optional[float] = None
    conversions: int = 0
    #: Per-stage (DAC / crossbar / ADC / digital) wall-clock breakdown from
    #: the execution plan's instrumentation, when a plan ran the batches.
    stage_profile: Optional[dict] = None
    #: How the batches executed: ``"compiled"`` (compiled plan kernels) or
    #: ``"generic"`` (no plan kernels ran).
    plan_mode: str = "generic"
    cpu_time_s: float = 0.0
    #: Bytes the plan's scratch arena held after the last forward, and the
    #: ``(name, bytes)`` of its biggest slab (``None`` when it held none).
    scratch_bytes: int = 0
    largest_slab: Optional[Tuple[str, int]] = None

    @property
    def samples_per_second(self) -> float:
        """Steady-state inference throughput of the backend."""
        if self.wall_time_s <= 0:
            return float("inf")
        return self.samples / self.wall_time_s


class ExecutionBackend:
    """Common lifecycle of every execution substrate.

    ``prepare`` installs whatever the backend needs on the model (adapters,
    macro mappings), ``forward`` runs one minibatch, and ``teardown``
    restores digital execution.  ``teardown`` must leave the model exactly
    as ``prepare`` found it, but may keep internal state so the next
    ``prepare`` of the same model is cheap.
    """

    #: Registry name of the backend (set by subclasses).
    name: ClassVar[str] = "abstract"

    def prepare(self, model: Model, context: ExecutionContext) -> None:
        """Install the backend on ``model`` (default: nothing to do)."""

    def forward(self, model: Model, images: np.ndarray) -> np.ndarray:
        """Run one minibatch through the prepared model.

        The default runs ``model.forward``, which a
        :class:`~repro.exec.plan.ModelPlan` lowers into its op program; a
        backend that overrides this runs whole, as one op.
        """
        return model.forward(np.asarray(images, dtype=np.float64), training=False)

    def teardown(self, model: Model) -> None:
        """Restore plain digital execution (default: nothing to do)."""

    def conversions(self) -> int:
        """Analog macro conversions spent so far (0 for digital backends)."""
        return 0
