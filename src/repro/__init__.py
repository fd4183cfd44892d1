"""AFPR-CIM reproduction library.

A simulation-level, pure-Python reproduction of *AFPR-CIM: An Analog-Domain
Floating-Point RRAM-based Compute-In-Memory Architecture with Dynamic Range
Adaptive FP-ADC* (DATE 2024).

Sub-packages
------------
``repro.formats``
    FP8 (E2M5 / E3M4) and integer number formats, rounding, quantisers.
``repro.rram``
    Multi-level RRAM device model and crossbar MAC engine.
``repro.circuits``
    Behavioural mixed-signal blocks (integrator, comparator, capacitor bank,
    single-slope converter, PGA, references, noise, transient recording).
``repro.core``
    The paper's contribution: FP-DAC, dynamic-range adaptive FP-ADC, the
    576x256 AFPR-CIM macro, network mapping and the multi-macro accelerator.
``repro.power``
    Module-level energy / power models and throughput / efficiency metrics.
``repro.baselines``
    The INT single-slope reference ADC and analytical models of the
    compared architectures, plus the published Table-I records.
``repro.nn``
    A from-scratch numpy NN substrate (layers, training, ResNet-lite /
    MobileNet-lite, synthetic dataset, PTQ flow, CIM-mapped execution).
``repro.exec``
    The unified execution engine: an ``ExecutionBackend`` registry
    (``ideal`` / ``fake_quant`` / ``fast_noise`` / ``analog``) behind one
    ``run_model(model, data, backend=...)`` entry point.
``repro.serve``
    The dynamic-batching inference service: micro-batcher, multi-macro
    scheduler, metrics, load generator, thread and process workers, and
    the shared-memory slot rings.
``repro.shard``
    Pipeline-parallel sharding: compiled plans cut into per-stage partial
    plans and executed across stage processes joined by shared-memory
    rings.  A process worker of ``repro.serve`` is the one-stage case.
``repro.analysis``
    Experiment runners regenerating every figure and table of the paper.
"""

from repro.core import (
    ADCConfig,
    DACConfig,
    MacroConfig,
    FPADC,
    FPADCTransient,
    FPDAC,
    AFPRMacro,
    AFPRAccelerator,
    MappedLayer,
    e2m5_macro_config,
    e3m4_macro_config,
    macro_config_for_format,
)
from repro.formats import E2M5, E3M4, INT8, FloatFormat, IntFormat

__version__ = "1.0.0"

__all__ = [
    "ADCConfig",
    "DACConfig",
    "MacroConfig",
    "FPADC",
    "FPADCTransient",
    "FPDAC",
    "AFPRMacro",
    "AFPRAccelerator",
    "MappedLayer",
    "e2m5_macro_config",
    "e3m4_macro_config",
    "macro_config_for_format",
    "E2M5",
    "E3M4",
    "INT8",
    "FloatFormat",
    "IntFormat",
    "__version__",
]
