"""Benchmark: per-backend inference throughput of the execution engine.

Two acceptance bars, measured on a small trained CNN:

* every registered backend clears a sanity accuracy bound on the same
  workload (throughput table),
* the compiled execution plan produces **bit-identical** logits and
  conversion counts to the ``compile_plan=False`` oracle on every
  registered backend; the outcome lands in ``BENCH_exec.json``.

Timing uses the shared best-of-N helpers in :mod:`_timing`.
``BENCH_SMOKE=1`` selects the reduced-size CI configuration.

Run with::

    pytest benchmarks/bench_exec_backends.py --benchmark-only -s
"""

import numpy as np
import pytest

from _timing import smoke_mode, write_bench_json
from repro.core import MacroConfig
from repro.exec import available_backends, compare_backends, run_model
from repro.nn import DatasetConfig, SGD, SyntheticImageDataset, Trainer, build_resnet_lite
from repro.nn.quantize import CIMNonidealities
from repro.rram.device import RRAMStatistics

SAMPLES = 32 if smoke_mode() else 64


@pytest.fixture(scope="module")
def workload():
    """A small trained CNN plus an evaluation batch."""
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=8, image_size=16,
                                                  noise_sigma=0.3, seed=7))
    x_train, y_train, x_test, y_test = dataset.train_test_split(320, SAMPLES)
    model = build_resnet_lite(num_classes=8, stage_widths=(8, 16), blocks_per_stage=1,
                              seed=7)
    Trainer(model, SGD(model.parameters(), learning_rate=0.05), batch_size=32).fit(
        x_train, y_train, epochs=1 if smoke_mode() else 2
    )
    quiet = RRAMStatistics(programming_sigma=0.01, read_noise_sigma=0.005,
                           stuck_at_lrs_probability=0.0, stuck_at_hrs_probability=0.0)
    macro_config = MacroConfig(device_statistics=quiet)
    return model, x_train, x_test, y_test, macro_config


@pytest.mark.benchmark(group="exec-backends")
def test_backend_throughput_table(benchmark, workload):
    """Record samples/s for every registered backend on the same workload."""
    model, x_train, x_test, y_test, macro_config = workload

    def run_all():
        return compare_backends(
            model, x_test, y_test,
            backends=available_backends(),
            calibration=x_train[:16],
            macro_config=macro_config,
            nonidealities=CIMNonidealities(mac_noise_sigma=0.02),
            max_mapped_layers=2,
            seed=0,
        )

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print(f"\nPer-backend throughput ({SAMPLES}-sample CNN inference):")
    ideal = reports["ideal"].accuracy
    for name, report in sorted(reports.items()):
        print(f"  {name:12s} {report.samples_per_second:10.1f} samples/s  "
              f"accuracy {report.accuracy:.3f}")
        assert report.accuracy >= ideal - 0.2, name


@pytest.mark.benchmark(group="exec-backends")
def test_compiled_plan_bit_identical_every_backend(benchmark, workload):
    """The compiled execution plan produces bit-identical logits and
    conversion counts to the ``compile_plan=False`` oracle on every
    registered backend, and writes the ``BENCH_exec.json`` record.

    Bit identity is checked with a *fresh* backend per path so both consume
    identical random streams (programming noise at prepare, read noise per
    forward) from the same seeds — the plan's LUT kernels then reproduce the
    generic arithmetic exactly.  The check maps every matmul layer, so each
    one runs analog and is compared bit for bit.  It covers calibration
    too: in its one calibration forward the planned analog runner
    calibrates each layer on the compiled kernels of the layers before it,
    the oracle on the hook path, so any calibration drift shows up in the
    compared logits.  Both runners'
    ``prepare_time_s`` land in the record, for information only.  Plan
    speed is measured by perfbench (``offline-resnet-analog``
    ``samples_per_s``, ``setup_s`` and the per-layer
    ``exec.L<i>.vs_matmul`` ratios), not against the oracle.
    """
    model, x_train, x_test, y_test, macro_config = workload
    all_mapped = dict(calibration=x_train[:16], macro_config=macro_config,
                      max_mapped_layers=None, seed=0)

    def check_identity():
        outcomes, prepare_s = {}, {}
        for backend in available_backends():
            planned = run_model(model, x_test, backend=backend,
                                batch_size=SAMPLES, **all_mapped)
            generic = run_model(model, x_test, backend=backend,
                                batch_size=SAMPLES, compile_plan=False,
                                **all_mapped)
            outcomes[backend] = bool(
                np.array_equal(planned.logits, generic.logits)
                and planned.conversions == generic.conversions)
            prepare_s[backend] = {"planned": planned.prepare_time_s,
                                  "oracle": generic.prepare_time_s}
        return outcomes, prepare_s

    outcomes, prepare_s = benchmark.pedantic(check_identity, rounds=1,
                                             iterations=1)
    print("\nPlanned-vs-generic bit identity (prepare time planned / oracle):")
    for backend, identical in sorted(outcomes.items()):
        print(f"  {backend:12s} {'bit-identical' if identical else 'MISMATCH':14s}"
              f"{prepare_s[backend]['planned'] * 1e3:8.1f} / "
              f"{prepare_s[backend]['oracle'] * 1e3:.1f} ms")
    path = write_bench_json("exec", {"samples": SAMPLES,
                                     "bit_identical": outcomes,
                                     "prepare_time_s": prepare_s})
    print(f"Record written to {path}")
    assert all(outcomes.values()), outcomes
