"""Host probes: environment fingerprint, reference kernel, CPU and memory.

The reference kernel is a fixed element-wise pass shaped like the
converters' table work (bucket, gather, round, accumulate) whose time tracks
the host's speed phase (neighbour load on a shared VM).  It calls no BLAS,
so it measures the host, not the BLAS configuration under test, and it runs
no repository code, so no change to the program moves it.
"""

from __future__ import annotations

import ctypes
import glob
import multiprocessing
import os
import platform
import resource
import signal
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Reference-kernel time (us) that host-normalised metrics are scaled to:
#: its typical median on a 2-vCPU x86-64 VM with numpy 2.4.
NOMINAL_REF_US = 5000.0
#: Timings of the bare matmul behind each layer's ``vs_matmul`` ratio.
MATMUL_REPEATS = 25
#: How long a child sent SIGTERM by ``stop_children`` has before SIGKILL.
STOP_GRACE_S = 10.0

_REF_RNG = np.random.default_rng(12345)
_REF_VALUES = _REF_RNG.standard_normal(65536)
_REF_EDGES = np.sort(_REF_RNG.standard_normal(255))
_REF_TABLE = _REF_RNG.standard_normal(256)


def reference_kernel_us() -> float:
    """One timing of the reference kernel over 65 536 float64 values.

    Measured against the offline forward's drift over 100 s (5 s medians),
    this kernel tracked it with a log-log slope of 1.06 and correlation
    0.93, and cut the forward's coefficient of variation from 9.5 % to
    3.4 %; a loop of small matmuls tracked it with a slope of only 0.4.
    """
    start = time.perf_counter()
    codes = np.searchsorted(_REF_EDGES, _REF_VALUES)
    levels = np.round(_REF_TABLE[codes] * 3.7) / 3.7 + _REF_VALUES
    levels.sum()
    return (time.perf_counter() - start) * 1e6


def reference_samples(count: int) -> List[float]:
    """``count`` back-to-back reference timings (for idle-time sampling)."""
    return [reference_kernel_us() for _ in range(count)]


def _openblas_threads() -> Optional[int]:
    """Effective OpenBLAS thread count via the bundled library, if present."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            handle = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def fingerprint() -> Dict[str, object]:
    """What a result depends on besides the code: cores, Python, BLAS."""
    blas = {}
    try:
        blas = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "start_method": multiprocessing.get_start_method(allow_none=False),
    }


def cpu_seconds() -> float:
    """CPU time of this process (all threads) plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def cpu_ticks() -> Tuple[int, int]:
    """``(stolen, total)`` CPU ticks of the whole machine from ``/proc/stat``.

    Steal is time the hypervisor ran someone else on this VM's vCPUs; its
    bursts are what stretch serving tails on a shared host.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(v) for v in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_pct(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of CPU time stolen between two :func:`cpu_ticks` readings."""
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def pid_cpu_seconds(pid: int) -> float:
    """CPU time of a live process (user + system) from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def reset_peak_rss(pid="self") -> None:
    """Lower a live process's peak resident set (VmHWM) to its current RSS.

    A peak read after this covers only the work that followed, not the
    set-up, training or checks that ran earlier in the process.
    """
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def _child_pids() -> List[int]:
    """Pids of this process's children, zombies included, from ``/proc``."""
    pids = []
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path, encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while the list was read
            continue
        if int(fields[1]) == os.getpid():
            pids.append(int(path.split("/")[2]))
    return pids


def stop_children() -> List[int]:
    """Stop every process this one started and wait until each has ended.

    ``multiprocessing``'s resource tracker, started by the first
    shared-memory segment, is built to outlive its parent; closing its pipe
    stops it.  Any other child still running is sent SIGTERM, then SIGKILL
    after ``STOP_GRACE_S``.  Returns the pids of the children (other than the
    tracker) that were still running.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    running = []
    for pid in _child_pids():
        try:
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                running.append(pid)
                os.kill(pid, signal.SIGTERM)
        except (ChildProcessError, ProcessLookupError):
            pass
    deadline = time.monotonic() + STOP_GRACE_S
    for pid in running:
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except (ChildProcessError, ProcessLookupError):
            pass
    return running


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a live process in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def layer_shapes(model, sample_shape: Sequence[int]) -> List[Tuple[int, int, int]]:
    """``(rows per sample, inputs, outputs)`` of each matmul layer's GEMM.

    Runs one digital forward of a copy of ``model`` with its matmul layers
    wrapped to record their output shapes; a conv layer's GEMM has one row
    per output pixel.  The order matches the plan's ``L<i>`` keys.
    """
    import copy

    probe = copy.deepcopy(model)
    layers = probe.matmul_layers()
    shapes: Dict[int, Tuple[int, int, int]] = {}

    def recorder(index, layer):
        plain = type(layer).forward

        def forward(x, training=False):
            out = plain(layer, x, training)
            outputs = out.shape[1]
            rows = int(np.prod(out.shape[2:])) if out.ndim == 4 else 1
            shapes[index] = (rows, layer.weight.value.size // outputs, outputs)
            return out
        return forward

    for index, layer in enumerate(layers):
        layer.forward = recorder(index, layer)
    probe.forward(np.zeros((1, *sample_shape)))
    if len(shapes) != len(layers):
        raise RuntimeError(f"recorded {len(shapes)} of {len(layers)} layers")
    return [shapes[index] for index in range(len(layers))]


def bare_matmul_ms(rows: int, inputs: int, outputs: int) -> float:
    """Median time of one same-shape float64 matmul (the per-layer yardstick)."""
    rng = np.random.default_rng(rows * 7919 + inputs * 31 + outputs)
    a = rng.standard_normal((rows, inputs))
    b = rng.standard_normal((inputs, outputs))
    a @ b
    times = []
    for _ in range(MATMUL_REPEATS):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2] * 1e3
