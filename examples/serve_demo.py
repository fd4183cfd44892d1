#!/usr/bin/env python3
"""Serve a trained CNN through the dynamic-batching inference service.

The serving workflow behind ``python -m repro serve`` (:mod:`repro.serve`):

1. train a small CNN on the synthetic image task,
2. start the asyncio inference service — request queue, dynamic
   micro-batcher, multi-macro scheduler, per-worker execution backends —
   and drive it with a seeded open-loop Poisson arrival process,
3. compare dynamic batching (``max_batch=64``) against batch-size-1 serving
   at the same offered load by their p50 / p99 latency, and print the full
   metrics report (latency percentiles, batch-size histogram, queue depth,
   energy per request),
4. repeat on two workers to show the round-robin scheduler spreading the
   batches over both (exits non-zero if either worker sat idle).

Run with::

    python examples/serve_demo.py
"""

from repro.serve import ServeConfig, run_loadtest
from repro.serve.cli import demo_workload


def main() -> None:
    print("Training the demo CNN ...")
    model, _, images = demo_workload(seed=0)

    print("\n=== Dynamic batching (max_batch=64, Poisson arrivals) ===")
    batched = run_loadtest(model, images, ServeConfig(max_batch=64),
                           pattern="poisson", rate_rps=4000.0,
                           num_requests=256, seed=0)
    print(batched.render())

    print("\n=== Batch-size-1 serving at the same offered load ===")
    batch1 = run_loadtest(model, images, ServeConfig(max_batch=1),
                          pattern="poisson", rate_rps=4000.0,
                          num_requests=256, seed=0)
    print(batch1.render())
    print(f"\nLatency at {batched.offered_rate_rps:.0f} req/s offered (p50 / p99):")
    for name, result in (("max_batch=64", batched), ("max_batch=1", batch1)):
        print(f"  {name:<13} {result.snapshot.latency_p50_ms:.2f} / "
              f"{result.snapshot.latency_p99_ms:.2f} ms")

    print("\n=== Two workers, round-robin placement, bursty arrivals ===")
    scaled = run_loadtest(
        model, images, ServeConfig(max_batch=32, num_workers=2),
        pattern="bursty", rate_rps=6000.0, num_requests=256, seed=1)
    print(scaled.render())
    idle = [worker.index for worker in scaled.snapshot.workers
            if worker.batches == 0]
    if idle:
        raise SystemExit(f"workers {idle} served no batch")


if __name__ == "__main__":
    main()
