"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (or one of
the design-choice ablations of :mod:`repro.analysis.ablations`) and checks the reproduced numbers against the
paper's claims while pytest-benchmark records the runtime.  Run with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to also see the rendered ASCII tables for each experiment.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--full-fig6c",
        action="store_true",
        default=False,
        help="run the Fig. 6(c) accuracy benchmark at full size (slower)",
    )


@pytest.fixture
def full_fig6c(request):
    """Whether the accuracy benchmark should use the full-size workload."""
    return request.config.getoption("--full-fig6c")
