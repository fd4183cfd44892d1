"""Experiment runners that regenerate every table and figure of the paper.

Each module produces a plain result dataclass plus an ASCII rendering, so
the benchmarks (and the examples) can print the same rows / series the paper
reports and set the reproduced values beside the paper's:

* :mod:`repro.analysis.fig5a` — FP-ADC transient example (Fig. 5(a)),
* :mod:`repro.analysis.fig5b` — FP-DAC / cell-current linearity (Fig. 5(b)),
* :mod:`repro.analysis.fig6_power` — module power breakdown and total power
  for INT8 / E3M4 / E2M5 (Fig. 6(a)/(b) and the Section IV-B percentages),
* :mod:`repro.analysis.fig6c` — PTQ Top-1 accuracy for the three formats on
  the ResNet-style and MobileNet-style networks (Fig. 6(c)),
* :mod:`repro.analysis.table1` — the macro comparison table (Table I) with
  the recomputed 4.135x / 5.376x / 2.841x / 5.382x ratios,
* :mod:`repro.analysis.ablations` — the design-choice ablations (format
  trade-off, capacitor ladder, adaptive vs fixed range, sparsity sweep),
* :mod:`repro.analysis.report` — small ASCII table / series helpers.
"""

from repro.analysis.report import render_table, render_series, format_quantity
from repro.analysis.fig5a import Fig5aResult, run_fig5a
from repro.analysis.fig5b import Fig5bResult, run_fig5b
from repro.analysis.fig6_power import Fig6PowerResult, run_fig6_power
from repro.analysis.fig6c import Fig6cResult, run_fig6c
from repro.analysis.table1 import Table1Result, run_table1
from repro.analysis.ablations import (
    CapLadderAblation,
    run_cap_ladder_ablation,
    AdaptiveRangeAblation,
    run_adaptive_vs_fixed_ablation,
    SparsityAblation,
    run_sparsity_ablation,
    FormatAblation,
    run_format_ablation,
)

__all__ = [
    "render_table",
    "render_series",
    "format_quantity",
    "Fig5aResult",
    "run_fig5a",
    "Fig5bResult",
    "run_fig5b",
    "Fig6PowerResult",
    "run_fig6_power",
    "Fig6cResult",
    "run_fig6c",
    "Table1Result",
    "run_table1",
    "CapLadderAblation",
    "run_cap_ladder_ablation",
    "AdaptiveRangeAblation",
    "run_adaptive_vs_fixed_ablation",
    "SparsityAblation",
    "run_sparsity_ablation",
    "FormatAblation",
    "run_format_ablation",
]
