"""Experiment drivers: one module per table/figure of the paper.

Every module exposes ``run(...) -> dict`` returning the rows/series the
paper reports, and prints a formatted report when executed as a module
(``python -m repro.experiments.fig5``). The benchmark harness under
``benchmarks/`` calls the same ``run`` functions at reduced scale;
module CLIs default to paper scale.

| Module              | Reproduces                                     |
|---------------------|------------------------------------------------|
| table1_properties   | Table I property matrix (behavioural probes)   |
| table2_categorizer  | Table II categorizer precision/recall          |
| fig5_reidentification | Fig 5 re-identification rates                |
| fig6_accuracy       | Fig 6 correctness/completeness                 |
| fig7_adaptive_k     | Fig 7 CDF of the adaptive k                    |
| fig8a_latency       | Fig 8a end-to-end latency CDFs                 |
| fig8b_k_latency     | Fig 8b latency vs k                            |
| fig8c_throughput    | Fig 8c throughput/latency saturation           |
| fig8d_ratelimit     | Fig 8d rate-limit survival                     |
| ablations           | design-choice ablations called out in DESIGN.md |
"""
