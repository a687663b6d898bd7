"""Lifelong evaluation harness and baselines for drifting tabular streams.

The package covers the full loop of a code-submission benchmark: synthesize
or load chronologically ordered binary-classification streams, cut them
into blocks, drive predictors through the predict-then-reveal protocol
under per-dataset time budgets, score blocks with ROC AUC, and turn many
scored submissions into tie-broken, mergeable leaderboards.  An
incrementally grown gradient-boosted tree baseline with two drift policies
ships both as an in-process adapter and as an external program
answering the harness request loop.
"""

__version__ = "0.1.0"
