"""Streaming classification with a hedged multi-depth network.

A single deep ReLU network carries one softmax head per depth; the ensemble
prediction is the importance-weighted vote of all heads, with importances
maintained multiplicatively from per-head losses. An error-rate drift
detector triggers a memory-anchored parameter adaptation: a short refinement
on recent instances, a look-ahead step on a replayed batch from a reservoir
memory, and an interpolation of the main parameters toward the result.
Classic linear online learners and a test-then-train harness round out the
benchmark tooling.

Names are imported from their submodules (`bodl.harness`, `bodl.streams`,
...); the package root exports nothing.
"""
