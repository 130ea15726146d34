"""Bag-of-visual-words image representation and dictionary experiments.

Pipeline: dense-grid SIFT descriptors -> randomly sampled visual dictionary
-> per-point word assignment (hard or Gaussian soft) -> pooling (max or
average) -> linear one-vs-rest SVM. The harness layer reruns the pipeline
under seeded protocols to measure how dictionary source and class diversity
affect classification accuracy.
"""

__version__ = "0.1.0"
