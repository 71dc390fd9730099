"""Aspect-level sentiment analytics for tweet corpora.

The pipeline runs in four stages: ingest and filter a JSONL tweet corpus,
adjudicate multi-annotator aspect/sentiment labels into a dataset, train a
two-stage (aspect detection + sentiment classification) linear-head model
over pluggable text embeddings, and compute the downstream time-series and
group-comparison statistics (daily proportions, moving averages, Granger
causality, Welch t-tests).
"""

__version__ = "0.1.0"
