"""Aspect-level sentiment analytics for tweet corpora.

The pipeline runs in four stages: ingest and filter a JSONL tweet corpus,
adjudicate multi-annotator aspect/sentiment labels into a dataset, train a
two-stage (aspect detection + sentiment classification) linear-head model
over pluggable text embeddings, and compute the downstream time-series and
group-comparison statistics (daily proportions, moving averages, Granger
causality, Welch t-tests).

BLAS runs one thread, whatever the caller set: the package's parallelism is
its forked workers, and a dense product's bits then do not depend on the
host's thread count. The setting takes effect where the package loads before
numpy, as under `python -m aspectsent` and the `aspectsent` script.
"""

import os

# read once, when numpy loads its BLAS
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                "1"))

__version__ = "0.1.0"
