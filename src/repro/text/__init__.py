"""Text and NLP substrate.

Everything CYCLOSA's sensitivity analysis needs, implemented from
scratch:

- :mod:`repro.text.tokenize`  — query tokenisation + stopwords.
- :mod:`repro.text.stem`      — the Porter stemmer (memoized).
- :mod:`repro.text.cache`     — bounded LRU memos in front of the
  tokenize → stem → vectorize pipeline, with hit/miss/eviction
  counters exportable through :mod:`repro.obs`
  (see ``docs/performance.md``).
- :mod:`repro.text.vectorize` — binary/sparse term vectors and cosine
  similarity (the distance both the linkability assessment and the
  SimAttack adversary use).
- :mod:`repro.text.smoothing` — exponential smoothing of ranked
  similarities (the aggregation SimAttack defines).
- :mod:`repro.text.lda`       — Latent Dirichlet Allocation via
  collapsed Gibbs sampling (Blei et al. 2003), used to learn
  sensitive-topic term dictionaries.
- :mod:`repro.text.wordnet`   — a synthetic WordNet: synsets plus
  eXtended-WordNet-Domains-style domain labels, with calibrated
  coverage/noise so dictionary tagging shows the paper's
  precision/recall trade-off (Table II).
"""

from repro.text.cache import (
    LruCache,
    cache_stats,
    clear_caches,
    install_metrics,
    publish_metrics,
)
from repro.text.smoothing import exponential_smoothing, smoothed_similarity
from repro.text.stem import porter_stem
from repro.text.tokenize import STOPWORDS, stemmed_terms, tokenize
from repro.text.vectorize import cosine_binary, query_vector

__all__ = [
    "exponential_smoothing",
    "smoothed_similarity",
    "porter_stem",
    "STOPWORDS",
    "tokenize",
    "stemmed_terms",
    "LruCache",
    "cache_stats",
    "clear_caches",
    "install_metrics",
    "publish_metrics",
    "cosine_binary",
    "query_vector",
]
