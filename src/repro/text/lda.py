"""Latent Dirichlet Allocation via collapsed Gibbs sampling.

The paper trains an LDA model (Mallet, 200 topics, 2 M documents) on a
sensitive-subject corpus and declares a query sensitive when any of its
terms appears in a learned topic (§V-F). This module implements the same
generative model from scratch:

- Collapsed Gibbs sampler (Griffiths & Steyvers 2004): topic assignment
  ``z_i`` for each token is resampled from
  ``p(z_i = k | ·) ∝ (n_dk + α) · (n_kw + β) / (n_k + Vβ)``.
- Count matrices are kept in numpy; the sampler is vectorised per token
  over topics, which is fast enough for the corpus sizes the synthetic
  datasets produce.

The fitted model exposes the artefact CYCLOSA consumes: per-topic term
dictionaries (top-weight terms above a probability threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

import numpy as np


@dataclass
class LdaModel:
    """A fitted LDA model (vocabulary, counts, the topic-term prior)."""

    num_topics: int
    beta: float
    vocabulary: List[str]
    topic_word_counts: np.ndarray  # shape (K, V)
    document_frequency: np.ndarray = None  # shape (V,), fraction of docs

    def topic_term_distribution(self, topic: int) -> np.ndarray:
        """phi_k: the term distribution of one topic."""
        counts = self.topic_word_counts[topic] + self.beta
        return counts / counts.sum()

    def term_dictionary(self, topn_per_topic: int = 25,
                        min_probability: float = 0.0,
                        max_doc_frequency: float = 0.2) -> Set[str]:
        """Union of the top terms of every topic (the tagging dictionary).

        This is the artefact §V-F describes: "every query including a
        term present in at least one LDA topic ... is identified as
        semantically sensitive".

        *max_doc_frequency* drops corpus-wide glue words: a term that
        occurs in more than this fraction of the training documents is
        background vocabulary ("free", "best", "video", ...), not
        topical signal. This plays the role of the extended stoplist in
        the Mallet pipeline the paper used — without it, every query
        containing a glue word would be tagged sensitive.
        """
        terms: Set[str] = set()
        for topic in range(self.num_topics):
            phi = self.topic_term_distribution(topic)
            order = np.argsort(phi)[::-1][:topn_per_topic]
            for index in order:
                probability = float(phi[index])
                if probability < min_probability:
                    break
                if self.document_frequency is not None and \
                        float(self.document_frequency[index]) > max_doc_frequency:
                    continue
                terms.add(self.vocabulary[index])
        return terms


def fit_lda(documents: Sequence[Sequence[str]], num_topics: int,
            iterations: int = 150, alpha: float = 0.1, beta: float = 0.01,
            seed: int = 0) -> LdaModel:
    """Fit LDA on tokenised *documents* with collapsed Gibbs sampling.

    Parameters
    ----------
    documents:
        Tokenised corpus (list of token lists). Empty documents are
        skipped.
    num_topics:
        Number of latent topics K.
    iterations:
        Full Gibbs sweeps over the corpus.
    alpha, beta:
        Symmetric Dirichlet priors over document-topic and topic-term
        distributions.
    seed:
        Sampler seed; fits are deterministic given (corpus, seed).
    """
    if num_topics < 1:
        raise ValueError("num_topics must be >= 1")
    rng = np.random.default_rng(seed)

    vocabulary: List[str] = []
    word_index: Dict[str, int] = {}
    doc_words: List[np.ndarray] = []
    for document in documents:
        ids = []
        for token in document:
            index = word_index.get(token)
            if index is None:
                index = len(vocabulary)
                word_index[token] = index
                vocabulary.append(token)
            ids.append(index)
        if ids:
            doc_words.append(np.array(ids, dtype=np.int64))

    num_docs = len(doc_words)
    vocab_size = len(vocabulary)
    if num_docs == 0 or vocab_size == 0:
        raise ValueError("corpus is empty after tokenisation")

    topic_word = np.zeros((num_topics, vocab_size), dtype=np.float64)
    doc_topic = np.zeros((num_docs, num_topics), dtype=np.float64)
    topic_totals = np.zeros(num_topics, dtype=np.float64)
    assignments: List[np.ndarray] = []

    for d, words in enumerate(doc_words):
        z = rng.integers(0, num_topics, size=len(words))
        assignments.append(z)
        for word_id, topic in zip(words, z):
            topic_word[topic, word_id] += 1
            doc_topic[d, topic] += 1
            topic_totals[topic] += 1

    vbeta = vocab_size * beta
    for _ in range(iterations):
        for d, words in enumerate(doc_words):
            z = assignments[d]
            for position in range(len(words)):
                word_id = words[position]
                topic = z[position]
                # Remove the token from the counts.
                topic_word[topic, word_id] -= 1
                doc_topic[d, topic] -= 1
                topic_totals[topic] -= 1
                # Collapsed conditional over topics (vectorised).
                weights = ((doc_topic[d] + alpha)
                           * (topic_word[:, word_id] + beta)
                           / (topic_totals + vbeta))
                # Inverse-CDF draw: much faster than rng.choice per token.
                cumulative = np.cumsum(weights)
                topic = int(np.searchsorted(
                    cumulative, rng.random() * cumulative[-1]))
                z[position] = topic
                topic_word[topic, word_id] += 1
                doc_topic[d, topic] += 1
                topic_totals[topic] += 1

    doc_frequency = np.zeros(vocab_size, dtype=np.float64)
    for words in doc_words:
        for word_id in set(words.tolist()):
            doc_frequency[word_id] += 1
    doc_frequency /= num_docs

    return LdaModel(
        num_topics=num_topics,
        beta=beta,
        vocabulary=vocabulary,
        topic_word_counts=topic_word,
        document_frequency=doc_frequency,
    )
