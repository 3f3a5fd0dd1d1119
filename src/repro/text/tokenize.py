"""Query tokenisation.

Search queries are short, noisy strings; the pipeline used throughout
the repository (sensitivity analysis, SimAttack, the search engine
indexer) is: lowercase → split on non-alphanumerics → drop stopwords
and single characters → optionally Porter-stem.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.text.cache import DEFAULT_QUERY_CACHE_SIZE, LruCache

# A compact English stopword list — enough to keep function words out of
# user profiles without deleting informative query terms.
STOPWORDS = frozenset("""
a about above after again all am an and any are as at be because been
before being below between both but by can did do does doing down during
each few for from further had has have having he her here hers him his
how i if in into is it its itself just me more most my myself no nor not
now of off on once only or other our ours out over own same she so some
such than that the their theirs them then there these they this those
through to too under until up very was we were what when where which
while who whom why will with you your yours
""".split())

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str, drop_stopwords: bool = True,
             min_length: int = 2) -> List[str]:
    """Split *text* into normalised tokens.

    Parameters
    ----------
    text:
        Raw query or document text.
    drop_stopwords:
        Remove members of :data:`STOPWORDS`.
    min_length:
        Drop tokens shorter than this many characters.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    return [
        token for token in tokens
        if len(token) >= min_length
        and not (drop_stopwords and token in STOPWORDS)
    ]


#: query text -> tuple of stemmed tokens. Immutable values, shared.
_STEMMED_CACHE = LruCache("stemmed_terms", DEFAULT_QUERY_CACHE_SIZE)


def stemmed_terms(text: str) -> Tuple[str, ...]:
    """Tokenise then Porter-stem, memoized.

    Returns an immutable tuple so the cached value can be shared by
    every caller; the bounded memo (and its hit/miss counters) lives in
    :mod:`repro.text.cache`.
    """
    try:
        return _STEMMED_CACHE.lookup(text)
    except KeyError:
        from repro.text.stem import porter_stem

        terms = tuple(porter_stem(token) for token in tokenize(text))
        return _STEMMED_CACHE.store(text, terms)
