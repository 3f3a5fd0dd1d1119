"""State-of-the-art private web-search baselines (§II, §VII-A).

Every system the paper compares against, implemented as an *analytic*
pipeline (what reaches the engine, what the user gets back — used by
the privacy and accuracy experiments, Figs 5-7 and Table I). The three
systems whose latency the paper measures also run as network nodes
over the simulator for Fig 8a — Direct, TOR and X-Search — and
X-Search's enclave alone drives Fig 8c:

- :mod:`repro.baselines.direct`     — no protection; the engine sees
  (user, query) directly.
- :mod:`repro.baselines.tor`        — onion routing: unlinkability
  only. The network version builds real 3-relay circuits with layered
  RSA-hybrid encryption over heavy-tailed relay links.
- :mod:`repro.baselines.trackmenot` — browser extension sending
  RSS-feed fake queries under the user's own identity, modelled as a
  fixed number of fakes per real query.
- :mod:`repro.baselines.goopir`     — OR-aggregation of the real query
  with k dictionary-drawn fakes, client-side filtering.
- :mod:`repro.baselines.peas`       — proxy + issuer: unlinkability via
  the non-colluding pair, fakes from a co-occurrence matrix of other
  users' past queries, OR-aggregation.
- :mod:`repro.baselines.xsearch`    — SGX proxy: unlinkability via the
  proxy, fakes from the proxy's past-query table, group obfuscation.
- :mod:`repro.baselines.cyclosa_analytic` — CYCLOSA's protection logic
  in analytic form (adaptive k, past-query fakes, per-query relays),
  statistically identical to the full stack and fast enough for the
  30 k-query privacy runs.
"""

from repro.baselines.base import (
    AttackSurface,
    EngineObservation,
    PrivateSearchSystem,
)
from repro.baselines.cyclosa_analytic import CyclosaAnalytic
from repro.baselines.direct import DirectSearch
from repro.baselines.goopir import GooPir
from repro.baselines.peas import Peas
from repro.baselines.tor import TorSearch
from repro.baselines.trackmenot import TrackMeNot
from repro.baselines.xsearch import XSearch

__all__ = [
    "AttackSurface",
    "EngineObservation",
    "PrivateSearchSystem",
    "CyclosaAnalytic",
    "DirectSearch",
    "GooPir",
    "Peas",
    "TorSearch",
    "TrackMeNot",
    "XSearch",
]
