"""Descriptive statistics of a query log.

Companion to the generator and the real-data loader: before running
experiments on a log (synthetic or loaded), inspect whether it has the
structure the attacks and protections assume — activity skew, per-user
vocabulary distinctiveness, sensitivity rate.

``python -m repro.datasets.stats`` prints the default synthetic log's
profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.datasets.aol import SyntheticAolLog, generate_aol_log
from repro.text.tokenize import tokenize


@dataclass(frozen=True)
class LogStats:
    """Summary of one query log."""

    num_users: int
    num_queries: int
    sensitive_rate: float
    mean_queries_per_user: float
    median_queries_per_user: float
    max_queries_per_user: int
    activity_skew: float          # max/median — heavy tail indicator
    vocabulary_size: int
    mean_terms_per_query: float
    mean_user_overlap: float      # pairwise Jaccard of user term sets

    def rows(self) -> List[List[str]]:
        return [
            ["users", str(self.num_users)],
            ["queries", str(self.num_queries)],
            ["sensitive rate", f"{self.sensitive_rate * 100:.2f} %"],
            ["queries/user (mean)", f"{self.mean_queries_per_user:.1f}"],
            ["queries/user (median)", f"{self.median_queries_per_user:.1f}"],
            ["queries/user (max)", str(self.max_queries_per_user)],
            ["activity skew (max/median)", f"{self.activity_skew:.1f}x"],
            ["vocabulary size", str(self.vocabulary_size)],
            ["terms/query (mean)", f"{self.mean_terms_per_query:.2f}"],
            ["user term overlap (Jaccard)",
             f"{self.mean_user_overlap:.3f}"],
        ]


def describe(log: SyntheticAolLog, overlap_sample: int = 20) -> LogStats:
    """Compute :class:`LogStats` for *log*.

    *overlap_sample* bounds the pairwise-overlap computation to the
    most active users (it is quadratic).
    """
    if not log.records:
        raise ValueError("log is empty")
    counts = [len(log.queries_of(user)) for user in log.users
              if log.queries_of(user)]
    counts.sort()
    median = counts[len(counts) // 2]

    vocabulary = set()
    total_terms = 0
    user_terms: Dict[str, set] = {}
    for record in log.records:
        terms = tokenize(record.text)
        total_terms += len(terms)
        vocabulary.update(terms)
        user_terms.setdefault(record.user_id, set()).update(terms)

    sampled = log.most_active_users(overlap_sample)
    overlaps: List[float] = []
    for i, user_a in enumerate(sampled):
        for user_b in sampled[i + 1:]:
            a = user_terms.get(user_a, set())
            b = user_terms.get(user_b, set())
            union = a | b
            if union:
                overlaps.append(len(a & b) / len(union))
    mean_overlap = sum(overlaps) / len(overlaps) if overlaps else 0.0

    return LogStats(
        num_users=len(log.users),
        num_queries=len(log.records),
        sensitive_rate=log.sensitive_rate(),
        mean_queries_per_user=len(log.records) / max(1, len(counts)),
        median_queries_per_user=float(median),
        max_queries_per_user=counts[-1],
        activity_skew=counts[-1] / max(1, median),
        vocabulary_size=len(vocabulary),
        mean_terms_per_query=total_terms / len(log.records),
        mean_user_overlap=mean_overlap,
    )


def main() -> None:
    log = generate_aol_log(num_users=100, mean_queries_per_user=100,
                           seed=0)
    rows = describe(log).rows()
    width = max(len(label) for label, _ in rows)
    print("== Default synthetic AOL-like log ==")
    for label, value in rows:
        print(f"{label.ljust(width)}  {value}")
    print("\nLow user-term overlap + heavy activity skew are what make "
          "SimAttack's\nprofile matching work — check these before "
          "trusting results on custom data.")


if __name__ == "__main__":
    main()
