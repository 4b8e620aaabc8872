"""Deterministic JOB/IMDB-style data generator with skew/correlation knobs.

Two tunable knobs shape the universe (both default to 0 = the
estimator-friendly uniform case):

- ``skew`` — the Zipf exponent of title popularity. Every fact row
  (cast_info / movie_companies / movie_keyword) draws its movie key from a
  Zipf(``skew``) distribution over titles, so at ``skew≈1.3`` the head few
  percent of titles own the majority of fact rows, as in IMDB.
- ``correlation`` — the probability that a *hot* (Zipf-head) title is a
  recent theatrical movie and that its fact rows reference US companies,
  action keywords and actor roles. At ``correlation≈0.9`` the benchmark
  queries' dimension filters (``t_kind='movie' AND t_year BETWEEN …``,
  ``co_country='US'``, ``k_group='action'``) all select *exactly the hot
  entities*: each filter looks selective to an independence-assuming
  estimator, but the filtered tables still join to nearly every fact row.
  That conjunction of traps is the regime COMPASS evaluates and the one
  where static plans collapse.

Hot titles occupy the *front* of the Zipf order (index 0 = most popular), so
"hot" is a deterministic property of the row index — no rejection sampling,
and the same universe is produced for any iteration order.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.common.rng import derive
from repro.workloads.job.schema import (
    QUERY_YEAR_HIGH,
    QUERY_YEAR_LOW,
    YEAR_HIGH,
    YEAR_LOW,
    row_counts,
)

TITLE_KINDS = ("movie", "tv series", "video", "episode", "documentary", "short")
COUNTRIES = ("US", "GB", "DE", "FR", "IN", "JP")
KEYWORD_GROUPS = ("action", "drama", "comedy", "family", "history", "noir")
ROLES = ("actor", "actress", "director", "producer", "writer", "editor")
GENDERS = ("f", "m")
NOTES = ("production", "distribution", "presentation")

#: fraction of titles in the Zipf head treated as "hot" by the correlation knob
HOT_TITLE_FRACTION = 0.05


def scale_unit(scale_factor: int) -> int:
    if scale_factor % 10 != 0 or scale_factor < 10:
        raise ValueError(f"scale factor must be one of 10/100/1000, got {scale_factor}")
    return scale_factor // 10


def hot_title_count(title_count: int) -> int:
    """Titles in the Zipf head that the correlation knob makes query-visible."""
    return max(1, int(title_count * HOT_TITLE_FRACTION))


def zipf_picker(count: int, exponent: float, rng):
    """A zero-argument sampler over ``range(count)`` with Zipf(``exponent``)
    popularity (index 0 most popular); uniform when the exponent is 0."""
    if exponent <= 0:
        return lambda: rng.randrange(count)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(count)]
    total = sum(weights)
    cumulative: list[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight
        cumulative.append(acc / total)
    return lambda: min(count - 1, bisect_left(cumulative, rng.random()))


def generate(
    scale_factor: int,
    seed: int = 42,
    skew: float = 0.0,
    correlation: float = 0.0,
) -> dict[str, list[dict]]:
    """All seven tables for one scale factor, keyed by table name."""
    unit = scale_unit(scale_factor)
    counts = row_counts(unit)
    rng = derive(seed, "job", scale_factor, f"skew={skew}", f"corr={correlation}")
    hot_titles = hot_title_count(counts["title"])

    def correlated() -> bool:
        return correlation > 0 and rng.random() < correlation

    title = []
    for i in range(counts["title"]):
        if i < hot_titles and correlated():
            kind = "movie"
            year = QUERY_YEAR_LOW + rng.randrange(QUERY_YEAR_HIGH - QUERY_YEAR_LOW + 1)
        else:
            kind = TITLE_KINDS[rng.randrange(len(TITLE_KINDS))]
            year = YEAR_LOW + rng.randrange(YEAR_HIGH - YEAR_LOW + 1)
        title.append(
            {
                "t_id": f"tt{i:07d}",
                "t_title": f"title {i}",
                "t_kind": kind,
                "t_year": year,
            }
        )
    name = [
        {
            "n_id": f"nm{i:07d}",
            "n_name": f"person {i}",
            "n_gender": GENDERS[rng.randrange(len(GENDERS))],
        }
        for i in range(counts["name"])
    ]
    # Countries round-robin: US companies are the indices ≡ 0 (mod 6), so the
    # correlated fact rows below can target them deterministically.
    company = [
        {
            "co_id": f"co{i:05d}",
            "co_name": f"company {i}",
            "co_country": COUNTRIES[i % len(COUNTRIES)],
        }
        for i in range(counts["company"])
    ]
    keyword = [
        {
            "k_id": f"kw{i:05d}",
            "k_keyword": f"keyword {i}",
            "k_group": KEYWORD_GROUPS[i % len(KEYWORD_GROUPS)],
        }
        for i in range(counts["keyword"])
    ]

    pick_movie = zipf_picker(counts["title"], skew, rng)
    groups = len(COUNTRIES)

    cast_info = []
    for i in range(counts["cast_info"]):
        movie = pick_movie()
        if movie < hot_titles and correlated():
            role = "actor"
        else:
            role = ROLES[rng.randrange(len(ROLES))]
        cast_info.append(
            {
                "ci_id": i,
                "ci_movie": f"tt{movie:07d}",
                "ci_person": f"nm{rng.randrange(counts['name']):07d}",
                "ci_role": role,
            }
        )
    movie_companies = []
    for i in range(counts["movie_companies"]):
        movie = pick_movie()
        if movie < hot_titles and correlated():
            co = groups * rng.randrange(counts["company"] // groups)  # a US company
        else:
            co = rng.randrange(counts["company"])
        movie_companies.append(
            {
                "mc_id": i,
                "mc_movie": f"tt{movie:07d}",
                "mc_company": f"co{co:05d}",
                "mc_note": NOTES[rng.randrange(len(NOTES))],
            }
        )
    movie_keyword = []
    for i in range(counts["movie_keyword"]):
        movie = pick_movie()
        if movie < hot_titles and correlated():
            kw = groups * rng.randrange(counts["keyword"] // groups)  # an action keyword
        else:
            kw = rng.randrange(counts["keyword"])
        movie_keyword.append(
            {
                "mk_id": i,
                "mk_movie": f"tt{movie:07d}",
                "mk_keyword": f"kw{kw:05d}",
            }
        )
    return {
        "title": title,
        "name": name,
        "company": company,
        "keyword": keyword,
        "cast_info": cast_info,
        "movie_companies": movie_companies,
        "movie_keyword": movie_keyword,
    }


def create_secondary_indexes(session) -> None:
    """Indexes on the fact tables' foreign keys for INL experiments."""
    session.create_index("cast_info", "ci_movie")
    session.create_index("movie_companies", "mc_movie")
    session.create_index("movie_keyword", "mk_movie")
