"""Hypothesis settings profiles: `tier1`, the default, and `explore`.

Under `tier1` every run of one commit tries the same examples: it is
derandomized and keeps no example database, so two checkouts, or two runs
in one, give the same result.  `explore` draws fresh random examples, five
times as many; a run started with `--hypothesis-seed=N` draws the same
ones again, so a failure it finds replays:

    python -m pytest --hypothesis-profile=explore --hypothesis-seed=N
"""

from __future__ import annotations

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=500, database=None, print_blob=True)
settings.load_profile("tier1")  # pytest's --hypothesis-profile loads another after this


def examples(n: int) -> int:
    """`n` examples under `tier1`, and as many times more as the loaded profile has."""
    return n * settings.default.max_examples // settings.get_profile("tier1").max_examples
