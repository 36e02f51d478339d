"""A fixed amount of pure-Python text work, run as its own process.

bench/run.py times this next to every classify run. Its median wall time
over a run measures how fast the shared machine is during that run, so
timings can be scaled to a reference speed. It depends on nothing in
litscan, so no change to litscan moves it.
"""

import random

from textcheck import TermIndex, normalize_current, normalize_folded

_WORDS = (
    "the of and to in for with on by from as at results analysis regression model "
    "interval effect test sample data release module developer review defect build"
).split()


def work() -> int:
    rng = random.Random(0)
    text = " ".join(rng.choice(_WORDS) for _ in range(25000))
    kept = []
    for ch in text:  # a per-character loop, like litscan's normalize
        if ch.isspace() or ch == "-":
            continue
        kept.append(ch.lower())
    index = TermIndex(["regression model", "confidence interval", "effect size", "t test"])
    return len(kept) + len(index.hits(normalize_current(text))) + len(normalize_folded(text))


if __name__ == "__main__":
    work()
