"""Seeded inputs for the benchmark workloads.

Every input is a pure function of (seed, stream, index): the same seed gives
the same bytes, and distinct indices give distinct inputs, so no op of a run
sees an input an earlier op saw.  The program under test only ever receives
the files written from these values.

"Page" messages model the paper's setting: compressible markup text built
from a fixed word model, with random and base64 tokens (the secrets)
embedded at roughly 30% of the bytes.
"""

from __future__ import annotations

import base64
import random
import string

_VOCAB_SEED = "lzdp-perfbench-vocabulary-v1"
_TAGS = ("p", "div", "span", "li", "td", "h2", "em", "section")
_ATTRS = ("class", "id", "title", "data-ref")
_HEX = "0123456789abcdef"
_ALNUM = string.ascii_letters + string.digits

# Each sentence word is replaced by a token with this probability; with the
# token lengths below it puts about 30% of a page's bytes in tokens.
_TOKEN_PROB = 0.09

# Parameter grids of the lab workload, 28 entries each.  A lab round takes
# the next entry of both, so a run of 28 rounds draws every entry once and
# runs of different seeds differ only in pairing, order and page content.
GLOBAL_NK = ((12, 2), (8, 3))
GLOBAL_WINDOWS = (2, 3, 4, 5, 6, 7, None)
QUINSTR_M = tuple(range(4, 32))


def _vocabulary() -> tuple[list[str], list[float]]:
    rng = random.Random(_VOCAB_SEED)
    words = set()
    while len(words) < 3000:
        words.add("".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(2, 10))))
    ordered = sorted(words)
    rng.shuffle(ordered)
    # Zipf weights: a few words dominate, as in natural text
    weights = [1.0 / (rank + 1) for rank in range(len(ordered))]
    return ordered, weights


_WORDS, _WEIGHTS = _vocabulary()


def _rng(seed: int, stream: str, index: int) -> random.Random:
    return random.Random(f"{seed}/{stream}/{index}")


def _token(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.4:
        return base64.b64encode(rng.randbytes(rng.randint(9, 30))).decode("ascii")
    if kind < 0.7:
        return "".join(rng.choice(_HEX) for _ in range(rng.choice((16, 32, 40))))
    return "".join(rng.choice(_ALNUM) for _ in range(rng.randint(12, 36)))


def _page_text(rng: random.Random, size: int) -> bytes:
    parts: list[str] = []
    total = 0
    while total < size:
        tag = rng.choice(_TAGS)
        attr = rng.choice(_ATTRS)
        words = rng.choices(_WORDS, _WEIGHTS, k=rng.randint(6, 24))
        body = " ".join(_token(rng) if rng.random() < _TOKEN_PROB else w for w in words)
        chunk = f'<{tag} {attr}="{rng.choices(_WORDS, _WEIGHTS)[0]}">{body}.</{tag}>\n'
        parts.append(chunk)
        total += len(chunk)
    return "".join(parts).encode("ascii")[:size]


def page(seed: int, stream: str, index: int, size: int) -> bytes:
    """The ``index``-th page message of ``size`` bytes in ``stream``."""
    return _page_text(_rng(seed, stream, index), size)


def neighbor_pair(seed: int, stream: str, index: int, size: int) -> tuple[bytes, bytes]:
    """A page of ``size`` bytes and a copy with one byte substituted."""
    rng = _rng(seed, stream, index)
    w = _page_text(rng, size)
    j = rng.randrange(size)
    new = rng.choice([c for c in range(32, 127) if c != w[j]])
    return w, w[:j] + bytes([new]) + w[j + 1 :]


def excerpt(seed: int, stream: str, index: int, size: int) -> bytes:
    """``size`` consecutive bytes from a fresh page."""
    rng = _rng(seed, stream, index)
    text = _page_text(rng, 16 * size)
    start = rng.randrange(len(text) - size + 1)
    return text[start : start + size]


def lab_schedule(seed: int) -> list[tuple[tuple[int, int, int | None, bool], int]]:
    """Seeded (global query, quinstr m) pairs, one per lab round.

    A global query is (n, k, window, self_ref); window None is unbounded.
    Neither grid repeats an entry, so a run has at most 28 rounds.
    """
    grid = [
        (n, k, window, self_ref)
        for n, k in GLOBAL_NK
        for window in GLOBAL_WINDOWS
        for self_ref in (False, True)
    ]
    rng = random.Random(f"{seed}/lab")
    rng.shuffle(grid)
    ms = list(QUINSTR_M)
    rng.shuffle(ms)
    return list(zip(grid, ms, strict=True))
