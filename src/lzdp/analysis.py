"""Block-alignment analysis of neighboring inputs and sensitivity oracles.

For two equal-length texts differing in exactly one position, compressing
both yields block lists whose destination spans can be compared: block k of
the second text "starts inside" block i of the first when
``s_i <= s'_k <= f_i``.  Collecting those k per i partitions the second
text's blocks among the first's, and the per-block counts (the block
"types") determine the difference in block counts exactly.  This module
computes that classification, checks the counting identities that hold for
every neighbor pair, and provides brute-force local and global sensitivity
oracles for desk-scale instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import (
    Alphabet,
    CompressedFile,
    CompressionConfig,
    DomainError,
    LzdpError,
    Text,
    Variant,
    bit_length,
    block_width,
)
from .dp import _bound_expr
from .lz77 import block_spans, compress


class InvariantViolation(LzdpError):
    """A structural fact that holds for every neighbor pair failed."""


class BudgetExceededError(LzdpError):
    """An exhaustive sweep would exceed its compressor-call budget."""

    def __init__(self, required_calls: int, budget: int):
        super().__init__(
            f"exhaustive sweep needs about {required_calls} compressor calls, "
            f"budget is {budget}"
        )
        self.required_calls = required_calls
        self.budget = budget


@dataclass(frozen=True)
class IdentityResult:
    name: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class PairAnalysis:
    """Classification of one neighbor pair (w, w')."""

    j: int  # 1-based index of the single differing position
    config: CompressionConfig
    file: CompressedFile
    file_prime: CompressedFile
    spans: tuple[tuple[int, int], ...]
    spans_prime: tuple[tuple[int, int], ...]
    m_sets: tuple[tuple[int, ...], ...]  # per block of w: 1-based k's starting inside
    types: tuple[int, ...]
    t0: int
    t1: int
    t2: int
    t3: int

    @property
    def n(self) -> int:
        return self.file.n

    @property
    def t(self) -> int:
        return self.file.t

    @property
    def t_prime(self) -> int:
        return self.file_prime.t


def start_inside(span: tuple[int, int], span_prime: tuple[int, int]) -> bool:
    """True when the second block's start lies within the first block's span."""
    s_i, f_i = span
    s_k = span_prime[0]
    return s_i <= s_k <= f_i


def classify_pair(w: Text, w_prime: Text, config: CompressionConfig) -> PairAnalysis:
    """Compress both texts and classify every block of w by how many blocks
    of w' start inside it.

    Raises DomainError unless the texts are equal-length with Hamming
    distance exactly 1, and InvariantViolation if the classification breaks
    its structural guarantees (at most two starts per block, plus at most a
    single three-start block in the self-referencing variant).
    """
    if w.alphabet != w_prime.alphabet:
        raise DomainError("neighbor texts must share an alphabet")
    if w.n != w_prime.n:
        raise DomainError(f"neighbor texts must have equal length ({w.n} != {w_prime.n})")
    diffs = [i for i, (a, b) in enumerate(zip(w.codes, w_prime.codes)) if a != b]
    if len(diffs) != 1:
        raise DomainError(f"texts must differ in exactly one position, found {len(diffs)}")
    j = diffs[0] + 1

    file = compress(w, config)
    file_prime = compress(w_prime, config)
    spans = block_spans(file)
    spans_prime = block_spans(file_prime)

    # spans partition [1, n], so walking both lists in order buckets every
    # block of w' into the unique span of w containing its start
    m_sets: list[list[int]] = [[] for _ in range(file.t)]
    i = 0
    for k, (s_k, _) in enumerate(spans_prime, start=1):
        while spans[i][1] < s_k:
            i += 1
        m_sets[i].append(k)

    types = tuple(len(ms) for ms in m_sets)
    max_type = 2 if config.variant is Variant.NON_OVERLAPPING else 3
    counts = [0, 0, 0, 0]
    for i, ty in enumerate(types):
        if ty > max_type:
            raise InvariantViolation(
                f"block {i + 1} has {ty} starts inside it "
                f"(limit {max_type} for {config.variant.value})"
            )
        counts[ty] += 1
    if config.variant is Variant.SELF_REFERENCING and counts[3] > 1:
        raise InvariantViolation(f"{counts[3]} three-start blocks, at most one can occur")

    return PairAnalysis(
        j=j,
        config=config,
        file=file,
        file_prime=file_prime,
        spans=spans,
        spans_prime=spans_prime,
        m_sets=tuple(tuple(ms) for ms in m_sets),
        types=types,
        t0=counts[0],
        t1=counts[1],
        t2=counts[2],
        t3=counts[3],
    )


def t2_bound(n: int, window: int | None) -> float:
    """Real-valued cap on the number of two-start blocks of any neighbor pair."""
    w = n if window is None else min(window, n)
    return _bound_expr(w, windowed=w < n, self_ref=False)


def check_counting_identities(pa: PairAnalysis) -> list[IdentityResult]:
    """Evaluate every counting identity and structural constraint on a pair.

    The block-count identity is exact in both orientations of the pair; the
    remaining entries are the two-start-block constraints (location around
    the differing index, distinct source offsets, per-length caps, and the
    window cutoff when the window is bounded).
    """
    results = []
    n = pa.n
    window = pa.config.window
    self_ref = pa.config.variant is Variant.SELF_REFERENCING
    delta_t = pa.t_prime - pa.t

    expected = (2 * pa.t3 + pa.t2 - pa.t0) if self_ref else (pa.t2 - pa.t0)
    results.append(
        IdentityResult(
            "block_count_identity",
            delta_t == expected,
            f"t'-t = {delta_t}, expected {expected} "
            f"(t0={pa.t0}, t1={pa.t1}, t2={pa.t2}, t3={pa.t3})",
        )
    )

    bound = t2_bound(n, window)
    results.append(
        IdentityResult(
            "t2_upper_bound",
            pa.t2 <= bound,
            f"t2 = {pa.t2} <= {bound:.3f}",
        )
    )

    type2 = [i for i, ty in enumerate(pa.types) if ty == 2]
    w_eff = pa.config.effective_window(n)
    if window is not None and w_eff < n:
        bad = [i + 1 for i in type2 if pa.spans[i][0] > pa.j + w_eff]
        results.append(
            IdentityResult(
                "window_start_constraint",
                not bad,
                f"two-start blocks starting after j+W: {bad or 'none'}",
            )
        )

    q, length = pa.file.q, pa.file.length
    bad = []
    for i in type2:
        s_i, f_i = pa.spans[i]
        if not (s_i <= pa.j <= f_i or pa.j - length[i] < q[i] <= pa.j):
            bad.append(i + 1)
    results.append(
        IdentityResult(
            "type2_location",
            not bad,
            f"two-start blocks missing both location conditions: {bad or 'none'}",
        )
    )

    offsets = [(q[i], length[i]) for i in type2]
    results.append(
        IdentityResult(
            "type2_offsets_distinct",
            len(set(offsets)) == len(offsets),
            f"{len(offsets)} two-start blocks, {len(set(offsets))} distinct (q, len) pairs",
        )
    )

    i_star = next(i for i, (s, f) in enumerate(pa.spans) if s <= pa.j <= f)
    len_star = length[i_star]
    per_len: dict[int, int] = {}
    for i in type2:
        per_len[length[i]] = per_len.get(length[i], 0) + 1
    bad_lens = [
        ln for ln, cnt in per_len.items() if cnt > ln + (1 if ln == len_star else 0)
    ]
    results.append(
        IdentityResult(
            "type2_per_length_cap",
            not bad_lens,
            f"overfull match lengths: {bad_lens or 'none'} (len at j = {len_star})",
        )
    )

    width = block_width(n, pa.file.alphabet.size)
    gap = abs(bit_length(pa.file) - bit_length(pa.file_prime))
    results.append(
        IdentityResult(
            "bit_gap_identity",
            gap == abs(delta_t) * width,
            f"|bit gap| = {gap} = |t-t'| * {width}",
        )
    )
    return results


def pair_report(pa: PairAnalysis) -> dict:
    """JSON-ready report for one analyzed pair."""
    identities = check_counting_identities(pa)
    return {
        "n": pa.n,
        "W": pa.config.effective_window(pa.n),
        "variant": pa.config.variant.value,
        "j": pa.j,
        "t": pa.t,
        "t_prime": pa.t_prime,
        "counts": {"t0": pa.t0, "t1": pa.t1, "t2": pa.t2, "t3": pa.t3},
        "identities": [r.as_dict() for r in identities],
        "per_block": [
            {
                "i": i + 1,
                "s": pa.spans[i][0],
                "f": pa.spans[i][1],
                "q": q,
                "len": length,
                "type": pa.types[i],
            }
            for i, (q, length) in enumerate(zip(pa.file.q, pa.file.length))
        ],
    }


def neighbors(text: Text) -> Iterator[Text]:
    """All n*(K-1) single-symbol substitutions of a text."""
    codes = text.codes
    k = text.alphabet.size
    for pos in range(len(codes)):
        old = ord(codes[pos])
        for sym in range(k):
            if sym != old:
                yield Text(text.alphabet, codes[:pos] + chr(sym) + codes[pos + 1 :])


def local_sensitivity(text: Text, config: CompressionConfig) -> int:
    """Max payload-bit-length change over every single-symbol substitution."""
    if text.n < 1:
        raise DomainError("local sensitivity needs a non-empty text")
    base = bit_length(compress(text, config))
    worst = 0
    for nb in neighbors(text):
        worst = max(worst, abs(bit_length(compress(nb, config)) - base))
    return worst


def _canonical_codes(n: int, k: int) -> Iterator[str]:
    """Length-n strings whose distinct symbols first appear in index order.

    Every string maps to exactly one such representative under a symbol
    permutation, and both compressed size and local sensitivity are
    invariant under symbol permutations, so these suffice for exact maxima.
    """
    if n == 0:
        yield ""
        return
    stack = [("\x00", 1)]
    while stack:
        prefix, used = stack.pop()
        if len(prefix) == n:
            yield prefix
            continue
        for sym in range(min(used + 1, k)):
            stack.append((prefix + chr(sym), max(used, sym + 1)))


def global_sensitivity_exhaustive(
    n: int,
    k: int,
    config: CompressionConfig,
    budget: int = 10**8,
) -> int:
    """Exact global sensitivity by enumerating every length-n input.

    Refuses with BudgetExceededError when the worst-case number of
    compressor calls (K^n strings, each with n*(K-1) substitutions) exceeds
    ``budget``.  Only permutation-canonical strings are enumerated, which
    does not change the maximum.
    """
    if n < 0 or k < 1:
        raise DomainError("need n >= 0 and alphabet size >= 1")
    required = k**n * (n * (k - 1) + 1)
    if required > budget:
        raise BudgetExceededError(required, budget)
    if n == 0:
        return 0
    alphabet = Alphabet(tuple(chr(i) for i in range(k)))
    worst = 0
    for codes in _canonical_codes(n, k):
        worst = max(worst, local_sensitivity(Text(alphabet, codes), config))
    return worst
