"""Greedy sliding-window compressor and its decompressor.

Both variants are implemented.  NON_OVERLAPPING requires the match source to
lie entirely inside the window (in particular it must end at or before the
last encoded symbol); SELF_REFERENCING only constrains the source *start* to
the window, so a copy may run into the region it is producing and is decoded
symbol by symbol.

The compressor is deterministic: at each step it takes the longest admissible
match, capped so that a trailing literal symbol always exists, and breaks
length ties by the leftmost source start.  Determinism is what makes
compressed length a function of the input, which the sensitivity tooling
relies on.

The matcher has two paths, which give the same parse:

- Short texts, and alphabets of more than 256 symbols, run a per-step loop
  of ``str.find`` probes (``_longest_match``): each probe asks whether any
  admissible source matches one symbol more than the best so far.
- Longer texts first look up exact short-match tables.  For each gram
  length L <= 4 they hold, at every position i, the leftmost start p of the
  L-gram at i inside i's window.  numpy builds them one chunk of B
  positions at a time (B = 8192, or W if larger), as the parse reaches the
  chunk.  A bounded window sorts the chunk and its look-back as
  ``(gram << s) | pos`` and binary-searches ``(gram, max(0, i - W))``.  An
  unbounded window keeps one running sorted ``(gram, first position)``
  table per L and folds each chunk into it.
  Length L is admissible iff ``p <= i - L`` (non-overlapping) or
  ``p <= i - 1`` (self-referencing), and ``L <= n - i - 1``.  The leftmost
  L+1-gram source is never left of the leftmost L-gram source, so
  admissibility is monotone in L.  The longest admissible L and its source
  are therefore read straight from the tables.  Only a step whose table
  match reaches 4 goes on to ``_longest_match``, starting at that source.

Both paths rest on one fact: a source that matches L symbols also matches
every shorter prefix, so the leftmost admissible source of a longer match
never lies left of the leftmost admissible source of its prefix.  That lets
each probe start at the previous hit and makes the last hit the answer.  The
tables add O(B + W + distinct 4-grams) to the working set, with B the chunk
size and W the window; nothing else grows with n.
"""

from __future__ import annotations

from array import array

import numpy as np

from .core import (
    CompressedFile,
    CompressionConfig,
    CorruptFileError,
    Text,
    Variant,
)

# Shorter texts skip the tables: their numpy set-up costs more than it saves.
_TABLE_CUTOFF = 1024
# Positions per table chunk; a bounded window's chunks span at least W.
_CHUNK = 8192
# Longest gram the tables resolve; longer matches are extended by str.find.
_GRAM = 4


def _longest_match(codes: str, ctc: int, window: int, cap: int, self_ref: bool, lo: int = 0):
    """Longest admissible match for the suffix starting at 0-based ``ctc``.

    Returns ``(length, q0)`` with q0 the leftmost 0-based source start, or
    ``(0, -1)`` when no admissible match exists.  Sources start at or after
    ``max(lo, ctc - window)``.  A caller may raise ``lo`` to the leftmost
    admissible source of some prefix of the suffix: no source left of it
    matches that prefix, so none can hold the longest match.

    Built on str.find: each round asks "does any admissible source match one
    symbol more than the best so far?", which is exact and fast because the
    scan runs in C.  A source matching the longer string also matches the
    shorter one, so each round starts its scan at the previous hit, and the
    last hit is the leftmost source of the longest match.
    """
    if cap <= 0 or ctc == 0:
        return 0, -1
    lo = max(lo, ctc - window)
    best, best_q0 = 0, -1
    target = 1
    while target <= cap:
        sub = codes[ctc : ctc + target]
        # non-overlapping sources must fit before ctc; self-referencing
        # sources only need to *start* before ctc.
        end = ctc if not self_ref else ctc - 1 + target
        q0 = codes.find(sub, lo, end)
        if q0 < 0:
            break
        limit = cap if self_ref else min(cap, ctc - q0)
        length = target
        while length < limit and codes[q0 + length] == codes[ctc + length]:
            length += 1
        best, best_q0 = length, q0
        lo = q0
        target = length + 1
    return best, best_q0


def longest_match_reference(codes: str, ctc: int, window: int, cap: int, self_ref: bool):
    """Brute-force scan over every admissible source start.

    Reference oracle for ``_longest_match``: same contract, independent
    implementation.  Quadratic, so only suitable for small inputs.
    """
    lo = max(0, ctc - window)
    best, best_q0 = 0, -1
    for q0 in range(lo, ctc):
        limit = cap if self_ref else min(cap, ctc - q0)
        length = 0
        while length < limit and codes[q0 + length] == codes[ctc + length]:
            length += 1
        if length > best:
            best, best_q0 = length, q0
    return best, best_q0


class _ShortMatchTables:
    """Per-position leftmost sources of the 1..4-grams, one chunk at a time.

    ``chunk(c0)`` returns memoryviews ``(lengths, sources)`` over positions
    ``c0 .. c0 + size - 1``: the longest admissible gram length (0 to
    ``_GRAM``) and the leftmost source of that gram.  Chunks must be asked
    for in increasing order; an unbounded window folds every chunk it passes
    into its running tables, asked for or not.  A bounded window sorts each
    chunk with its look-back, so its chunks are at least W long: sorting
    then costs O(log) a position whatever W is.
    """

    def __init__(self, codes: str, window: int, self_ref: bool):
        self.codes = codes
        self.n = len(codes)
        self.window = window
        self.self_ref = self_ref
        self.bounded = window < self.n
        self.size = max(_CHUNK, window) if self.bounded else _CHUNK
        # the gram keys take 8 bits a symbol, positions the low bits
        self.shift = self.n.bit_length()
        self.mask = (1 << self.shift) - 1
        # unbounded: sorted (gram << shift) | first position, one per length
        self.tables = [np.empty(0, np.int64) for _ in range(_GRAM)]
        self.folded = 0

    def _grams(self, start: int, stop: int):
        """Keys of the 1..4-grams at positions start .. stop - 1.

        Grams that run past the end of the text are zero-padded.  No query
        reads them: a query's own position lies left of every padded one.
        """
        m = stop - start
        buf = np.zeros(m + _GRAM - 1, np.int64)
        raw = self.codes[start : stop + _GRAM - 1].encode("latin-1")
        buf[: len(raw)] = np.frombuffer(raw, np.uint8)
        key = np.zeros(m, np.int64)
        keys = []
        for gram in range(_GRAM):
            key = (key << 8) | buf[gram : gram + m]
            keys.append(key)
        return keys

    def _fold(self, c0: int, stop: int):
        """Add the chunk's first occurrences to the unbounded tables."""
        shift = self.shift
        pos = np.arange(c0, stop, dtype=np.int64)
        keys = self._grams(c0, stop)
        for gram, key in enumerate(keys):
            comp = np.sort((key << shift) | pos)
            gkey = comp >> shift
            first = np.empty(len(comp), bool)
            first[0] = True
            np.not_equal(gkey[1:], gkey[:-1], out=first[1:])
            comp, gkey = comp[first], gkey[first]
            table = self.tables[gram]
            at = np.searchsorted(table, gkey << shift)
            hit = np.zeros(len(comp), bool)
            inside = at < len(table)
            hit[inside] = (table[at[inside]] >> shift) == gkey[inside]
            self.tables[gram] = np.insert(table, at[~hit], comp[~hit])
        return pos, keys

    def _sources(self, c0: int, stop: int):
        """Leftmost in-window source of each gram at positions c0 .. stop - 1."""
        shift = self.shift
        if not self.bounded:
            while self.folded <= c0:
                pos, keys = self._fold(self.folded, min(self.folded + self.size, self.n))
                self.folded += self.size
            return pos, [
                table[np.searchsorted(table, key << shift)] & self.mask
                for table, key in zip(self.tables, keys)
            ]
        start = max(0, c0 - self.window)
        every = np.arange(start, stop, dtype=np.int64)
        pos = every[c0 - start :]
        lo = np.maximum(pos - self.window, 0)
        sources = []
        for key in self._grams(start, stop):
            comp = np.sort((key << shift) | every)
            query = (key[c0 - start :] << shift) | lo
            sources.append(comp[np.searchsorted(comp, query)] & self.mask)
        return pos, sources

    def chunk(self, c0: int):
        pos, sources = self._sources(c0, min(c0 + self.size, self.n))
        cap = self.n - 1 - pos
        lengths = np.zeros(len(pos), np.uint8)
        best = np.zeros(len(pos), np.int64)
        for gram, src in enumerate(sources, 1):
            limit = pos - 1 if self.self_ref else pos - gram
            ok = (src <= limit) & (cap >= gram)
            lengths += ok
            best[ok] = src[ok]
        return memoryview(lengths), memoryview(best)


def _uses_tables(text: Text) -> bool:
    # 8 bits a symbol for 4 symbols plus the position must fit in 63 bits
    return _TABLE_CUTOFF <= text.n < 1 << 31 and text.alphabet.size <= 256


def _compress_tables(text: Text, config: CompressionConfig) -> CompressedFile:
    codes = text.codes
    n = len(codes)
    window = config.effective_window(n)
    self_ref = config.variant is Variant.SELF_REFERENCING
    tables = _ShortMatchTables(codes, window, self_ref)
    size = tables.size
    qs, lens, lits = array("Q"), array("Q"), array("Q")
    c0 = stop = 0
    ctc = 0
    while ctc < n:
        if ctc >= stop:
            c0 = ctc - ctc % size
            stop = c0 + size
            lengths, sources = tables.chunk(c0)
        length = lengths[ctc - c0]
        q = 0
        if length:
            q0 = sources[ctc - c0]
            if length == _GRAM:
                length, q0 = _longest_match(codes, ctc, window, n - ctc - 1, self_ref, q0)
            q = q0 + 1
        qs.append(q)
        lens.append(length)
        lits.append(ord(codes[ctc + length]))
        ctc += length + 1
    return CompressedFile(n, config, text.alphabet, qs, lens, lits)


def _compress_with(matcher, text: Text, config: CompressionConfig) -> CompressedFile:
    codes = text.codes
    n = len(codes)
    window = config.effective_window(n)
    self_ref = config.variant is Variant.SELF_REFERENCING
    qs, lens, lits = array("Q"), array("Q"), array("Q")
    ctc = 0
    while ctc < n:
        length, q0 = matcher(codes, ctc, window, n - ctc - 1, self_ref)
        # a literal comes back as (0, -1), so q0 + 1 is its q == 0
        qs.append(q0 + 1)
        lens.append(length)
        lits.append(ord(codes[ctc + length]))
        ctc += length + 1
    return CompressedFile(n, config, text.alphabet, qs, lens, lits)


def compress(text: Text, config: CompressionConfig | None = None) -> CompressedFile:
    """Compress ``text`` greedily, left to right."""
    config = config or CompressionConfig()
    if _uses_tables(text):
        return _compress_tables(text, config)
    return _compress_with(_longest_match, text, config)


def compress_reference(text: Text, config: CompressionConfig | None = None) -> CompressedFile:
    """Same contract as compress(), driven by the brute-force match scan."""
    return _compress_with(longest_match_reference, text, config or CompressionConfig())


def decompress(file: CompressedFile) -> Text:
    """Reconstruct the original text from a block list."""
    # bytearray keeps large byte-alphabet files compact; wide alphabets fall
    # back to code-point appends
    wide = file.alphabet.size > 256
    out: list | bytearray = [] if wide else bytearray()
    for i, (q, length, lit) in enumerate(zip(file.q, file.length, file.lit)):
        if q:
            q0 = q - 1
            if q0 >= len(out):
                raise CorruptFileError(
                    f"block {i + 1} copies from position {q} but only "
                    f"{len(out)} symbols are reconstructed"
                )
            if q0 + length <= len(out):
                out.extend(out[q0 : q0 + length])
            else:
                # overlapped copy: realize it one symbol at a time
                for r in range(length):
                    out.append(out[q0 + r])
        out.append(lit)
    if wide:
        return Text(file.alphabet, "".join(map(chr, out)))
    return Text(file.alphabet, bytes(out).decode("latin-1"))


def block_spans(file: CompressedFile) -> tuple[tuple[int, int], ...]:
    """1-based destination spans (s_i, f_i) of each block; f_i - s_i = len_i."""
    spans = []
    pos = 1
    for length in file.length:
        spans.append((pos, pos + length))
        pos += length + 1
    return tuple(spans)
