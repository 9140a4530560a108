"""Span recording around lzdp's public functions, from outside the package.

While installed, a Tracer replaces every wrapped function in every lzdp
module namespace that holds it, so calls between modules (cli -> lz77,
serialize_blocks -> payload_bits, global -> local sensitivity) are all seen.
A span is (name, start, end, parent, op, raised); spans live in flat arrays
in memory and are written once, by ``save``, when the run ends.  Counts the
per-layer ratios need are taken from each call's arguments and result after
its end time is read, so they are not in that call's span (they are in the
enclosing span's self time).
"""

from __future__ import annotations

import gc
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "lz77", "core", "dp", "analysis", "quinstr")

# Spans that pack or parse container bits.  Payload packing runs inside
# serialize_blocks, so only the outermost codec span of a call chain counts.
CODEC = frozenset(
    {
        "core.payload_bits",
        "core.serialize_blocks",
        "core.deserialize_blocks",
        "dp.dp_pad",
        "dp.pack_padded_container",
        "dp.read_padded_container",
    }
)


def _count_compress(add, args, file):
    blocks = file.blocks
    literals = sum(1 for b in blocks if b.q == 0)
    add(symbols=file.n, blocks=len(blocks), literals=literals,
        matches=len(blocks) - literals, match_len=sum(b.length for b in blocks))


def _count_decompress(add, args, text):
    pos = matches = overlaps = 0
    for b in args[0].blocks:
        if b.q:
            matches += 1
            if b.q - 1 + b.length > pos:
                overlaps += 1
        pos += b.length + 1
    add(symbols=text.n, matches=matches, overlaps=overlaps)


def _count_file_blocks(add, args, result):
    add(blocks=args[0].t)


def _count_result_blocks(add, args, result):
    add(blocks=result.t)


def _count_neighbors(add, args, result):
    text = args[0]
    add(neighbors=text.n * (text.alphabet.size - 1))


# (module, function, counter) for every public call the trace times.
TARGETS = (
    ("lz77", "compress", _count_compress),
    ("lz77", "decompress", _count_decompress),
    ("core", "payload_bits", _count_file_blocks),
    ("core", "serialize_blocks", _count_file_blocks),
    ("core", "deserialize_blocks", _count_result_blocks),
    ("dp", "gs_upper_bound", None),
    ("dp", "pad_length", None),
    ("dp", "dp_pad", None),
    ("dp", "pack_padded_container", _count_file_blocks),
    ("dp", "dp_strip", None),
    ("dp", "read_padded_container", _count_result_blocks),
    ("analysis", "classify_pair", None),
    ("analysis", "check_counting_identities", None),
    ("analysis", "pair_report", None),
    ("analysis", "local_sensitivity", _count_neighbors),
    ("analysis", "global_sensitivity_exhaustive", None),
    ("quinstr", "quinstr", None),
    ("quinstr", "verify_lower_bound", None),
)


class Tracer:
    """Records spans of one benchmark run; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.counts: dict[str, dict[str, int]] = {}
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._gc_t0 = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.current_op = -1

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.counts[name] = {}
        return self.ids[name]

    def wrap(self, name: str, fn, counter=None):
        nid = self._id(name)
        counts = self.counts[name]

        def add(**values):
            for key, value in values.items():
                counts[key] = counts.get(key, 0) + value

        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.raised.append(0)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = clock()
                self.raised[idx] = 1
                stack.pop()
                raise
            self.end[idx] = clock()
            stack.pop()
            if counter is not None:
                counter(add, args, result)
            return result

        return traced

    def install(self, package: str = "lzdp") -> None:
        """Swap every TARGETS function for its traced wrapper."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for mod_name, fn_name, counter in TARGETS:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            traced = self.wrap(f"{mod_name}.{fn_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, traced)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_t0
            self.gc_collections += 1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "op": np.frombuffer(self.op, dtype=np.int32).astype(np.int64),
            "raised": np.frombuffer(self.raised, dtype=np.int8).astype(np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer busy and self time, normalized costs and shares.

    Busy time of a layer counts each of its outermost spans once; self time
    subtracts, span by span, the time covered by direct child spans.
    """
    a = tracer.arrays()
    names = tracer.names
    n = len(a["start"])
    dur = (a["end"] - a["start"]).astype(np.float64) / 1e9
    parent = a["parent"]
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_sum

    layer_of_name = [LAYERS.index(name.split(".")[0]) for name in names]
    is_codec_name = [name in CODEC for name in names]
    span_name = a["name"].tolist()
    parents = parent.tolist()
    root = [0] * n
    layer_outer = np.zeros(n, dtype=bool)
    codec_outer = np.zeros(n, dtype=bool)
    anc_layers = [0] * n
    anc_codec = [False] * n
    for i in range(n):
        p = parents[i]
        layer = layer_of_name[span_name[i]]
        if p < 0:
            root[i] = i
            mask, codec_above = 0, False
        else:
            root[i] = root[p]
            mask = anc_layers[p] | (1 << layer_of_name[span_name[p]])
            codec_above = anc_codec[p] or is_codec_name[span_name[p]]
        anc_layers[i] = mask
        anc_codec[i] = codec_above
        layer_outer[i] = not (mask >> layer) & 1
        codec_outer[i] = is_codec_name[span_name[i]] and not codec_above
    root = np.asarray(root, dtype=np.int64)
    name_arr = a["name"]
    span_layer = np.asarray(layer_of_name + [0], dtype=np.int64)[name_arr]

    def mask_of(name):
        return name_arr == tracer.ids.get(name, -1)

    def busy(name):
        return float(dur[mask_of(name)].sum())

    def count(name, key):
        return tracer.counts.get(name, {}).get(key, 0)

    def per(value, base, scale=1.0):
        return value * scale / base if base else 0.0

    out: dict[str, float] = {}
    for li, layer in enumerate(LAYERS):
        in_layer = span_layer == li
        out[f"{layer}.busy_s"] = float(dur[in_layer & layer_outer].sum())
        out[f"{layer}.self_s"] = float(self_time[in_layer].sum())
        out[f"{layer}.errors"] = int(a["raised"][in_layer].sum())

    for kind in ("write", "read", "query"):
        m = mask_of(f"cli.{kind}")
        out[f"cli.self_share.{kind}"] = per(float(self_time[m].sum()), float(dur[m].sum()))

    comp = "lz77.compress"
    c_busy = busy(comp)
    out[f"{comp}.busy_s"] = c_busy
    out[f"{comp}.calls"] = int(mask_of(comp).sum())
    out[f"{comp}.ns_per_symbol"] = per(c_busy, count(comp, "symbols"), 1e9)
    out[f"{comp}.blocks_per_kib"] = per(count(comp, "blocks"), count(comp, "symbols"), 1024)
    out[f"{comp}.literal_share"] = per(count(comp, "literals"), count(comp, "blocks"))
    out[f"{comp}.mean_match_len"] = per(count(comp, "match_len"), count(comp, "matches"))
    for kind in ("write", "query"):
        roots = mask_of(f"cli.{kind}")
        under = mask_of(comp) & np.isin(root, np.flatnonzero(roots))
        out[f"{comp}.share_of_{kind}"] = per(float(dur[under].sum()), float(dur[roots].sum()))

    dec = "lz77.decompress"
    out[f"{dec}.busy_s"] = busy(dec)
    out[f"{dec}.ns_per_symbol"] = per(busy(dec), count(dec, "symbols"), 1e9)
    out[f"{dec}.overlap_copy_share"] = per(count(dec, "overlaps"), count(dec, "matches"))

    for name in ("core.payload_bits", "core.serialize_blocks", "core.deserialize_blocks",
                 "dp.read_padded_container"):
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.ns_per_block"] = per(busy(name), count(name, "blocks"), 1e9)
    for name in ("dp.pad_length", "dp.dp_pad", "dp.pack_padded_container"):
        out[f"{name}.busy_s"] = busy(name)

    loc = "analysis.local_sensitivity"
    glob = "analysis.global_sensitivity_exhaustive"
    out[f"{loc}.busy_s"] = busy(loc)
    out[f"{loc}.us_per_neighbor"] = per(busy(loc), count(loc, "neighbors"), 1e6)
    strings = int((mask_of(loc) & has_parent & np.isin(parent, np.flatnonzero(mask_of(glob)))).sum())
    out[f"{glob}.busy_s"] = busy(glob)
    out[f"{glob}.us_per_string"] = per(busy(glob), strings, 1e6)
    for name in ("analysis.classify_pair", "analysis.check_counting_identities",
                 "quinstr.quinstr", "quinstr.verify_lower_bound"):
        out[f"{name}.busy_s"] = busy(name)

    # library time: what the CLI calls into, i.e. the direct children of roots
    library = float(dur[np.isin(parent, np.flatnonzero(~has_parent))].sum())
    out["codec.share_of_library"] = per(float(dur[codec_outer].sum()), library)

    out["runtime.gc_pause_s"] = tracer.gc_pause_ns / 1e9
    out["runtime.gc_collections"] = tracer.gc_collections
    out["trace.spans"] = n
    out["trace.raised"] = int(a["raised"].sum())
    return out
