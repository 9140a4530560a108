"""Command-line surface: compression, private padding, and the analysis lab.

Every command prints a single JSON document to stdout and diagnostics to
stderr.  Exit status is 0 only when the command succeeded and every embedded
"pass" flag is true; argument errors exit 2, runtime failures exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .core import (
    BYTES,
    Alphabet,
    CompressionConfig,
    DomainError,
    LzdpError,
    Text,
    Variant,
    bit_length,
    bits_per_int,
    deserialize_blocks,
    payload_bits,
    serialize_blocks,
)
from .lz77 import compress, decompress
from . import dp as dp_mod
from .analysis import (
    BudgetExceededError,
    classify_pair,
    global_sensitivity_exhaustive,
    local_sensitivity,
    pair_report,
)
from .quinstr import WidthMode, quinstr, verify_lower_bound

ENV_SEED = "LZDP_SEED"


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _alphabet(symbols_arg: str) -> Alphabet:
    if symbols_arg == "bytes":
        return BYTES
    return Alphabet.from_symbols(symbols_arg)


def _read_text(path: str, symbols_arg: str) -> Text:
    data = Path(path).read_bytes()
    if symbols_arg == "bytes":
        return Text.from_bytes(data)
    alphabet = _alphabet(symbols_arg)
    return Text.from_string(data.decode("latin-1"), alphabet)


def _write_text(path: str, text: Text) -> None:
    Path(path).write_bytes(text.to_bytes())


def _config(args) -> CompressionConfig:
    variant = Variant.SELF_REFERENCING if args.self_ref else Variant.NON_OVERLAPPING
    try:
        return CompressionConfig(window=args.window, variant=variant)
    except DomainError as exc:
        raise _Usage(str(exc)) from exc


def _seed(args) -> int | None:
    """--seed, else $LZDP_SEED, else None: default_rng then reads OS entropy."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    return None if env is None else int(env)


def _add_compression_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=None, help="sliding window size (default: unbounded)")
    p.add_argument("--self-ref", action="store_true", help="allow self-referencing matches")
    p.add_argument("--alphabet", default="bytes", help='"bytes" or an inline symbol list like "abcd"')


def _add_dp_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gs", type=int, default=None, help="sensitivity in bits (default: closed-form bound)")
    p.add_argument("--seed", type=int, default=None, help=f"RNG seed (fallback: ${ENV_SEED})")


def cmd_compress(args) -> int:
    text = _read_text(args.input, args.alphabet)
    file = compress(text, _config(args))
    Path(args.output).write_bytes(serialize_blocks(file))
    bits = bit_length(file)
    ratio: float | str
    if file.n == 0:
        ratio = "empty"
    else:
        ratio = bits / (file.n * bits_per_int(file.alphabet.size))
    _emit({"n": file.n, "t": file.t, "payload_bits": bits, "ratio": ratio})
    return 0


def cmd_decompress(args) -> int:
    file = args.read(Path(args.input).read_bytes())
    text = decompress(file)
    _write_text(args.output, text)
    _emit({"n": file.n, "t": file.t, "payload_bits": bit_length(file)})
    return 0


def _dp_params(args, file) -> dp_mod.DPParams:
    gs = args.gs
    if gs is None:
        n = max(1, file.n)
        window = min(file.config.effective_window(n), n)
        gs = dp_mod.gs_upper_bound(n, window, file.alphabet.size, file.config.variant)
    try:
        return dp_mod.DPParams(epsilon=args.epsilon, delta=args.delta, gs_bits=gs)
    except DomainError as exc:
        raise _Usage(str(exc)) from exc


def cmd_dp_compress(args) -> int:
    text = _read_text(args.input, args.alphabet)
    file = compress(text, _config(args))
    params = _dp_params(args, file)
    p = dp_mod.pad_length(params, np.random.default_rng(_seed(args)))
    padded = dp_mod.dp_pad(payload_bits(file), p)
    Path(args.output).write_bytes(dp_mod.pack_padded_container(file, padded))
    doc = {
        "payload_bits": bit_length(file),
        "total_bits": padded.nbits,
        "k": params.k,
        "gs_bits": params.gs_bits,
    }
    if args.reveal_pad:
        doc["pad"] = p
    _emit(doc)
    return 0


def cmd_analyze(args) -> int:
    w = _read_text(args.w, args.alphabet)
    w_prime = _read_text(args.w_prime, args.alphabet)
    report = pair_report(classify_pair(w, w_prime, _config(args)))
    _emit(report)
    return 0 if all(r["pass"] for r in report["identities"]) else 1


def cmd_sensitivity(args) -> int:
    config = _config(args)
    if args.mode == "local":
        if not args.input:
            raise _Usage("--mode local requires --input")
        text = _read_text(args.input, args.alphabet)
        bits = local_sensitivity(text, config)
        _emit(
            {
                "mode": "local",
                "n": text.n,
                "k": text.alphabet.size,
                "W": config.effective_window(text.n),
                "variant": config.variant.value,
                "bits": bits,
            }
        )
        return 0
    if args.n is None or args.k is None:
        raise _Usage("--mode global requires --n and --k")
    try:
        bits = global_sensitivity_exhaustive(args.n, args.k, config, budget=args.budget)
    except BudgetExceededError as exc:
        _emit(
            {
                "error": "budget_exceeded",
                "required_calls": exc.required_calls,
                "budget": exc.budget,
            }
        )
        return 1
    _emit(
        {
            "mode": "global",
            "n": args.n,
            "k": args.k,
            "W": config.effective_window(args.n),
            "variant": config.variant.value,
            "bits": bits,
        }
    )
    return 0


def cmd_quinstr(args) -> int:
    mode = WidthMode(args.width)
    if args.verify:
        if mode is not WidthMode.INJECTIVE:
            raise _Usage("--verify requires --width injective")
        report = verify_lower_bound(args.m)
        _emit(report)
        return 0 if report["pass"] else 1
    out = quinstr(args.m, mode)
    _emit(
        {
            "m": out.m,
            "width_mode": out.width_mode.value,
            "b": out.b,
            "n": out.w.n,
            "predicted_len": out.predicted_len,
            "actual_len": out.w.n,
            "predicted_b2": out.predicted_b2,
            "pass": out.w.n == out.predicted_len,
        }
    )
    return 0


def cmd_bounds(args) -> int:
    rows = dp_mod.bound_table(args.n, args.window, args.k)
    _emit(
        {
            "n": args.n,
            "W": args.n if args.window is None else args.window,
            "k": args.k,
            "rows": rows,
        }
    )
    return 0


class _Usage(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lzdp",
        description="Sliding-window block compression with differentially private padding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a file into a block container")
    p.add_argument("input")
    p.add_argument("output")
    _add_compression_flags(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="restore a file from a block container")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_decompress, read=deserialize_blocks)

    p = sub.add_parser("dp-compress", help="compress and pad with length-hiding noise")
    p.add_argument("input")
    p.add_argument("output")
    _add_compression_flags(p)
    _add_dp_flags(p)
    p.add_argument("--reveal-pad", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_dp_compress)

    p = sub.add_parser("dp-decompress", help="strip padding and restore the file")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_decompress, read=dp_mod.read_padded_container)

    p = sub.add_parser("analyze", help="classify the block alignment of two neighbor files")
    p.add_argument("w")
    p.add_argument("w_prime")
    _add_compression_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sensitivity", help="brute-force local or global sensitivity")
    p.add_argument("--mode", choices=("local", "global"), required=True)
    p.add_argument("--input", default=None, help="text file (local mode)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--budget", type=int, default=10**8, help="compressor-call budget (global mode)")
    _add_compression_flags(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("quinstr", help="generate or verify the adversarial quinary pair")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--width", choices=("paper", "injective"), default="injective")
    p.add_argument("--verify", action="store_true", help="run the pair through the analyzer")
    p.set_defaults(func=cmd_quinstr)

    p = sub.add_parser("bounds", help="tabulate the closed-form sensitivity bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Usage as exc:
        parser.exit(2, f"usage error: {exc}\n")
    except FileNotFoundError as exc:
        return _fail(f"cannot read {exc.filename}")
    except (LzdpError, OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
