"""Sweep the overlap-save block length of ``bandscope.filterbank``.

Times ``band_energies`` with blocks of ``_next_fast_len(k * taps)`` points
for several multiples k, on pink noise, with the allocator settings the
command line uses. Each round times every k once, in an order that rotates
from round to round, and the median of the rounds is reported. The last
line of standard output is the whole table as one JSON object.

    PYTHONPATH=src python3 tools/sweep_block_length.py --rounds 9
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from bandscope import BAND_PRESETS, BandMapping, StimulusSpec, design_bank, filterbank, gen_pink
from bandscope.cli import _keep_freed_memory

FS = 44100
MULTIPLES = (2, 3, 4, 5, 6, 8)
# (label, preset, taps, seconds of audio); band_energies filters on one thread
CASES = (
    ("ids10 16383 taps 10 s", "ids10", 16383, 10.0),
    ("nl8 16383 taps 0.5 s", "nl8", 16383, 0.5),
    ("ids10 1023 taps 10 s", "ids10", 1023, 10.0),
    ("ids10 63 taps 10 s", "ids10", 63, 10.0),
)


def sweep(rounds: int) -> dict:
    table = {}
    for label, preset, taps, seconds in CASES:
        bank = design_bank(BandMapping(BAND_PRESETS[preset]), FS, taps)
        signal = gen_pink(StimulusSpec(kind="pink", duration=seconds, seed=1))
        times = {k: [] for k in MULTIPLES}
        blocks = {}
        for r in range(rounds):
            for k in MULTIPLES[r % len(MULTIPLES):] + MULTIPLES[:r % len(MULTIPLES)]:
                filterbank._BLOCK_TAPS = k
                blocks[k] = filterbank._blocks(bank, len(signal))[0]
                filterbank.band_energies(bank, signal)  # responses at this length
                start = time.perf_counter()
                filterbank.band_energies(bank, signal)
                times[k].append(1e3 * (time.perf_counter() - start))
        table[label] = {
            str(k): {"block": blocks[k],
                     "median_ms": round(statistics.median(ms), 2),
                     "min_ms": round(min(ms), 2)}
            for k, ms in times.items()
        }
        print(label)
        for k, row in table[label].items():
            print(f"  k={k}: block {row['block']}, median {row['median_ms']} ms, "
                  f"min {row['min_ms']} ms")
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args()
    _keep_freed_memory()
    print(json.dumps({"rounds": args.rounds, "cases": sweep(args.rounds)}))


if __name__ == "__main__":
    main()
