"""Sweep the overlap-save block length of ``bandscope.filterbank``.

Times ``band_energies`` with blocks of ``_next_fast_len(k * taps)`` points
for several multiples k, on pink noise, with the allocator settings the
command line uses. Multiples that give one block length (an input short
enough to fit one block gets the same block for every k) are timed once,
as one row listing them. Each round times every distinct block once, in an
order that rotates from round to round, and the median of the rounds is
reported. The last line of standard output is the whole table as one JSON
object.

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
        multiples = {}  # block length -> the multiples that give it
        for k in MULTIPLES:
            filterbank._BLOCK_TAPS = k
            multiples.setdefault(filterbank._blocks(bank, len(signal))[0], []).append(k)
        blocks = list(multiples)
        times = {block: [] for block in blocks}
        for r in range(rounds):
            for block in blocks[r % len(blocks):] + blocks[:r % len(blocks)]:
                filterbank._BLOCK_TAPS = multiples[block][0]
                filterbank.band_energies(bank, signal)  # responses at this length
                start = time.perf_counter()
                filterbank.band_energies(bank, signal)
                times[block].append(1e3 * (time.perf_counter() - start))
        # one row per block length, keyed by the multiples that share it
        table[label] = {
            ",".join(map(str, shared)): {"block": block,
                                         "median_ms": round(statistics.median(times[block]), 2),
                                         "min_ms": round(min(times[block]), 2)}
            for block, shared in multiples.items()
        }
        print(label)
        for key, row in table[label].items():
            print(f"  k={key}: block {row['block']}, median {row['median_ms']} ms, "
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
