"""Command-line surface.

Subcommands: synth, synth-campaign, analyze, compare, normalize, bands.
Exit codes: 0 success, 1 domain error, 2 usage error. Every run prints a
provenance block (configuration actually in effect) before doing work.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import math
import sys
from pathlib import Path

from . import __version__
from .campaign import (
    ComparisonReport,
    IngestReport,
    _json_text,
    analyze_report,
    compare_to_stimulus,
    export,
    ingest,
    save_series,
)
from .errors import BandscopeError, ManifestError
from .filterbank import (
    BAND_PRESETS,
    DEFAULT_TAPS,
    BandMapping,
    FilterBank,
    design_bank,
    load_mapping,
)
from .series import distance_text
from .signal import check_not_silent, mean_level_dbfs, normalize_to_level
from .stimuli import GENERATORS, StimulusSpec, gen_stimulus
from .synthfield import load_campaign_spec, synth_campaign
from .wavio import _FORMATS, check_writable, load_wav, save_wav

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _add_mapping_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--preset", choices=sorted(BAND_PRESETS), default="ids10",
                   help="built-in band mapping (default: ids10)")
    g.add_argument("--mapping", metavar="FILE",
                   help="plain-text mapping file, one edge in Hz per line")


def _add_bank_args(p: argparse.ArgumentParser) -> None:
    """The mapping and the tap count of a command that designs a bank."""
    _add_mapping_args(p)
    p.add_argument("--length", type=int, default=DEFAULT_TAPS,
                   help=f"FIR tap count, odd (default {DEFAULT_TAPS})")


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are usage errors;
    -0 reads as 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value + 0.0


def _resolve_mapping(args) -> BandMapping:
    if args.mapping:
        return load_mapping(args.mapping)
    return BandMapping(BAND_PRESETS[args.preset])


def _build_bank(args, sample_rate: int) -> FilterBank:
    return design_bank(_resolve_mapping(args), sample_rate, args.length)


def _provenance(lines: list[str]) -> None:
    print(f"# bandscope {__version__}")
    for line in lines:
        print(f"# {line}")


def _bank_provenance(args, bank: FilterBank, extra: list[str]) -> list[str]:
    name = args.mapping if args.mapping else args.preset
    edges = ", ".join(f"{e:g}" for e in bank.mapping.edges)
    return [
        f"mapping: {name} [{edges}] ({bank.n_bands} bands)",
        f"filter length: {bank.length} taps",
    ] + extra


def _warn_excluded(errors) -> None:
    for err in errors:
        print(f"warning: series {err.key}: {err.message}", file=sys.stderr)


def _cmd_bands(args) -> int:
    mapping = _resolve_mapping(args)
    for edge in mapping.edges:
        print(f"{edge:g}")
    return 0


def _cmd_synth(args) -> int:
    spec = StimulusSpec(**{f.name: getattr(args, f.name)
                           for f in dataclasses.fields(StimulusSpec) if hasattr(args, f.name)})
    _provenance([
        f"synth: kind={spec.kind} dur={spec.duration:g}s rate={spec.sample_rate}Hz "
        f"level={spec.target_level:g}dBFS freq={spec.frequency} seed={spec.seed}",
        f"encoding: {args.bits}",
    ])
    signal = gen_stimulus(spec)
    out = Path(args.out_file)
    check_writable(signal, out, args.bits)  # before the directory is made
    out.parent.mkdir(parents=True, exist_ok=True)
    save_wav(signal, out, encoding=args.bits)
    sidecar = out.with_suffix(out.suffix + ".json")
    sidecar.write_text(_json_text(spec.to_json()))
    print(f"wrote {out} ({len(signal)} samples, {mean_level_dbfs(signal):.4f} dB FS)")
    print(f"wrote {sidecar}")
    return 0


def _cmd_synth_campaign(args) -> int:
    spec, echo = load_campaign_spec(args.spec)
    bank = None if spec.profile is None else _build_bank(args, spec.stimulus.sample_rate)
    extra = [f"campaign spec: {Path(args.spec)}"]
    _provenance(extra if bank is None else _bank_provenance(args, bank, extra))

    series, truth = synth_campaign(spec, bank)
    # every file is checked before the first is opened, so an error leaves --out as it was
    for d, recording in zip(series.distances, series.recordings):
        check_writable(recording, f"recording at {distance_text(d)} cm")
    check_writable(spec.stimulus, "stimulus")

    out = Path(args.out)
    save_series(series, out)
    save_wav(spec.stimulus, out / "stimulus.wav", encoding="float32")
    (out / "ground_truth.csv").write_text(truth.to_csv())
    (out / "campaign_spec.json").write_text(_json_text(echo))
    print(f"wrote {len(series.recordings)} recordings, manifest.json, ground_truth.csv to {out}")
    return 0


def _ingest(manifest: str) -> IngestReport:
    """The manifest's series; none left to load is one error, after a
    warning for each excluded series."""
    report = ingest(manifest)
    if not report.series:
        _warn_excluded(report.errors)
        raise ManifestError(f"{manifest}: no loadable series")
    return report


def _cmd_analyze(args) -> int:
    report = _ingest(args.manifest)
    rates = {s.sample_rate for s in report.series}
    if len(rates) > 1:
        raise ManifestError(f"manifest mixes sample rates across series: {sorted(rates)}")
    bank = _build_bank(args, rates.pop())
    _provenance(_bank_provenance(args, bank, [f"reference: {args.reference:g} cm",
                                              f"threshold: {args.threshold:g} dB",
                                              f"manifest: {args.manifest}"]))
    result = analyze_report(report, bank, args.reference, args.threshold)
    files = export(result, args.out)
    _warn_excluded(result.errors)
    print(f"analyzed {len(result.analyses)} series, wrote {len(files)} files to {args.out}")
    if not result.analyses:
        return 1
    return 0


def _cmd_compare(args) -> int:
    stimulus = load_wav(args.stimulus)
    report = _ingest(args.manifest)
    bank = _build_bank(args, stimulus.sample_rate)
    _provenance(_bank_provenance(args, bank, [f"comparison distance: {args.distance:g} cm"]))
    # a silent stimulus would fail every series; report it once
    check_not_silent(mean_level_dbfs(stimulus), f"{args.stimulus}: stimulus")
    rows, errors = report.each(
        lambda series: compare_to_stimulus(stimulus, series, bank, args.distance))
    _warn_excluded(errors)
    if not rows:
        raise ManifestError(f"{args.manifest}: no series can be compared at {args.distance:g} cm")
    table = ComparisonReport(stimulus_label=args.label, rows=tuple(rows), n_bands=bank.n_bands)
    print(table.to_text(), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "comparison.csv").write_text(table.to_csv())
        print(f"wrote {out / 'comparison.csv'}")
    return 0


def _cmd_normalize(args) -> int:
    signal = load_wav(args.in_file)
    _provenance([f"normalize: {args.in_file} -> {args.out_file} at {args.level:g} dB FS"])
    result = normalize_to_level(signal, args.level)
    save_wav(result, args.out_file, encoding=args.bits)
    print(f"wrote {args.out_file} ({mean_level_dbfs(result):.4f} dB FS)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandscope",
        description="Subband spectral-balance and level-vs-distance analysis.",
    )
    parser.add_argument("--version", action="version", version=f"bandscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="print the edges of a band mapping")
    _add_mapping_args(p)
    p.set_defaults(func=_cmd_bands)

    # each stimulus flag is stored under its StimulusSpec field's name, and only
    # when given, so a flag left out leaves the field at the dataclass default
    p = sub.add_parser("synth", help="synthesize a stimulus WAV",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--kind", choices=list(GENERATORS), required=True)
    p.add_argument("--freq", dest="frequency", metavar="FREQ", type=_finite_float,
                   help="sine frequency in Hz")
    p.add_argument("--level", dest="target_level", metavar="LEVEL", type=_finite_float,
                   help="target mean level dB FS")
    p.add_argument("--dur", dest="duration", metavar="DUR", type=_finite_float, required=True,
                   help="duration in seconds")
    p.add_argument("--rate", dest="sample_rate", metavar="RATE", type=int,
                   help="sample rate in Hz")
    p.add_argument("--seed", type=int, help="random seed (pink)")
    p.add_argument("--bits", choices=list(_FORMATS), default="float32")
    p.add_argument("--out-file", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("synth-campaign", help="generate a synthetic campaign")
    p.add_argument("--spec", required=True, metavar="FILE", help="campaign spec JSON")
    _add_bank_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth_campaign)

    p = sub.add_parser("analyze", help="analyze a measurement manifest")
    p.add_argument("--manifest", required=True, metavar="FILE")
    _add_bank_args(p)
    p.add_argument("--reference", type=_finite_float, default=100.0, metavar="CM")
    p.add_argument("--threshold", type=_finite_float, default=1.0, metavar="DB")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="stimulus-vs-recordings balance table")
    p.add_argument("--stimulus", required=True, metavar="FILE")
    p.add_argument("--manifest", required=True, metavar="FILE")
    p.add_argument("--distance", type=_finite_float, default=100.0, metavar="CM")
    p.add_argument("--label", default="stimulus", help="stimulus label in the table")
    _add_bank_args(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("normalize", help="rescale a WAV to a target mean level")
    p.add_argument("--in-file", required=True, metavar="FILE")
    p.add_argument("--level", type=_finite_float, required=True, help="target mean level dB FS")
    p.add_argument("--bits", choices=list(_FORMATS), default="float32")
    p.add_argument("--out-file", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_normalize)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # OSError: an output path; MemoryError: an array the machine cannot hold
    except (BandscopeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _keep_freed_memory() -> None:
    """Have the C allocator keep freed memory for reuse in this process.

    Measuring one recording allocates and frees about a hundred MB in arrays
    of a few MB each. By default glibc returns them to the kernel after each
    recording and the next one faults them in again: on 24 recordings of
    10 s (PCM24, 2-core VM, medians of 10 alternating runs) ``analyze`` made
    14.8k page faults in 0.06 s of system time with this and 42.0k in 0.13 s
    without. Peak memory is set by one recording per worker thread either
    way. The worker threads keep glibc's default arenas: limiting them to
    one shared arena raised analyze's high-water mark on the same
    recordings (82-88 MB, against 78-85 MB). Does nothing where there is
    no mallopt.

    Only the command line sets this: the allocator serves the whole process,
    so a program that calls the library owns the choice (glibc also reads it
    from ``MALLOC_MMAP_THRESHOLD_`` and ``MALLOC_TRIM_THRESHOLD_``).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest automatic value
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main() -> None:
    _keep_freed_memory()
    sys.exit(run())


if __name__ == "__main__":
    main()
