"""Command-line workbench: every capability behind one entry point.

Exit codes: 0 success, 1 domain error (the structured error name goes to
stderr), 2 usage error. All stochastic subcommands take an explicit --seed
and reports are byte-identical across reruns with identical flags: no
report carries a wall-clock figure.
"""
import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import __version__, attack, classifier, randomness
from .bits import bits_to_bytes, bytes_to_bits, hex_byte, hex_word, parse_hex
from .cipher import (InstanceSpec, SecretKey, encrypt, key_setup, keystream,
                     load_spec, random_key)
from .errors import (Bsea2Error, InvalidSidecar, UnknownKeyClass,
                     UnreadableInput, UnwritableOutput, WrongLength)
from .plaintext import (DEFAULT_MODEL, PlaintextModel, estimate_p0)


def _spec_from_args(args) -> InstanceSpec:
    spec = load_spec(args.spec)
    f0 = getattr(args, "f0", None)
    if f0 is not None and f0 != spec.f0:
        spec = InstanceSpec(f"{spec.name}+f0", spec.polynomials, f0)
    return spec


def _meta(spec: InstanceSpec) -> dict:
    return {"tool_version": __version__,
            "spec": spec.to_json_dict(),
            "spec_fingerprint": spec.fingerprint()}


def _write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path``; a file that cannot be written is a
    domain error (UnwritableOutput), not a traceback."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: "
                               f"{exc.strerror}") from None


def _write_stream(path: str, bits: np.ndarray) -> None:
    """Write ``bits`` to ``path`` zero-padded to whole bytes. A count that
    is not a multiple of 8 goes to the sidecar ``path``.meta.json, and
    otherwise a sidecar left there is removed (UnwritableOutput if it
    cannot be), so that it cannot cut a later read short."""
    _write(path, bits_to_bytes(bits))
    meta = path + ".meta.json"
    if bits.size % 8:
        _write(meta, json.dumps({"bits": int(bits.size)}).encode())
    elif os.path.lexists(meta):
        try:
            os.remove(meta)
        except OSError as exc:
            raise UnwritableOutput(f"cannot remove {meta}: "
                                   f"{exc.strerror}") from None


def _check_out(path: str) -> None:
    """Refuse an output path that names a directory, or whose directory
    is missing, before any work is done (UnwritableOutput). Other failures
    to write surface in _write."""
    if os.path.isdir(path):
        problem = "Is a directory"
    elif not os.path.isdir(os.path.dirname(path) or "."):
        problem = "No such file or directory"
    else:
        return
    raise UnwritableOutput(f"cannot write {path}: {problem}")


def _emit(args, text: str) -> None:
    """A report to --out or else to stdout, ending in a newline either way."""
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        _write(args.out, text.encode())
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2) + "\n")


def _report(args, spec: InstanceSpec, payload: dict, lines: list,
            table: list | None = None) -> None:
    """The report in --format: the JSON payload with _meta(spec) added
    last, the text lines, or the CSV rows of ``table``."""
    if args.format == "json":
        _emit_json(args, {**payload, "meta": _meta(spec)})
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(table)
        _emit(args, buf.getvalue())
    else:
        _emit(args, "\n".join(lines))


def _read_input(path: str) -> bytes:
    """Contents of an input file; one that cannot be read is a domain
    error (UnreadableInput), not a traceback."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc.strerror}") from None


def _read_key(args, spec: InstanceSpec) -> SecretKey:
    if args.key is not None:
        text = args.key
    else:
        # latin-1 decodes any byte, so text that is not hex is InvalidKey
        text = _read_input(args.key_file).decode("latin-1").strip()
    return SecretKey.from_hex(text, spec.key_bits)


def _load_sample_bits(path: str, nbits: int | None) -> np.ndarray:
    """The first ``nbits`` bits of the stream in ``path``, or all of them.

    The stream is the file's bits cut to the "bits" of its sidecar
    ``path``.meta.json, if there is one: a JSON object whose "bits" is an
    int (not a bool) that falls in the file's last byte, 8 (bytes - 1) <
    bits <= 8 bytes, so that no whole byte is left unread. ``nbits`` may
    cut the stream but not exceed it, so padding is never read as data."""
    bits = bytes_to_bits(_read_input(path))
    meta = path + ".meta.json"
    if os.path.exists(meta):
        try:
            data = json.loads(_read_input(meta))
        except ValueError:          # not JSON, or not text
            data = None
        held = data.get("bits") if isinstance(data, dict) else None
        if type(held) is not int or held < 1:
            raise InvalidSidecar(f'{meta} must be a JSON object whose '
                                 f'"bits" is a positive integer')
        if held > bits.size:
            raise WrongLength(f"{path} holds {bits.size} bits, need {held}")
        if held <= bits.size - 8:
            raise WrongLength(f"{meta} counts {held} bits, but {path} holds "
                              f"{bits.size // 8} bytes: the count must fall "
                              f"in its last byte")
        bits = bits[:held]
    if nbits is None:
        nbits = bits.size
    if not 0 < nbits <= bits.size:
        raise WrongLength(f"{path} holds {bits.size} bits, need "
                          f"{max(nbits, 1)}")
    return bits[:nbits]


# ---------------------------------------------------------------- keygen

def _cmd_keygen(args, spec: InstanceSpec) -> int:
    rng = np.random.default_rng(args.seed)
    report = classifier.partition_keys(spec)
    if args.key_class == "any":
        kprimes = classifier.attackable_kprimes(spec)
        if not kprimes:
            raise UnknownKeyClass("spec has no attackable K'; name a "
                                  "class from partition with --class")
    else:
        rows = {row.label: row for row in report.rows}
        if args.key_class not in rows:
            raise UnknownKeyClass(
                f"spec has no class {args.key_class}; available: "
                f"{', '.join(rows)}")
        kprimes = rows[args.key_class].kprimes
    kprime = int(rng.choice(np.array(kprimes)))
    key = random_key(spec, rng, kprime=kprime)
    row = report.row_for(kprime)
    _report(args, spec, {"key": key.to_hex(), "kprime": hex_byte(kprime),
                         "class": row.label, "exponent": row.exponent,
                         "seed": args.seed}, [key.to_hex()])
    return 0


# ------------------------------------------------- keystream / encrypt

def _cmd_keystream(args, spec: InstanceSpec) -> int:
    key = _read_key(args, spec)
    _write_stream(args.out, keystream(key_setup(spec, key), args.nbits))
    print(f"wrote {args.nbits} keystream bits to {args.out}",
          file=sys.stderr)
    return 0


def _cmd_encrypt(args, spec: InstanceSpec) -> int:
    key = _read_key(args, spec)
    if os.path.exists(args.infile + ".meta.json"):
        bits = _load_sample_bits(args.infile, None)
    else:       # whole bytes, an empty file included
        bits = bytes_to_bits(_read_input(args.infile))
    _write_stream(args.out, encrypt(key_setup(spec, key), bits))
    print(f"processed {(bits.size + 7) // 8} bytes -> {args.out}",
          file=sys.stderr)
    return 0


# ------------------------------------------------- spectrum / classify

def _cmd_spectrum(args, spec: InstanceSpec) -> int:
    model = PlaintextModel(p0=args.p0) if args.p0 is not None else DEFAULT_MODEL
    report = classifier.spectrum_report(spec, args.kprime, model)
    lines = [
        f"f0       = {report['f0']}",
        f"K'       = {report['kprime']}",
        f"f        = {report['f']}",
        f"walsh(f) = ({', '.join(map(str, report['walsh_f']))})",
        f"walsh(g) = ({', '.join(map(str, report['walsh_g']))})",
        f"keystream distinguisher: {'yes' if report['distinguisher'] else 'no'}",
        "usable masks (g):",
    ]
    for m in report["usable_masks"]:
        regs = ",".join(f"R{r}" for r in m["registers"])
        lines.append(f"  u={m['mask_bits']} ({regs:<8}) chi={m['chi']:+d} "
                     f"p={m['p']:.4f}  p'={m['p_prime']:.4f}")
    if report["plan"] is not None:
        plan = report["plan"]
        lines.append(f"plan: max exponent 2^{plan['max_exponent']}")
        for st in plan["stages"]:
            regs = ",".join(f"R{r}" for r in st["targets"])
            lines.append(
                f"  stage u={st['mask_bits']} targets [{regs}] "
                f"2^{st['exponent']} known {st['known']}")
    else:
        lines.append(f"plan: UNATTACKABLE {report['error']['uncovered']}")
    _report(args, spec, report, lines)
    return 0


def _cmd_classify(args, spec: InstanceSpec) -> int:
    kprime = args.kprime
    report = classifier.partition_keys(spec)
    row = report.row_for(kprime)
    plan = report.plans[kprime]
    payload = {
        "kprime": hex_byte(kprime),
        "class": row.label,
        "exponent": row.exponent,
        "plan": (classifier.plan_to_dict(plan) if plan is not None
                 else None),
    }
    comp = f"2^{row.exponent}" if row.exponent is not None else "none"
    _report(args, spec, payload, [f"K' {hex_byte(kprime)}: class {row.label} "
                                  f"(complexity {comp})"])
    return 0


# ------------------------------------------------------------ partition

def _cmd_partition(args, spec: InstanceSpec) -> int:
    report = classifier.partition_keys(spec)
    table = [["class", "complexity", "example_kprime", "example_spectrum",
              "count", "fraction"]]
    lines = [f"f0 = {hex_word(report.f0)}"]
    for row in report.rows:
        comp = f"2^{row.exponent}" if row.exponent is not None else None
        table.append([row.label, comp or "none", hex_byte(row.example_kprime),
                      " ".join(f"{v:+d}" for v in row.example_spectrum),
                      row.count, f"{row.fraction:.4f}"])
        lines.append(f"{row.label:<13} {comp or 'unattackable':<7} "
                     f"count {row.count:>3} "
                     f"fraction {row.fraction:.4f} example "
                     f"{hex_byte(row.example_kprime)}")
    if report.diff_vs_paper is not None:
        lines.append("diff vs published reference counts:")
        for d in report.diff_vs_paper:
            exp = f"2^{d['exponent']}" if d["exponent"] is not None else "unatt."
            lines.append(f"  {exp:<7} ours {d['ours']:>3} "
                         f"reference {d['reference']:>3} delta {d['delta']:+d}")
    _report(args, spec, classifier.report_to_json_dict(report, spec), lines,
            table)
    return 0


# --------------------------------------------------------------- attack

def _cmd_attack(args, spec: InstanceSpec) -> int:
    bits = _load_sample_bits(args.ciphertext, args.bits)
    if args.corpus:
        model = estimate_p0(_read_input(args.corpus))
    elif args.p0 is not None:
        model = PlaintextModel(p0=args.p0)
    else:
        model = DEFAULT_MODEL
    sample = attack.CiphertextSample(bits=bits, model=model, spec=spec)

    payload = {
        "sample_bits": int(bits.size),
        "p0": model.p0,
        "retention_k": args.retention,
        "budget_exponent": args.budget,
        "meta": _meta(spec),
    }
    failure = None      # EmptyBeam's error line, printed after the report
    if args.kprime is not None:
        plan = classifier.plan_attack(spec, args.kprime)
        payload["mode"] = "single"
        try:
            result = attack.run_plan(sample, plan, k=args.retention,
                                     budget=args.budget)
            transcript, best = result.transcript, result.candidates[0]
        except attack.EmptyBeam as exc:
            failure = f"error: EmptyBeam: {exc}"
            transcript, best = exc.transcript, None
        for st in transcript["stages"]:
            print(f"  stage mask {st['mask']:04b} 2^{st['exponent']} "
                  f"{st['scorings']} scorings", file=sys.stderr)
        payload["transcript"] = transcript
        payload["recovered_key"] = best.key.to_hex() if best else None
    else:
        result = attack.run_parallel_instances(
            sample, k=args.retention, budget=args.budget,
            stop_on_success=not args.exhaustive,
            progress=lambda st: print(f"  K' {hex_byte(st.kprime)}: "
                                      f"{st.status}", file=sys.stderr))
        payload["mode"] = "all-256"
        payload["recovered_key"] = (result.best.key.to_hex()
                                    if result.best else None)
        if result.best is not None:
            payload["winner"] = {
                "kprime": hex_byte(result.best.kprime),
                "transcript": result.transcripts[result.best.kprime],
            }
        payload["statuses"] = [
            {
                "kprime": hex_byte(st.kprime),
                "exponent": st.exponent,
                "status": st.status,
                "attempt": st.attempt,
            }
            for st in result.statuses
        ]
    _emit_json(args, payload)
    if failure is not None:
        print(failure, file=sys.stderr)
    return 0 if payload["recovered_key"] else 1


# ----------------------------------------------------------------- fips

def _cmd_fips(args, spec: InstanceSpec) -> int:
    nbits = randomness.thresholds()["stream_bits"]
    if args.infile:
        bits = _load_sample_bits(args.infile, nbits)
    else:
        key = _read_key(args, spec)
        bits = keystream(key_setup(spec, key), nbits)
    res = randomness.fips_battery(bits)
    _report(args, spec, res.to_dict(), [
        f"monobit : ones={res.monobit[0]}  "
        f"{'pass' if res.monobit[1] else 'FAIL'}",
        f"poker   : X={res.poker[0]:.3f}  "
        f"{'pass' if res.poker[1] else 'FAIL'}",
        f"runs    : {'pass' if res.runs[1] else 'FAIL'}",
        f"long run: max={res.long_run[0]}  "
        f"{'pass' if res.long_run[1] else 'FAIL'}",
        f"all     : {'pass' if res.all_pass else 'FAIL'}",
    ])
    return 0 if res.all_pass else 1


def _cmd_passrates(args, spec: InstanceSpec) -> int:
    data = randomness.batch_pass_rates(spec, args.keys, args.seed)
    table = [["class", "exponent", "n", "monobit_rate", "poker_rate",
              "runs_rate", "long_run_rate", "all_pass_rate", "ci_low",
              "ci_high"]]
    lines = []
    for row in data["rows"] + [data["overall"]]:
        lo, hi = row["all_pass_ci95"]
        table.append([row["class"], row["exponent"], row["n"],
                      *(f"{row[f'{name}_rate']:.4f}" for name in
                        ("monobit", "poker", "runs", "long_run", "all_pass")),
                      f"{lo:.4f}", f"{hi:.4f}"])
        lines.append(f"{row['class']:<13} n={row['n']:>5} all-pass "
                     f"{row['all_pass_rate']:.3f} (95% CI {lo:.3f}-{hi:.3f})")
    lines.append(f"reference all-pass rate {data['reference_all_pass_rate']}"
                 f" delta {data['reference_delta']:+.3f}"
                 f"{'  [FLAGGED]' if data['reference_flagged'] else ''}")
    _report(args, spec, data, lines, table)
    return 0


# ---------------------------------------------------------------- parser

def _int_at_least(low: int):
    """argparse type for sizes and counts: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return parse


def _probability(text: str) -> float:
    """argparse type for --p0: a number in [0, 1] (NaN fails the test)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid number: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _hex_below(bits: int):
    """argparse type for --f0 and --kprime: hex digits with an optional
    0x (no sign, no '_'), of a value below 2^bits."""
    def parse(text: str) -> int:
        try:
            value = parse_hex(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid hex number: {text!r}") from None
        if value >> bits:
            raise argparse.ArgumentTypeError(
                f"must fit in {bits} bits, got {text}")
        return value
    return parse


def _add_key_args(p):
    """--key and --key-file, exactly one of them; returns their group."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--key", help="key as hex characters")
    group.add_argument("--key-file", help="file holding the hex key")
    return group


def _command(sub, name: str, func, help: str, *, f0: bool = False,
             formats: tuple = (), out_required: bool = False):
    """Declare subcommand ``name``, run as ``func(args, spec)``: --spec,
    --f0 if ``f0``, --format if ``formats`` names any besides text (the
    default), and --out, required if ``out_required``."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("--spec", default="default",
                   help="instance: default, mini, or a spec JSON file")
    if f0:
        p.add_argument("--f0", type=_hex_below(16),
                       help="override the spec's initial truth table")
    if formats:
        p.add_argument("--format", choices=["text", *formats],
                       default="text")
    p.add_argument("--out", required=out_required)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bsea2",
        description="Build-and-break workbench for the BSEA-2 stream cipher")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = _command(sub, "keygen", _cmd_keygen,
                 "sample a key from an attack class", f0=True,
                 formats=("json",))
    p.add_argument("--class", dest="key_class", default="any",
                   help="class label from partition (default: any attackable)")
    p.add_argument("--seed", type=_int_at_least(0), required=True)

    p = _command(sub, "keystream", _cmd_keystream, "write raw keystream bits",
                 out_required=True)
    _add_key_args(p)
    p.add_argument("--nbits", type=_int_at_least(0), required=True)

    for name in ("encrypt", "decrypt"):
        p = _command(sub, name, _cmd_encrypt,
                     f"{name} a file (XOR keystream)", out_required=True)
        _add_key_args(p)
        p.add_argument("--in", dest="infile", required=True)

    p = _command(sub, "spectrum", _cmd_spectrum,
                 "masked table, Walsh spectra, usable masks, plan", f0=True,
                 formats=("json",))
    p.add_argument("--kprime", type=_hex_below(8), required=True)
    p.add_argument("--p0", type=_probability, default=None)

    p = _command(sub, "classify", _cmd_classify, "attack class of one K'",
                 f0=True, formats=("json",))
    p.add_argument("--kprime", type=_hex_below(8), required=True)

    _command(sub, "partition", _cmd_partition, "classify all 256 K' values",
             f0=True, formats=("json", "csv"))

    p = _command(sub, "attack", _cmd_attack,
                 "run the ciphertext-only attack", f0=True)
    p.add_argument("--ciphertext", required=True)
    p.add_argument("--bits", type=_int_at_least(1), default=None,
                   help="bit-precise sample length (default: whole file)")
    model = p.add_mutually_exclusive_group()
    model.add_argument("--p0", type=_probability, default=None)
    model.add_argument("--corpus", help="estimate p0 from this byte corpus")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--kprime", type=_hex_below(8), default=None,
                      help="attack a single K' instance (default: all 256)")
    mode.add_argument("--exhaustive", action="store_true",
                      help="do not stop at the first successful tier")
    p.add_argument("--retention", type=_int_at_least(1),
                   default=attack.DEFAULT_RETENTION)
    p.add_argument("--budget", type=_int_at_least(0),
                   default=attack.DEFAULT_BUDGET_EXPONENT,
                   help="refuse stages above 2^budget joint states")

    p = _command(sub, "fips", _cmd_fips,
                 "FIPS 140-2 battery over 20,000 bits", formats=("json",))
    _add_key_args(p).add_argument("--in", dest="infile",
                                  help="file holding the stream's bits")

    p = _command(sub, "passrates", _cmd_passrates,
                 "FIPS pass rates over sampled keys, by class",
                 formats=("json", "csv"))
    p.add_argument("--keys", type=_int_at_least(randomness.MIN_KEYS),
                   default=1000)
    p.add_argument("--seed", type=_int_at_least(0), required=True)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args, _spec_from_args(args))
    except Bsea2Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
