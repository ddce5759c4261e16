"""The CLI's exit-code contract on generated spec files.

Every run exits 0 (success), 1 (domain error) or 2 (usage error). A
domain error is one ``error: <name>: ...`` line on stderr, where <name>
is a named Bsea2Error subclass (never the base class itself), and never
a traceback. Every key that ``keygen`` prints for a spec is a key of
that spec.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from bsea2 import errors
from bsea2.cli import main


@st.composite
def spec_files(draw):
    """A valid spec file's JSON object: four distinct degrees from 1 to
    12 or to 64, each polynomial's constant term and any other exponents
    below its degree, and any f0. Up to 12, every single-register stage
    fits the attack's 2^12 budget, so the search attempts instances."""
    top = draw(st.sampled_from([12, 64]))
    degrees = draw(st.lists(st.integers(1, top), min_size=4, max_size=4,
                            unique=True))
    polynomials = []
    for deg in degrees:
        taps = draw(st.sets(st.integers(0, deg - 1), max_size=6)) | {0}
        polynomials.append([deg, *sorted(taps, reverse=True)])
    f0 = draw(st.integers(0, 0xFFFF))
    return {"name": "drawn", "polynomials": polynomials, "f0": f"0x{f0:04X}"}


def run(*argv):
    """(exit code, stdout, stderr) of one in-process CLI run; an escaping
    exception other than argparse's SystemExit fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(code, out, err, report_on_exit_1=False):
    """The exit code and the error lines of one run. fips (a failed
    battery) and attack (no key recovered) exit 1 with their report on
    stdout; every other exit 1 is a domain error."""
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    names = [line.split(":")[1].strip() for line in err.splitlines()
             if line.startswith("error: ")]
    for name in names:
        assert issubclass(getattr(errors, name, type), errors.Bsea2Error), err
        assert name != "Bsea2Error", err
    if code == 0:
        assert names == [], err
    elif code == 1 and report_on_exit_1 and out:
        assert len(names) <= 1, err
    elif code == 1:
        assert len(names) == 1, err
    else:
        assert err.startswith("usage: ")


#: registers of 3 to 6 stages, where every class fits the attack's
#: 2^12 budget and retention 1000 grows a C0 beam to 7 * 15 * 31 * 63 =
#: 205,065 candidates, past the 200,000 limit
SMALL_SPEC = {"name": "small", "f0": "0x93A0",
              "polynomials": [[3, 1, 0], [4, 1, 0], [5, 2, 0], [6, 1, 0]]}


@settings(max_examples=25)
@example(spec=SMALL_SPEC, seed=1, kprime=0, nbits=8, retention=1000)
@given(spec=spec_files(), seed=st.integers(0, 2**32),
       kprime=st.integers(0, 0xFF), nbits=st.integers(0, 300),
       retention=st.integers(1, 1000))
def test_generated_specs_keep_the_cli_contract(spec, seed, kprime, nbits,
                                               retention):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spec_file = tmp / "spec.json"
        spec_file.write_text(json.dumps(spec))
        s = ["--spec", spec_file]
        for argv in (["classify", *s, "--kprime", hex(kprime)],
                     ["spectrum", *s, "--kprime", hex(kprime)],
                     ["partition", *s, "--format", "csv"]):
            check_contract(*run(*argv))

        code, out, err = run("keygen", *s, "--seed", seed)
        check_contract(code, out, err)
        if code != 0:
            return
        key = ["--key", out.strip()]

        code, out, err = run("keystream", *s, *key, "--nbits", nbits,
                             "--out", tmp / "ks.bin")
        check_contract(code, out, err)
        assert code == 0, err
        assert (tmp / "ks.bin").stat().st_size == (nbits + 7) // 8

        (tmp / "p.bin").write_bytes(bytes(range(64)))
        code, out, err = run("encrypt", *s, *key, "--in", tmp / "p.bin",
                             "--out", tmp / "c.bin")
        check_contract(code, out, err)
        assert code == 0, err

        code, out, err = run("fips", *s, *key, "--format", "json")
        check_contract(code, out, err, report_on_exit_1=True)
        assert json.loads(out)["all_pass"] == (code == 0)

        # an all-256 search on the ciphertext: 512 bits, 2^12 budget, and
        # retentions up to where the beam outgrows its limit
        check_contract(*run("attack", *s, "--ciphertext", tmp / "c.bin",
                            "--p0", "0.9", "--retention", retention,
                            "--budget", "12"), report_on_exit_1=True)
