"""Stdout of a fixed set of requests, pinned by sha256.

The digests were recorded from the CLI before the polynomial core was
rewritten; any change of display order, coefficient text or JSON layout in
``derive``, ``series`` or ``verify`` shows up here as a changed digest.
"""

import hashlib

import pytest

from gramcalc.cli import main

START = "-3/2*x^-1*y^2 + 5/7*y"

RATIONAL_GRAM = """\
vars: x y
inert: t
rule x -> 1/2*x*y + t
rule y -> -2/3*x^2*t^-1
start: 3/4*x*y^-1 + t
n: 7
"""

REQUESTS = {
    "derive_paper_G_text": ("derive", "--grammar", "paper_G", "--start", START, "--n", "12"),
    "derive_eulerian_text": ("derive", "--grammar", "eulerian", "--start", START, "--n", "12"),
    "derive_andre_text": ("derive", "--grammar", "andre", "--start", START, "--n", "12"),
    "derive_ramanujan_text": ("derive", "--grammar", "ramanujan", "--start", START, "--n", "12"),
    "derive_exterior_peak_text": (
        "derive", "--grammar", "exterior_peak", "--start", START, "--n", "12",
    ),
    "derive_paper_G_json": (
        "derive", "--grammar", "paper_G", "--start", START, "--n", "12", "--format", "json",
    ),
    "derive_eulerian_json": (
        "derive", "--grammar", "eulerian", "--start", START, "--n", "12", "--format", "json",
    ),
    "derive_andre_json": (
        "derive", "--grammar", "andre", "--start", START, "--n", "12", "--format", "json",
    ),
    "derive_ramanujan_json": (
        "derive", "--grammar", "ramanujan", "--start", START, "--n", "12", "--format", "json",
    ),
    "derive_exterior_peak_json": (
        "derive", "--grammar", "exterior_peak", "--start", START, "--n", "12",
        "--format", "json",
    ),
    "derive_gram_file_text": ("derive", "--grammar", "{gram}"),
    "derive_gram_file_json": ("derive", "--grammar", "{gram}", "--format", "json"),
    "verify_text": ("verify",),
    "verify_json": ("verify", "--format", "json"),
    "series_gen_z": (
        "series", "--which", "gen_z", "--point", "x=4,y=2,z=1,w=3", "--root", "3",
        "--order", "20",
    ),
}

DIGESTS = {
    "derive_andre_json": "2e80624716d51483bf70a1429860a5e28319a8e7bc00acfc3a4a6389365ef392",
    "derive_andre_text": "ae6adc69bc1824e90f5bfc7d0e7e92762abd277cbe2aa25582afb7436f3168a3",
    "derive_eulerian_json": "8896e7582258f47c5a11506810d8f3ae289ac1fc68a467e2c89dbf5fd122a194",
    "derive_eulerian_text": "70658db1265a786b0fccadb50f2f3546a5b48cd2542fcb12420c37a90edf3a61",
    "derive_exterior_peak_json": "1478567ad02807573d763d6a44e9d5461988e6d452d38c43a9c8297d3f69b4e5",
    "derive_exterior_peak_text": "75654b35c841d16410f15575ddc22781d9073cdd61be69bd31e1b5c1056833ff",
    "derive_gram_file_json": "9f3a53fd0d3500767ead18e7615809df1acd4acf830a5bcd487423a9ed086e94",
    "derive_gram_file_text": "7369d9429d33c3ca52bd32beb00b528c8a15dac8a38ea2d51f9739b79c71c34b",
    "derive_paper_G_json": "c519748a9597f3de489a6513a4af9f03d5ae3ead0bb12952fe0fd4377ed9f05a",
    "derive_paper_G_text": "2c32057d902c356cce2d36c556bfb806ea0c314bbee975b10af694f002a75e25",
    "derive_ramanujan_json": "dbbddea6c7f4a058d3bdc1685de40c7ddaa4576ddf13ac000328ec424c5e5916",
    "derive_ramanujan_text": "6af73e59bd42f0bd18d46faf87d8166301c5ba5478ff795b1bc2eb9f2a5ca819",
    "series_gen_z": "d1c583519680fcf8ff9a600bd4f2656b2cbb7d59188c27e4a876ba1ce7accb19",
    "verify_json": "37b1b2bb9522285db2f3e33d41fafb66272a346ae5bec7e945992e3cd59ac06b",
    "verify_text": "1cd422a1e5f2dba7e04e60b87539738ddc3084ee545eea34074670d4c8c11785",
}


@pytest.mark.parametrize("label", sorted(REQUESTS))
def test_stdout_digest_unchanged(label, tmp_path, capsys):
    gram = tmp_path / "rational.gram"
    gram.write_text(RATIONAL_GRAM, encoding="utf-8")
    argv = [arg.replace("{gram}", str(gram)) for arg in REQUESTS[label]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[label]
