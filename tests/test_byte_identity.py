"""Stdout of a fixed set of requests, pinned by sha256.

The digests were recorded from the CLI before the polynomial core was
rewritten, those of the order-150 ``series`` requests before rational
series moved to integer numerators, and those of the n = 6 ``table``
requests before the ``.gram`` reader was rebuilt; any change of display
order, coefficient text or JSON layout in ``derive``, ``series``, ``table``
or ``verify`` shows up here as a changed digest.
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

# Every closed form at a high order, as printed and as EGF JSON: the
# rational series arithmetic is pinned at the orders the benchmark asks for.
_FORM_POINTS = {
    "gen_z": ("--point=x=3,y=3/2,z=17/54,w=5/3", "--root=5/2"),
    "gen_y": ("--point=x=3,y=3/2,z=17/54,w=5/3", "--root=5/2"),
    "carlitz_F": ("--point=x=3,y=3/2,z=17/54,w=5/3", "--root=5/2"),
    "gessel_T": ("--point=x=48/49", "--root=1/7"),
    "elizalde_noy_U": ("--point=y=13/4", "--root=15/4"),
    "no_pdd_U0": (),
}
for _which, _point in _FORM_POINTS.items():
    _argv = ("series", "--which", _which, *_point, "--order", "150")
    REQUESTS[f"series_{_which}_150_text"] = _argv
    REQUESTS[f"series_{_which}_150_egf_json"] = (*_argv, "--egf", "--format", "json")

# Every closed form at the largest point values a request may give (10-digit
# parts, ``cli.MAX_POINT_DIGITS``), where the numbers of the series division
# are largest; pinned before the reciprocal-then-product became one quotient.
_WIDE_GRAMMAR_POINT = (
    "--point=x=438271605/2,y=2999999990/3,z=1123456788,w=7/3", "--root=123456789",
)
_WIDE_POINTS = {
    "gen_z": _WIDE_GRAMMAR_POINT,
    "gen_y": _WIDE_GRAMMAR_POINT,
    "carlitz_F": _WIDE_GRAMMAR_POINT,
    "gessel_T": ("--point=x=9845801056/9998200081", "--root=12345/99991"),
    "elizalde_noy_U": ("--point=y=298440499/243754474", "--root=237298155/243754474"),
    "no_pdd_U0": (),
}
for _which, _point in _WIDE_POINTS.items():
    _argv = ("series", "--which", _which, *_point, "--order", "40")
    REQUESTS[f"series_{_which}_40_wide_text"] = _argv
    REQUESTS[f"series_{_which}_40_wide_egf_json"] = (*_argv, "--egf", "--format", "json")

# Every table kind and every marginal triangle (with the kind it reads) at
# n = 6, in each output format.
_TABLES = {
    "exterior_pdd": ("exterior_pdd", ()),
    "peak_dd": ("peak_dd", ()),
    "carlitz_quadruple": ("carlitz_quadruple", ()),
    "triangle_T": ("exterior_pdd", ("--triangle", "T")),
    "triangle_U": ("exterior_pdd", ("--triangle", "U")),
    "triangle_R": ("peak_dd", ("--triangle", "R")),
    "triangle_W": ("peak_dd", ("--triangle", "W")),
}
for _label, (_kind, _triangle) in _TABLES.items():
    for _format in ("text", "csv", "json"):
        REQUESTS[f"table_{_label}_{_format}"] = (
            "table", "--kind", _kind, "--n", "6", *_triangle, "--format", _format,
        )

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
    "series_gen_z_150_text": "8e7250aef3b61cc5944bb1a645be5b5155f76c74c242e2a386e382ee84d4aa6f",
    "series_gen_z_150_egf_json": "ae7d288c9bf4723c78f2eb8ab73591218f293c82ed6d3bb36193c653ed5ab53a",
    "series_gen_y_150_text": "e5f84c178d18f5c95f4df3f48b964ced384e7ce912d7964f8b5cf204400226cb",
    "series_gen_y_150_egf_json": "4132744e05e08699ae2427a439f6205305b9f2c6bca6ba3bb80ccac0b8506bf1",
    "series_carlitz_F_150_text": "dd0fda00c8b20c27fb6507f74c14e059431cef1a4be34c5d1668964e4bd11746",
    "series_carlitz_F_150_egf_json": "9f61f786a76a31bd8430dff2069277c5604af92acb39ac6455bd94d1e80b0876",
    "series_gessel_T_150_text": "ac1cfe871e53b02c76e9cd5ba0f30ce7e73e0c4c49ad1823af851896498c04cb",
    "series_gessel_T_150_egf_json": "379361be827715aae9fbed259acff375151382b1d4f2eb0d509952c017935d1a",
    "series_elizalde_noy_U_150_text": "b92095543f8579514cf36044b04e007a9cbb6b37bf91f757248059eb2f453754",
    "series_elizalde_noy_U_150_egf_json": "7a5ee7ef5b77e1622a14a75318b6938b52a2dc2d47cc3c55797d5a9496de0c0d",
    "series_no_pdd_U0_150_text": "55de3d2a76fcc5a20502ef05b7f757fab10db32769f30bb33280ce1918953ec7",
    "series_no_pdd_U0_150_egf_json": "087cb05fc9f4b377a9997a46888b2cfc7cfc70bcc6edb284c5d450cdd06c52c1",
    "series_gen_z_40_wide_text": "18d7594356a35e5c8c5190084e2dcf07b72761fdf64f707351ae4077131ea462",
    "series_gen_z_40_wide_egf_json": "15f059f95a1e29c2cb1c4042609d8500fac79837e497eefc2c5a6bb991b5f517",
    "series_gen_y_40_wide_text": "6f8bff69a17a83514e0be830c0024d274acdd5c5d73e2110aa388a0c38994852",
    "series_gen_y_40_wide_egf_json": "757180b6d9ad3804a77c0e0b67d1684a60a80db531c5b28c6fd3c493300719f2",
    "series_carlitz_F_40_wide_text": "96d5f85d6b919f9539837777a345c524668e35bcde8d44070eda4acac844215c",
    "series_carlitz_F_40_wide_egf_json": "789f43ab7a9888d44e8203caab6f603e2678edfd53a27fbeb9794421ae12a97b",
    "series_gessel_T_40_wide_text": "914e6a34769382dae0ece6e9129b120ab01c67b582af13c8a45d96a00ad1fcd0",
    "series_gessel_T_40_wide_egf_json": "9cf41f3d18d9aafecfea8823bdb241b09d54bd6bda3a569600864e0b9b7342e5",
    "series_elizalde_noy_U_40_wide_text": "9ac797960ac3b19945eb2f414409db0e6ff8c8d8abd3bdbd1453da6337491abc",
    "series_elizalde_noy_U_40_wide_egf_json": "eb14c893a0b8f0c0340af53dcb57621d0544247b4ce5801e2fbe475dd14d858e",
    "series_no_pdd_U0_40_wide_text": "ec2db7a1e4c0d54e120d4c7c2ae4ed18ef8175a35e91465f43c5c73fda084a99",
    "series_no_pdd_U0_40_wide_egf_json": "fbf919de8df2f6c0e7e55aed940ebc6ae81cd884c0c455fb31eacc67bdeb1d9d",
    "table_exterior_pdd_text": "9e805b16daee2e53f65c2b8ba6aca26532e504775fb8c34e4cb8c28786785d93",
    "table_exterior_pdd_csv": "e2c24874801033d9a258364c755224e98632a696415335b0322314d27dbf8775",
    "table_exterior_pdd_json": "b9072e2b397a1c0e6dd6516ed855d3ffd8502c46b94df517bff36074aa56a1ea",
    "table_peak_dd_text": "565c2e4ade0ce66824bea7d0008ae1f2783d69f8f7c5bb8a44135de2f1dcc496",
    "table_peak_dd_csv": "abdfab64bb9762dddcd54bfc8b51da873d6c118c04363dc29a07176693d66422",
    "table_peak_dd_json": "2bdf4e53bf594c94105d79264323307098627c40c56a26b10484976745af433d",
    "table_carlitz_quadruple_text": "891d38a31a74122f30fc901a01ab411be5305337c0a27fdca82414e280c66ad6",
    "table_carlitz_quadruple_csv": "877b3dab87ac5cbff54b2391a68beb0e11c8e8ec2789dd53b6696e732cf5df4a",
    "table_carlitz_quadruple_json": "5d039a790d3e1e2b0bc334761f9f8e1e3516ff9785c7dbc80d5fe26fa7a0bd96",
    "table_triangle_T_text": "3aaa42698ca57bb9f82e69edd355fe5fd2b1fa581511381f2c0163e08c045294",
    "table_triangle_T_csv": "c8d11568d2295836ae92c37c92a3d01e11cc57c5b49fba10fbbcafe185aeabde",
    "table_triangle_T_json": "3c7b6bc1853ec33d58239f8b043f0c79f947a44e4aeb1cc7e3ee210523df13af",
    "table_triangle_U_text": "62517b0215689792cae9a0d298daa9533762924288d39e36008158e69ce8aa23",
    "table_triangle_U_csv": "c1efcb3fcbbe5d8fc5d89ed216ee9597fde5713a1ff8ecba758c9919575ac492",
    "table_triangle_U_json": "c8429c3407687d83ca56f325da0fc6e09d02aa912f9e91252c88c2115f0ee93e",
    "table_triangle_R_text": "35343471f0a24d1a5f79a1c6cae2b552f461acd886fab02e2c0c08eff4c4a9df",
    "table_triangle_R_csv": "b776dccdaabfd4e8e0e68b571df62da6b31012cbe340005e7704b468ffd90462",
    "table_triangle_R_json": "4f966788b0bae19dd01b09962b1d68a27bc46925845c38fd69fecff6bcd78fad",
    "table_triangle_W_text": "ec9a3730c8939c96eaa2cf7d27311fbe3153a41745df5f3dae68b956ef5bb54d",
    "table_triangle_W_csv": "05046002a12fec93af31dd4fdbec6acc6f2bb23e0f9bd5679492f05473548543",
    "table_triangle_W_json": "6d61a9df6b3423446799f59ae975cbcb3032ba06ce0536844791b3305f677179",
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
