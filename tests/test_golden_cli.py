"""CLI calls pinned by digest.

Each key is a command line, split with ``shlex``; each digest is the
SHA-256 of ``json.dumps([argv, exit code, stdout, stderr])`` for one
in-process ``main(argv)`` call, recorded once and never edited: a change in
any byte a verb prints, or in its exit code, changes the digest.  The calls
run in a directory that holds ``net.json`` (a seeded diamond network) and
``bad.json`` (``{}``), so the file names in the argv and in the error text
are fixed.  ``--help`` is not pinned: argparse's layout varies between
Python versions.
"""

import argparse
import hashlib
import json
import shlex

import pytest

from skewmatroid.cli import build_parser, main

NET = {
    "field": "2,4,2,1,19",
    "nodes": [
        {"id": "s", "role": "source"},
        {"id": "a", "role": "relay"},
        {"id": "b", "role": "relay"},
        {"id": "t", "role": "sink"},
    ],
    "edges": [["s", "a"], ["s", "b"], ["a", "t"], ["b", "t"]],
    "class": 0,
    "rank": 2,
    "trials": 40,
    "seed": 5,
}

VERBS = {
    "fieldinfo": "describe the field context",
    "mul": "skew product of two polynomials",
    "divmod": "right quotient and remainder",
    "grcd": "greatest common right divisor",
    "llcm": "least left common multiple",
    "eval": "evaluate a polynomial at an element",
    "zeros": "zero set of a polynomial",
    "classof": "conjugacy class of an element",
    "classelems": "list a conjugacy class",
    "unwarp": "invert the warping map inside a class",
    "minpoly": "minimal skew polynomial of a point set",
    "closure": "closure of a point set",
    "pindep": "is the point set P-independent?",
    "pbasis": "greedy P-basis of a point set",
    "rank": "matroid rank of a point set",
    "flats": "enumerate flats (small fields only)",
    "repmatrix": "representation matrices over the base field",
    "dist": "flat-metric distance between two point sets",
    "isometry-check": "verify the subspace-to-flat correspondence is a bijective isometry",
    "simulate": "run the network simulator on a JSON spec",
    "selftest": "run the built-in golden checks",
}

DIGESTS = {
    # every field verb, in text and --json mode
    "--field 2,4,2,1 fieldinfo":
        "b57062e412247f406391b0df75e23d5bde5c49166387627b756d8589bc081a9e",
    "--field 2,4,2,1 --json fieldinfo":
        "2698c9655a45e087f71a9ae35b101186c978f22e6671075f7c9457aab55b9bd3",
    "--field 3,2,1,1 fieldinfo":
        "2b3565adc23ee64476a9bb0a08d13937455a77e006ac2a31b285719a4a44baad",
    "--field 3,2,1,1 --json fieldinfo":
        "fced308c604339c4db27e1d56f4c0ff39cf8ec9674a0c61a805b41cc153ffbf3",
    "--field 2,2,1,1 mul x+1 'g1*x+1'":
        "67453d3bdbc10b9781cc0f9cc86a1a863f927535be736cac7785e94ba92d29b3",
    "--field 2,2,1,1 --json mul x+1 'g1*x+1'":
        "bab622bd7a98461a9bb8da31e566f664f2e18e0ed94d79dc534ad0e5a50f1540",
    "--field 2,4,2,1 mul 'g2*x^2 + x' 'g3*x + 1'":
        "625bdcbf4cfdde713f845656642b6c383cdafd0787b638c4679f3d5595861ffc",
    "--field 2,4,2,1 --json mul 'g2*x^2 + x' 'g3*x + 1'":
        "f648914b2625d93dfa507456c06aec99edb26c482a92b77d5ee774cab6c7b7ef",
    "--field 2,2,1,1 divmod x^4+x^2+1 x^2+g1":
        "c806f58f53a9173e2d84d5f061fee576399161aaf2d7254a5644f38e89419f4e",
    "--field 2,2,1,1 --json divmod x^4+x^2+1 x^2+g1":
        "a97d4305dd8fd95c8e6340d13e83375acd1b214acada7e7f77130b68ed3f6d81",
    "--field 2,2,1,1 grcd x^2+x+1 x^2+g1":
        "a3848089f0bd11547787b7d1e35d3ce8cc5ba9922c583754d75013b98e5d60f5",
    "--field 2,2,1,1 --json grcd x^2+x+1 x^2+g1":
        "b34da4e0198d17eb105f289b400766eee8b39b64fca9d52bc3a87d339de18fd6",
    "--field 2,2,1,1 llcm x^2+x+1 x^2+g1":
        "29a5dfda57c1f25fe0f963f52e18bfa2ddd967835730cd08d279159a37d3f5e8",
    "--field 2,2,1,1 --json llcm x^2+x+1 x^2+g1":
        "0d4286f893b080830d6274b998e6ce8fbc7c81f0b3383521d77092e398524318",
    "--field 2,4,2,1 eval x^2+1 g3":
        "b10f447b2d192e3910b765db0a3e43083cacfce68d29a15bc9304d61db47d8c4",
    "--field 2,4,2,1 --json eval x^2+1 g3":
        "c4179d0ffb35e45ee8819ad93f8dd5d2ae9355c919abe951e5d4771418c3c929",
    "--field 2,4,2,1 eval 'g1*x + g2' g7":
        "c22b65529c6fdbb42b10097f8760597ca7148819ea543df6edb3ef0471623f68",
    "--field 2,4,2,1 --json eval 'g1*x + g2' g7":
        "f10afdbc3f95e4dfaa1e073a390405e8db7b169413efd6cd31b313abd21b9921",
    "--field 2,4,2,1 zeros x^2+1":
        "e68af7209a5fc7985cd4f547774941a38deb20e779eadb017c77a302155a9ab1",
    "--field 2,4,2,1 --json zeros x^2+1":
        "52997607e808d0df586509698d8367d4a10ec3b0322ddc8226018e649051ba9b",
    "--field 2,4,2,1 zeros 1":
        "8938adb0028837ad280e0acf21fc86ae711582286878d39ebc7b73033ecb4737",
    "--field 2,4,2,1 --json zeros 1":
        "2ff9694539e5216ff543a46826bdd85ed5019a43e5d466eec8a2e71fbfce69b2",
    "--field 2,4,2,1 classof g7":
        "41cd7d896878b748c66d5265f661613194409e09c798353b6c24464d7cfc9960",
    "--field 2,4,2,1 --json classof g7":
        "0e9b0acf09bfd2be8e9360f74df629d05663e348a41b9e6eee90bfc0984ab454",
    "--field 2,4,2,1 classof 0":
        "cba12fcb9bb1bf597d866c4acf38c6a7ed00de03d5a6018c1102ceebfac27edb",
    "--field 2,4,2,1 --json classof 0":
        "8a282c403c1f02c98a3038b7d4f8535fe959b823b7a4b41f1714da51879556cd",
    "--field 2,4,2,1 classelems 0":
        "c2d2f306c4184593f79826094307d7d482f30c63138113e170e5ae84c7efe84f",
    "--field 2,4,2,1 --json classelems 0":
        "20b0b3f6ac1ad59dc99e2a7ce484ea16c1b86ff0eef4caed29f8b3cf7842e030",
    "--field 2,4,2,1 classelems 2":
        "ed2ebf5689b325c2e5cfa835324902b332d904ba21bb261b222b9edc730551a4",
    "--field 2,4,2,1 --json classelems 2":
        "fa16a2d2188d7fe7f712d4e6bfd7214cd12f3dd43091aeadd57d3bc832c6490d",
    "--field 2,4,2,1 unwarp g3":
        "6ce6e09f468910f4da4129adaeef290ada221e72db0d72cb8ad995dded421f62",
    "--field 2,4,2,1 --json unwarp g3":
        "da8a06131886f5e372f4d17d329a7c5e1b0e4240fa4ea2d64d0bf891b016893f",
    "--field 2,4,2,1 unwarp g3 --method both":
        "3d3a1937c1507342cd95913128a6f86bdde81f77e8ca21c2a64597444adfba00",
    "--field 2,4,2,1 --json unwarp g3 --method both":
        "52893727ef3dcfa89fe24ccdd140f02046db221eb1d2e4c27c8b914be9da736d",
    "--field 2,4,2,1 unwarp g3 --class 0 --method 2":
        "ceec2d3feb2817ab807812a2cef8b5753d802e9f684707e4538d9e4e206a03a2",
    "--field 2,4,2,1 --json unwarp g3 --class 0 --method 2":
        "ef48283e2dd06d225e25c85c04ffb6f65607fe70ec592d33981adc1a2b87f25c",
    "--field 2,4,2,1 minpoly 1,g3":
        "2e2169442ca81b137e689f8c9cc3ce9f3a817b7fc074d1f6dff415242d52d8c6",
    "--field 2,4,2,1 --json minpoly 1,g3":
        "59de83395f1cc0c01711f12ebce12f892d32466b4e38a1edb4bcca3874394a20",
    "--field 2,4,2,1 minpoly ''":
        "271bd3c35578cf44984dc0b08425b3388df1971115e2ae1c71be91e5f4fa6f1d",
    "--field 2,4,2,1 --json minpoly ''":
        "154badd9967a2a17e925450f2c1c9e3a55d85dee008e1d65b6d89fe2b318baef",
    "--field 2,4,2,1 closure 1,g3":
        "863d1c1f8b7f2e2d5077813923e205d509c1a9d8f0fbc41f6ea014cb7f0dbafa",
    "--field 2,4,2,1 --json closure 1,g3":
        "a09aa81abe087f0ae0193d4d2d7aa21bf244666d6d4513f4778379b030eee1ac",
    "--field 2,4,2,1 closure ''":
        "163d41d89ee0169fda9ebaf0e7071abda07e21d73630721cd7eeb62f513fca94",
    "--field 2,4,2,1 --json closure ''":
        "79b74aa9823c8c88171c4a418afa49e2218cc91846c3928dd51274ee8f0994de",
    "--field 2,4,2,1 closure g1,g2":
        "3fb108fbe8377a3c59c5a4eebe7915a03f09a9f196415f735e977387b90a25d1",
    "--field 2,4,2,1 --json closure g1,g2":
        "479193692deb768e01c0a285dbe7695ca4a65ca1839ae0dabab55356ff789a22",
    "--field 2,4,2,1 pindep 1,g3,g6":
        "ad20556e9c66de061f31a14d18c0853489211a97b0cc5895b47981ab72c00aa6",
    "--field 2,4,2,1 --json pindep 1,g3,g6":
        "ca2abfb68c8dbfdd527f6636ab6d5653587ad6a2e7ab555a8d9afae597e1cbaf",
    "--field 2,4,2,1 pindep '1, g3'":
        "9a049fbfbaca167e5ec86fa95bda9963d1478453ef1629534bdd76f8aa1fa3ca",
    "--field 2,4,2,1 --json pindep '1, g3'":
        "316649f523cac10e95e6de1d23ab87150422b9509bd209234357fca8049426c7",
    "--field 2,4,2,1 pbasis 1,g3,g6":
        "513e6b33995239af221c16abd9988b6dc29f095c2d71d9f1947b128517dce06b",
    "--field 2,4,2,1 --json pbasis 1,g3,g6":
        "a66a782268db6d79b8388b84fa604dbab0e93780ce70736395572b70bb01b722",
    "--field 2,4,2,1 pbasis ''":
        "32c3ecd53f0afdb0350c10bb15390856b6255443eba9bb331d91759b9deb6452",
    "--field 2,4,2,1 --json pbasis ''":
        "e1a929a9b7354066730e01b92b77c3c5496455ee450eed7ccbc8aa9fcc13f22f",
    "--field 2,4,2,1 rank 1,g3,g6":
        "0555aff39de35e5f0a96a4a83b3cf2220b6bb31777e520c477f73053c289c466",
    "--field 2,4,2,1 --json rank 1,g3,g6":
        "3bf9e12fa35d6e0a00b892e25e240fddb77189df412c26643e3ca31f4ccec70e",
    "--field 2,4,2,1 rank 0":
        "a14e9de31a539ed6cc8db4fa630c78732feb2dc380ce45b0dfc18d7d2fb710e1",
    "--field 2,4,2,1 --json rank 0":
        "aa85450383bd3fc54c52b8d5609eea7b8e29df2aca9927412a1122e0f8fd66cb",
    "--field 2,2,1,1 flats":
        "e2e86a7ec0c9d23f0d11377861a4e5529e299c55f8889431033efc4efa523f4b",
    "--field 2,2,1,1 --json flats":
        "bf2d9e67f13794c8e99cc487d8fb5a5336eb3449f1e514cf0eb0c746db09a040",
    "--field 2,4,2,1 flats --class 0":
        "4a1c034a4f0295b049c00aee0114112b8afcda95caa462a111ed7f90322d1adc",
    "--field 2,4,2,1 --json flats --class 0":
        "8d34bc255f3d86b75101770d44310a7e7f1d8d00de7de5db244659a32b4c0308",
    "--field 2,4,2,1 flats --class 0 --max-rank 1":
        "11a63b0adaae0cee2c9bee9499d988c51d7306872024f34b68411633319ac909",
    "--field 2,4,2,1 --json flats --class 0 --max-rank 1":
        "ae5f2f902b4eeca31f02320d969426ea3cd9a4de4c6d7bdcae8cd6541dbb7772",
    "--field 2,4,2,1 repmatrix":
        "f686ae29bb95be3d5f1fcf4127bc74fdd5b742145ba94de3f375ff3e7fa111e8",
    "--field 2,4,2,1 --json repmatrix":
        "15f6e64edeab05b60ba03075560b58c535f84734af2d855b78e8de507a1e92ba",
    "--field 2,2,1,1 repmatrix":
        "36c4e0ee7cd570dd8e3de1d6f64fa3ceb1067065efbee22a08c5c9f8b2a70415",
    "--field 2,2,1,1 --json repmatrix":
        "bcf54500e40ddbc3d622fd2da9d5b12a4c59c23ff1fd74f7e0b05bb6f536beca",
    "--field 2,4,2,1 dist 1 g3":
        "316cf30cd68a87ca59d59cff89cb39b4bdf2c97a099cc0f61aef11fa1e096065",
    "--field 2,4,2,1 --json dist 1 g3":
        "51075be1931b5843d6fdd6acbe23cfc5346e3d4768891aa14c43b7f569b4c0b7",
    "--field 2,4,2,1 dist 1,g3 g6,g9":
        "7347a1f3cc773b9a4e696b6a5df4b66c9be0dc176a3cd1fe90db8fc06c39b1e5",
    "--field 2,4,2,1 --json dist 1,g3 g6,g9":
        "47cbdd45106821a09b44be2787de3113b7fee08b383904a319b8e89643bc3d94",
    "--field 2,4,2,1 dist '' 1":
        "b6067200215cd4f2cca5e626479f8a62ec5e17512df965b5f3be79d3919efc87",
    "--field 2,4,2,1 --json dist '' 1":
        "ac03b0a0645a670b54706417138bd5ccf87146150c3682613cf98b62c661e280",
    "--field 2,4,2,1 isometry-check":
        "0f6d6ca27bfdf416b7f0f995e8c901b275ec4f24de5d99eb261f2bc50b0e6d01",
    "--field 2,4,2,1 --json isometry-check":
        "c6b880116cc5443861d6ae5ba23121f344a94f36b86b98435b32af6fbd0dc468",
    "--field 2,2,1,1 isometry-check":
        "1777520fe02b7f5b74d140a8b9c79b461f0e551730417a919675a84a19eea0d0",
    "--field 2,2,1,1 --json isometry-check":
        "a46cb60e89a25ebd5e06a46d69eeabcfe3840053981ddc58a45e47d1511f7ec1",
    # the verbs that need no field
    "selftest": "fb88a9db9c696a8f3a7ec4f78f4e5a45372fbb906cdfb6ee5e2f854079cc6e9d",
    "--json selftest": "2d6a31ed435e23667223121760372ebef1eadae15fd2488173acc6d2b2a97239",
    "simulate --spec net.json":
        "18a0edb3baff7a33e56285a19c5c3489bcab27429927c0c0a53000cc3b99068d",
    "--json simulate --spec net.json":
        "4ee8363de02746231c92dcc8ad09e803c84079d26510a4c8230c8b2eb6277087",
    "--seed override simulate --spec net.json --trials 25 --oracle rlnc":
        "e0a1cde08a197e3477722ee0fab0e5b72e67c9cb9f96855c5d10b9ff88869b72",
    "--json --seed override simulate --spec net.json --trials 25 --oracle rlnc":
        "23997d94d8f27ce468205a731fe7ad011577930aa695a4a81f20bfbaa66e98ac",
    # domain errors: exit 1, the class name on stderr
    "--field 2,4,2,1 eval x+1 g99x":
        "fffd32c307d1c269562b52ebd97e152253a205b347ee353a9a805067433c4277",
    "--field 2,4,2,1 unwarp 0":
        "d9b9a85b5da1eeac79ffced6ded8313e30cf5c4ba36edb3be0743bfe2197d609",
    "--field 3,2,1,1 unwarp 1 --method 2":
        "36f0fbc80760894b5e6e51e29e32fd88bd0c8fdc5bbf6e02e887d98f6421e3a5",
    "--field 2,4,2,1,31 fieldinfo":
        "de65b32a1f7c15b5ea8ba87b104a65b0525900f6b124c178b2bf12ac59f04527",
    "--field 2,2,1,1 mul x^1000000000 x":
        "25cd60c823c8f4509ab2121d01e7333badeb05a9d2651de8fb53a02d31fa223a",
    "--field 2,13,1,1 flats":
        "82fcdf903cd28d8acdf4cab8f72e1bd21225af103c3e5e6683682d0ab9fc4ba5",
    "--field 2,4,2,1 divmod x 0":
        "a93ae9312a7a4c2d4d63fd84e5ddbde3cbbb2bdb2a85aeb3e5b651587ce214e5",
    "--field 4,2,1,1 fieldinfo":
        "24116f0bdc9eec85a541396c516b87c2941e0bdc7d5860fefef0f55673aac6dc",
    "--field 2,4,3,1 fieldinfo":
        "c631634f0e2e4ec86c2dd198078190f922768874e6fa232f19ea56bbf53715f7",
    "simulate --spec nope.json":
        "0d7a03b21d67aba82a72c61bd5944f8091e2e635220cdddf3c4b6f2ecdd235f7",
    "simulate --spec bad.json":
        "cc2d643e79e9fe8c1750dd43926cc624ae5ac2fefed39691dd65561c9829db48",
}


def _digest(argv, capsys) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    record = [argv, code, captured.out, captured.err]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


@pytest.fixture()
def spec_dir(tmp_path, monkeypatch):
    (tmp_path / "net.json").write_text(json.dumps(NET))
    (tmp_path / "bad.json").write_text("{}")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("line", list(DIGESTS))
def test_cli_call_digest(line, capsys, spec_dir):
    assert _digest(shlex.split(line), capsys) == DIGESTS[line]


def test_verb_names_and_help():
    (sub,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert list(sub.choices) == list(VERBS)
    assert [(choice.dest, choice.help) for choice in sub._choices_actions] == list(VERBS.items())
