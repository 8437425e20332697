"""Byte-identity of the README examples, of the verify ladder jobs and of
the jobs whose output reads the module weights.

Each example runs in a fresh directory, with `--out` and `--report` added
where its verb writes them, and the sha256 of its stdout and of each file
it wrote is compared with a pin.  A change that alters any of these bytes
updates the pin and says why in CHANGES.md.
"""

import hashlib
import shlex

import pytest

from superkac.cli import WRITES, main

# (README command line, {stream: sha256}); "stdout", "out" and "report"
# are the printed text and the bytes of out.json and report.json.
GOLDEN = [
    ("build --algebra sl --m 2 --n 1 --labels 0", {
        "stdout":
            "8d23060e4908b03fac16395ca8d1ccfcac5ef793f3f53beca20bb5056844c213",
        "out":
            "5ad96f302b1f2d17a50e8d154e818a0b341b9ecdfd405271f79131b9aa62bb79",
    }),
    ("verify --algebra gl --m 2 --n 1 --labels 1", {
        "stdout":
            "f27d2304a4880495881c9d44655023fb9ebcb7e59de3ba97e956ac5014cf0099",
        "report":
            "cf30bf0fe6032048190db8c15bddec4e2c948b5099023e59678c32c98653a394",
    }),
    ("typicality --algebra sl --m 2 --n 1 --labels 1 --b 0", {
        "stdout":
            "86bfaf4fcc9629366884db0d278c7d467728393c1badd43761f015350d1e91fa",
        "report":
            "4bce9b9cc9277bb87b0aab765bf19b8b6b45812c7f14135161638bc54ecb175c",
    }),
    ("replicate --algebra sl --m 2 --n 1 --labels 0 --N 3 --lambdas 1,1", {
        "stdout":
            "9c02a8694843b9b0113ceb04eda9999bf9ecd5d567f3f31ddbbfe85302ed9553",
        "out":
            "4e1b73555982fe20e19639e04785ac457b7ade4d3419f8abd4e50f034ab7c58a",
        "report":
            "2b752499c639d8613d373bfeced1c24af7322525ac35c93f969f6a32c35b4a64",
    }),
    ("twist --algebra gl --m 2 --n 1 --labels 0 --nu 0,1 --n-twist 2", {
        "stdout":
            "eed11c28aa4b93bdcce70fcc79e9c889af9788dd878120d2aa66639fda7671f8",
        "out":
            "35daa302a8cf99bf1fe33fc8d8a9123e3172f6635a1c0bf16c6f22cc67dea867",
        "report":
            "2e23d02a8e29df43b0ad97917c6237e2c2c8e8d0ba87c01edc5973819c124f5b",
    }),
    ("twist --algebra gl --m 2 --n 1 --labels 0 --nu -1,2", {
        "stdout":
            "01a608cb4bb6502f79fb243e7522847b86d1acbba0f9c9e6845779b0aad2bf3e",
        "out":
            "25a071fbee4ebcb9448294fd1127b3f22a4460b990460db04e20a760c7135618",
        "report":
            "88f13c5eac51d78b767ac978ca2abd2f7940cfae931b89e80c83dc23b07a23b2",
    }),
    ("heisenberg --algebra gl --m 2 --n 1 --labels 1 --nu 2,-3", {
        "stdout":
            "4a78c07e8879b0d62859c69f2933e9bdfa638ff09bee4ac0ea55998f043e7c80",
        "out":
            "c9da74a0f497176f4e8fc4fadcb93efe40fc4821cd77a23f92a001b923c8e031",
        "report":
            "40486aab6c7471c857034fd9274322c60d0e85bbd97c1f6d64579b3d277a3a61",
    }),
]

# (command line, {stream: sha256}) of the three verify jobs of the
# benchmark's verify ladder, whose reports the relation checker and the
# table checks write.
LADDER = [
    ("verify --algebra sl --m 3 --n 1 --labels 1,1", {
        "stdout":
            "acd40d9e8784fa83a0682b6de8ed2c59188d8b1f2a6fdaf0ca40995cdac6dca9",
        "report":
            "8c344e6eedc4e391ffc03f6b958a28b608ac07ac4b00f8696cbbfb3d46c0ff10",
    }),
    ("verify --algebra sl --m 3 --n 2 --labels 0,0,0", {
        "stdout":
            "419084b4aeceb7ba38a88f9786e0f43d3e4d2f27153acb167637677b788ef9c9",
        "report":
            "6e2fd5189144b6214dc048028a390754d457dff46a72e9ebb0750255316a6cac",
    }),
    ("verify --algebra sl --m 4 --n 2 --labels 0,0,0,0", {
        "stdout":
            "2adcf41bbb37ee4ab5fb70461dc5ba6546b2e6a1dd8af7aeb2dce991da28ce3f",
        "report":
            "4b93f68e92ced77861484acb39b6613d2cb34215aa838f9c805ffb760fa8a4c6",
    }),
]

# (command line, {stream: sha256}) of jobs that read the weights of K or
# of a replication: the exported weights, with the gl central charge c and
# with odd shifts, the weight spaces of the singular-vector solve at an
# atypical b, and the hypercharge Jordan profile per weight space.
WEIGHTS = [
    ("export --algebra gl --m 2 --n 3 --labels 0,0,0", {
        "stdout":
            "5cd2786b4448c45238b69280342c4ef50939812b61f1ebc48a2106b5259bfbde",
        "out":
            "ad03a4aaec71b768d0b0b51c95d003e92592da8712e8718eda362c58a208d7c0",
    }),
    ("export --algebra sl --m 3 --n 1 --labels 2,1", {
        "stdout":
            "1066b8a6a5298caff5d0cb42011c5bd13791d6f61a27bba109d449f30a9655b4",
        "out":
            "748d9e75ba3e113f6fa383fab22efa84e9d02265a9c64106647cbfea13df44e6",
    }),
    ("typicality --algebra gl --m 2 --n 1 --labels 1 --b -2 --c 1/3", {
        "stdout":
            "ded91c8c822fd63dbaa5bc084cfe4d949a70374d0d3df18c2eaedd428cc99cff",
        "report":
            "6904f1c4d06422df2e1adc9bef38d0cd767a9a54d0f20ac9d11a49811d15e42f",
    }),
    ("typicality --algebra sl --m 3 --n 1 --labels 2,1 --b -5", {
        "stdout":
            "43bbdd38e8ceeebb2e9f143f6fe824217096b584399db4067150d4850ed4202e",
        "report":
            "55f87a3e8a62f011d7eee76ed953489c61dfd17d39f0490648cd701c3afa3456",
    }),
    ("replicate --algebra gl --m 2 --n 1 --labels 1 --N 3", {
        "stdout":
            "9c02a8694843b9b0113ceb04eda9999bf9ecd5d567f3f31ddbbfe85302ed9553",
        "out":
            "ace3c09e482aab91d566c85e05748d1e159c246e76f006e2e2ee0e7018e6a2a4",
        "report":
            "ddd8df97ee89353e68c6f89fe76233434a9e104d12ef6f4fdcf7a0202e41c073",
    }),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_example(command, directory, capsys, monkeypatch) -> dict:
    """Run one example in directory; return the sha256 of each stream."""
    monkeypatch.chdir(directory)
    argv = shlex.split(command)
    for name in WRITES[argv[0]]:
        argv += [f"--{name}", f"{name}.json"]
    capsys.readouterr()
    assert main(argv) == 0
    digests = {"stdout": _sha(capsys.readouterr().out.encode())}
    for name in WRITES[argv[0]]:
        digests[name] = _sha((directory / f"{name}.json").read_bytes())
    return digests


@pytest.mark.parametrize("command,pins", GOLDEN,
                         ids=[c.split(" --")[0] + str(i)
                              for i, (c, _) in enumerate(GOLDEN)])
def test_readme_example_bytes(command, pins, tmp_path, capsys,
                              monkeypatch):
    assert run_example(command, tmp_path, capsys, monkeypatch) == pins


@pytest.mark.parametrize("command,pins", LADDER,
                         ids=[c.split(" --algebra ")[1] for c, _ in LADDER])
def test_verify_ladder_bytes(command, pins, tmp_path, capsys, monkeypatch):
    assert run_example(command, tmp_path, capsys, monkeypatch) == pins


@pytest.mark.parametrize("command,pins", WEIGHTS,
                         ids=[c.split(" --labels")[0].replace(" --", " ")
                              for c, _ in WEIGHTS])
def test_weight_reading_bytes(command, pins, tmp_path, capsys, monkeypatch):
    assert run_example(command, tmp_path, capsys, monkeypatch) == pins
