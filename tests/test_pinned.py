"""Pinned CLI outputs: the sha256 of each simulated spike CSV and of each
mining results file, for a fixed set of in-process CLI runs.

Each recording is ``simulate --pattern P --seed S --duration 10``. On it
run serial (one window and five), parallel and synfire mining at two
thresholds and at ``--min-count 1``. The five-window serial run at
``--threshold 0.001`` is left out for its cost, and the wide five-window
serial run at ``--min-count 1 --max-size 3`` is made on one recording.
Manifests hold timings, so they are not pinned.

A change that means to change an output updates its pin here and names
it, with the reason. The CSVs come from numpy's generator, so a numpy
upgrade could move a CSV pin; that is a finding to report, not a pin to
refresh.
"""

import hashlib

import pytest

from spikemine import cli

FIVE = "0-2,2-4,4-6,6-8,8-10"
MIN_1 = ("--min-count", "1", "--max-size", "3")
T01, T001 = ("--threshold", "0.01"), ("--threshold", "0.001")


def mine_runs(recording):
    """(name, ``mine`` arguments after the input) of each run on ``recording``."""
    runs = []
    for floor in (T01, T001, MIN_1):
        runs.append(("serial 4-6 " + " ".join(floor), ("serial", "--intervals", "4-6", *floor)))
        runs.append(("parallel 7 " + " ".join(floor), ("parallel", "--expiry", "7", *floor)))
    runs.append(("serial five " + " ".join(T01), ("serial", "--intervals", FIVE, *T01)))
    for floor in (T01, T001):
        runs.append(("synfire five " + " ".join(floor),
                     ("synfire", "--intervals", FIVE, "--expiry", "1", *floor)))
    if recording == "example1-seed1":
        runs.append(("serial five " + " ".join(MIN_1), ("serial", "--intervals", FIVE, *MIN_1)))
    return runs


PINS = {
    ("example1-seed1", "csv"): "5783752a6bc90d7c6fd5fc9c125758e01f82ca85e2e72129c52fb677ee85093f",
    ("example1-seed1", "serial 4-6 --threshold 0.01"): "25885572248e1d5c3ce380a352fd26df4c84d83b8e0100da2ce9c219490dc42f",
    ("example1-seed1", "parallel 7 --threshold 0.01"): "ac2af969b76d1e1bb75c306bb9d2f65470955419bd8bbb5c954246808a172345",
    ("example1-seed1", "serial 4-6 --threshold 0.001"): "6c052cf19e5744dd3feecdfa21739d8f034873768bd86c63cd7ebb8973555594",
    ("example1-seed1", "parallel 7 --threshold 0.001"): "1ff3399b80dfa7be2f2728f9c6802332935e91ada3b4e418e1d3065f827dbbe7",
    ("example1-seed1", "serial 4-6 --min-count 1 --max-size 3"): "836df63c0a01c923f1a0551e2c79ad43f4634163ca7b7054b4c13ff8fe1a883d",
    ("example1-seed1", "parallel 7 --min-count 1 --max-size 3"): "fb96f91719f71ddd657ce9bd6f3637e95f8f68b081430469764a9dfd4b363e07",
    ("example1-seed1", "serial five --threshold 0.01"): "1c7489d9e4b0667138875951cc152e1ee964952fa64ae7f6fac778ed0321bb0b",
    ("example1-seed1", "synfire five --threshold 0.01"): "eff0ba4e3af54e4fc0709d16d443b8e45fbd8bf53305df6cec8cdd96aa49d78a",
    ("example1-seed1", "synfire five --threshold 0.001"): "c510b771cf6c200848cd90f9f667cbec3ce2189f7b9793105f6845f65aea110c",
    ("example1-seed1", "serial five --min-count 1 --max-size 3"): "6663aa23d87286456015323ca2a529742771170870c48f803cf7cae5eeccd7ad",
    ("example1-seed2", "csv"): "056c5c3795b804cf678c0043d6743d12cf95c89e62642cb2e1e237b217def6c7",
    ("example1-seed2", "serial 4-6 --threshold 0.01"): "1d4677466f9a083af0efd6686029509b28f3e3aec8b63e83a52556bc04db29e9",
    ("example1-seed2", "parallel 7 --threshold 0.01"): "9610c626913f9d5d67f7ad7f8fe813047e3094becaddb7e67f442d4675e6db41",
    ("example1-seed2", "serial 4-6 --threshold 0.001"): "dd037ac5f41e2f6fc19771bffc88029d403f64832187e0f2ff1e506afbb978c0",
    ("example1-seed2", "parallel 7 --threshold 0.001"): "40879e97b821353b9d9238c2b1d71442bff5aa7c53c651b627e8df4f76bc980e",
    ("example1-seed2", "serial 4-6 --min-count 1 --max-size 3"): "110499dcdf4ef66734cf4556a4b3a3076425d8f4f43d39015c544839e1031161",
    ("example1-seed2", "parallel 7 --min-count 1 --max-size 3"): "a054cd544dee49659176be520f22f979f720c5c78af5184a6b49e336533646ed",
    ("example1-seed2", "serial five --threshold 0.01"): "4faeaa648d708d58f56b2f720b1c59ce90271795adb7ef8017c1651bf5a67d0f",
    ("example1-seed2", "synfire five --threshold 0.01"): "4d4f86370989e5347bc47408f94974cd85c0e44b15f734377eea77bd6d4ee30e",
    ("example1-seed2", "synfire five --threshold 0.001"): "437d445c5a58481382cb6fdf1cdf922e5987ac61c9520a4f3ff925edc3a1e926",
    ("example3-seed1", "csv"): "2a0af794be6778516a7ab4a27e1f6f23494c7ff1d342f2c5b5a4a7a9522efa29",
    ("example3-seed1", "serial 4-6 --threshold 0.01"): "1c0cddcaf5cd501b8208a1adae01123d0719ab6b0e9b42906bce6f20e3d9fc09",
    ("example3-seed1", "parallel 7 --threshold 0.01"): "3b8a9516920e4ef956478e744bf6ef7eccc80964334c92f09effb739b5b3fb46",
    ("example3-seed1", "serial 4-6 --threshold 0.001"): "7d7859283dc27c51101a6b8b1c84d22f513a6da9251c6e97174f6b3bf6648820",
    ("example3-seed1", "parallel 7 --threshold 0.001"): "ecd83e16172289b5273c63a45c8e093d935b2b6f5c42d7fa99a782564b2905be",
    ("example3-seed1", "serial 4-6 --min-count 1 --max-size 3"): "4681a8060be6bfa7933eddc81087ceb19c6c160e9c29ac7f9e76baca45e4e7ae",
    ("example3-seed1", "parallel 7 --min-count 1 --max-size 3"): "6a3a6547b97148353ebcfb39a7e9fa4f2ea6b45e7a34339ba6318b4de84daa2e",
    ("example3-seed1", "serial five --threshold 0.01"): "6b401574987277ef5d72881c01ea7388391176aa9c28cb9680a46de2e6975032",
    ("example3-seed1", "synfire five --threshold 0.01"): "7f04133aba548cc6820078bc7538f9836f19ab00e622ad87b11be4844c57d281",
    ("example3-seed1", "synfire five --threshold 0.001"): "22bf2c75db1b63e6c16529d0a5ae7c249cf26d299692a43b71e95f31db8a731d",
    ("example3-seed2", "csv"): "b4e4da4de7df81f641bbd82e630bc0495fbb04e030b9836551164da441f28164",
    ("example3-seed2", "serial 4-6 --threshold 0.01"): "f103153a557284160b630c1ec5d38f6fa7d51dd8877234ffe8c7f77b491c1434",
    ("example3-seed2", "parallel 7 --threshold 0.01"): "6408f5bfb6534a6df3a351eb13414e86f66f19f530e1260ba4d65a935d0ab950",
    ("example3-seed2", "serial 4-6 --threshold 0.001"): "fa48264739554c7dd2a23c4f88200d8ab46ef741f641215e3e916453e1380642",
    ("example3-seed2", "parallel 7 --threshold 0.001"): "f1e8591686386fe69374135ffef6bc9018ffbc95c8ca089ba414ccbe79b7591e",
    ("example3-seed2", "serial 4-6 --min-count 1 --max-size 3"): "dfe7480c53f589dd1c88186c5b5daf8c6fb918efe3d2afd899ed935efab3775e",
    ("example3-seed2", "parallel 7 --min-count 1 --max-size 3"): "a898fcab3511833d026b9225c6d36622a52c01cbaeccb16e6f0d727539222dc9",
    ("example3-seed2", "serial five --threshold 0.01"): "bc9a4aea147ada88fac34c0c72e1c1ac380c631a987fa2570847fbf0ace28c01",
    ("example3-seed2", "synfire five --threshold 0.01"): "33dd221b64be230c726aa7fa9c7e8ede52df442c833a23b2c1075915bb665b99",
    ("example3-seed2", "synfire five --threshold 0.001"): "0280ca4c25e68385dfbaa4d279077c2974e44fea0c41fbf3b20c0848834a9df4",
}

RECORDINGS = sorted({recording for recording, _ in PINS})


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_run_has_one_pin():
    runs = {(r, "csv") for r in RECORDINGS} | {(r, name) for r in RECORDINGS for name, _ in mine_runs(r)}
    assert runs == set(PINS)


@pytest.mark.parametrize("recording", RECORDINGS)
def test_cli_outputs_equal_their_pins(recording, tmp_path, capsys):
    pattern, seed = recording.split("-seed")
    csv = tmp_path / f"{recording}.csv"
    argv = ["simulate", str(csv), "--pattern", pattern, "--seed", seed, "--duration", "10"]
    assert cli.main(argv) == cli.EXIT_OK
    got = {(recording, "csv"): sha256(csv)}
    for name, (kind, *options) in mine_runs(recording):
        out = tmp_path / "run.episodes"
        assert cli.main(["mine", kind, str(csv), "--out", str(out), *options]) == cli.EXIT_OK, name
        got[(recording, name)] = sha256(out)
    capsys.readouterr()
    moved = [key[1] for key, digest in got.items() if digest != PINS[key]]
    assert not moved, f"{recording}: outputs differ from their pins: {moved}"
