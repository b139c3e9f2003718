"""Byte identity: full sweeps and the check paths hash to the digests of their reference output."""

import hashlib

import pytest

from sonsixj import cli
from sonsixj.kdf import VARIANTS, IndefinitePrefactorError, kdf_c_alpha
from sonsixj.labels import SixJLabels, admissible_sixes
from sonsixj.oracle import sixj_via_su2_pair, sixj_via_su2_triple
from sonsixj.sixj import cache_clear

GOLDEN = [
    (["sweep", "--kind", "sixj", "--n", "4..7", "--max-label", "6"],
     "3db3c6f4bbc79bf97f022b57738863bb0d3916fd849ec38bafb8efa0dd9e2816"),
    (["sweep", "--kind", "calpha", "--method", "T3", "--n", "5", "--max-label", "4"],
     "ae8365e333ca61e6ddd99df728d21a569f1ef1962d699c6f00d093ffc83ac40f"),
    (["sweep", "--kind", "sp_u", "--n", "1..3"],
     "14ce60210fb2e790503db3c23a5c7f19448aeac0687cdec602a8fe8eb71041fa"),
    # the check paths: the factorial forms and T3 through the CLI
    (["sweep", "--kind", "calpha", "--method", "T3", "--n", "6", "--max-label", "4"],
     "5f9f73177d783c16b19b2e5e0bd577d4be81abd4ae52aed7beae408b56517b79"),
    (["sweep", "--kind", "calpha", "--method", "AFactorial", "--n", "5", "--max-label", "4"],
     "08349d791b9f53bd963971268fdb5486d13e0c2150a94ecd6bf9bf6ae4e9b726"),
    (["sweep", "--kind", "calpha", "--method", "AFactorial", "--n", "6", "--max-label", "4"],
     "9fd42fb111484ea181776e055a56c8ec9c5b48f9f62ddc7eafa74ebf873522ae"),
    (["sweep", "--kind", "calpha", "--method", "BFactorial", "--n", "5", "--max-label", "4"],
     "e5e770febad12e2d6c8356f8567f6159ee48e7a175cccc5100889b620d18ebd3"),
    (["sweep", "--kind", "calpha", "--method", "BFactorial", "--n", "6", "--max-label", "4"],
     "fa14c2e01b95e3b8ea5f1887797758680788cfb6def6bd512438e85f93d3cd83"),
    (["sweep", "--kind", "calpha", "--method", "CFactorial", "--n", "5", "--max-label", "4"],
     "1e880f33bd5df47642ba35acbb03d50601718643de4085525ce7c2a28f3e9086"),
    (["sweep", "--kind", "calpha", "--method", "CFactorial", "--n", "6", "--max-label", "4"],
     "57613448300db0fe6177162fb1adb11a89f67a9a2974e6471f93a5b217163164"),
]


def _digest(lines) -> str:
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a[2:]) for a, _ in GOLDEN])
def test_sweep_stdout_digest(capsys, argv, digest):
    cache_clear()  # evaluate every orbit, not what earlier tests left cached
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _kdf_lines(n):
    """Every admissible set with labels <= 4 through the six KdF series."""
    for six in admissible_sixes(4):
        labels = SixJLabels(*six, n)
        for variant in VARIANTS:
            try:
                value = kdf_c_alpha(labels, variant)
            except IndefinitePrefactorError as exc:
                value = type(exc).__name__
            yield f"{list(six)} {n} {variant} {value}"


def _oracle_lines(n):
    """Every admissible set with labels <= 4 through both SU(2) oracles."""
    for six in admissible_sixes(4):
        labels = SixJLabels(*six, n)
        yield f"{list(six)} {n} {sixj_via_su2_triple(labels)} {sixj_via_su2_pair(labels)}"


KDF_GOLDEN = {
    4: "0766e0a73ef2132e573ee16dde773c691b339378d46a9622ae744f53c92c28d5",
    5: "bcd4a15a457214bb47d18dbeac6fddab0fc794707c78dbd470f6cc415e7139d6",
    6: "a6f8c5ed020ad5a5482a5619d5d9cbcf3622280dc143bf8113d2213d71bca512",
    7: "afe4fb8b82f5f799769134630e5d26969240fe168df10a4c6868d72acef90d3a",
    8: "da7175f07046ad4fe220ce72c8231474ae201cf422e26f5f03b242e21a94751a",
}
ORACLE_GOLDEN = {  # the oracles take even n only
    4: "57b3d8648e221eccadd33fee135b07c6108c1ea58897d5e2eca3eadff12208a4",
    6: "2db31444361e1643b2827ac58fef6e2611352008eb19109ab3b6f5853b09a2eb",
    8: "0427ba1eb5e0195fcaa746accdcd6687247bb8298f97a9a8c6b56cf6415aecaa",
}


@pytest.mark.parametrize("n", sorted(KDF_GOLDEN))
def test_kdf_digest(n):
    assert _digest(_kdf_lines(n)) == KDF_GOLDEN[n]


@pytest.mark.parametrize("n", sorted(ORACLE_GOLDEN))
def test_su2_oracle_digest(n):
    assert _digest(_oracle_lines(n)) == ORACLE_GOLDEN[n]
