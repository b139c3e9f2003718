"""Byte identity: full sweeps hash to the digests of their reference output."""

import hashlib

import pytest

from sonsixj import cli
from sonsixj.sixj import cache_clear

GOLDEN = [
    (["sweep", "--kind", "sixj", "--n", "4..7", "--max-label", "6"],
     "3db3c6f4bbc79bf97f022b57738863bb0d3916fd849ec38bafb8efa0dd9e2816"),
    (["sweep", "--kind", "calpha", "--method", "T3", "--n", "5", "--max-label", "4"],
     "ae8365e333ca61e6ddd99df728d21a569f1ef1962d699c6f00d093ffc83ac40f"),
    (["sweep", "--kind", "sp_u", "--n", "1..3"],
     "14ce60210fb2e790503db3c23a5c7f19448aeac0687cdec602a8fe8eb71041fa"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a[2:]) for a, _ in GOLDEN])
def test_sweep_stdout_digest(capsys, argv, digest):
    cache_clear()  # evaluate every orbit, not what earlier tests left cached
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
