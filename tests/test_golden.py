"""Golden outputs: fixed-seed CLI runs must reproduce these bytes exactly.

The digests pin every random stream (hier, boyd and geo ticks, point
sampling, the hierarchy) and the exact value arithmetic.  A change that
alters a stream on purpose updates the digests here and says so, and why
the new stream is equally valid, in CHANGES.md.
"""

import hashlib

import pytest

from geogossip.cli import main


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


SWEEP_ARGS = ["sweep", "--algorithms", "hier,boyd,geo", "--ns", "128,256",
              "--seeds", "0,1,2", "--seed", "0", "--eps", "0.1",
              "--threshold", "16", "--init", "gradient"]
SWEEP_CSV = "a3ed691f5622ec921070ecf03090e7889cf4b92b929b61979aee0d11495b662c"

SIMULATE = {
    "hier": (["--algorithm", "hier", "--n", "256", "--seed", "0",
              "--threshold", "16", "--eps", "0.1", "--max-ticks", "40000"],
             "69cb5af28b40a6d24772085102dba74599b83a96797aea9f666e86c09714ada8",
             "96ce4ea3c88411a0fa1025d8b7646c08452379373015a830c2c33c4e6e0d95fc"),
    "geo": (["--algorithm", "geo", "--n", "256", "--seed", "3", "--eps",
             "0.2"],
            "340644bc725a422579f5b4741d5fde130f8939acf92dcb7c6e837b35b14d51e0",
            "e6ae73b961e4dc82b5ef8e61827579b003c4d7c6367aca6cc26eeb17abac73ac"),
}

DUMP_ARGS = ["dump-hierarchy", "--n", "4096", "--seed", "9", "--threshold",
             "64"]
DUMP_OUT = "446db8ada43a25228f99a55ea56688df832598c72e79cc91df026257e58518a5"


def test_golden_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(SWEEP_ARGS + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out.read_bytes()) == SWEEP_CSV


@pytest.mark.parametrize("algorithm", sorted(SIMULATE))
def test_golden_simulate_csv_and_event_log(tmp_path, capsys, algorithm):
    args, csv_digest, log_digest = SIMULATE[algorithm]
    out, log = tmp_path / "run.csv", tmp_path / "events.log"
    assert main(["simulate"] + args + ["--output", str(out), "--event-log",
                                       str(log)]) == 0
    capsys.readouterr()
    assert sha256(out.read_bytes()) == csv_digest
    assert sha256(log.read_bytes()) == log_digest


def test_golden_dump_hierarchy(capsys):
    assert main(DUMP_ARGS) == 0
    assert sha256(capsys.readouterr().out.encode()) == DUMP_OUT
