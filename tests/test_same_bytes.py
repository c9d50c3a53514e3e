"""The command list of tools/same_bytes.py follows the CLI."""

import importlib.util
import os

import pytest

from hplus import cli

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "same_bytes.py")
_spec = importlib.util.spec_from_file_location("same_bytes", _PATH)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


@pytest.mark.parametrize("line", same_bytes.COMMANDS)
def test_every_command_line_parses(line):
    argv = same_bytes.argv_of(line, "/inputs", "/out")
    assert not any("{" in tok for tok in argv)  # every placeholder filled
    cli.parse_args(argv)  # a usage error exits 2 through SystemExit


def test_command_list_covers_the_listed_calls():
    lines = set(same_bytes.COMMANDS)
    for name in cli.EXPERIMENTS:
        assert f"experiment {name} --out-dir {{out}}" in lines
    norms = [line for line in lines if line.startswith("norms ") and "dense-series" in line]
    assert sorted(line.split("--p ")[1].split()[0] for line in norms) == ["2", "4", "8"]
    assert sum(line.startswith("superpose poly ") for line in lines) == 1
    for name in ("tiny", "huge"):  # the rescaled roots, and an underflowed power
        assert f"norms --in {{in}}/{name}.json --p 2 --out {{out}}/norms.csv" in lines
        assert (f"norms --in {{in}}/{name}.json --p 4 --truncation 90000"
                " --out {out}/norms.csv") in lines
    for p in (4, 6):  # powers formed from a series whose largest part is below 1/2
        assert (f"norms --in {{in}}/small.json --p {p} --truncation 90000"
                " --out {out}/norms.csv") in lines
    assert set(same_bytes.EXITS) <= lines
    assert ("superpose entire --function inv-factorial --kmax 4 --m 2 --in {in}/tiny.json"
            " --out {out}/superposed.json --diagnostics {out}/tails.csv") in lines
    for name in ("exp-kk", "exp-kC", "inv-factorial"):
        assert sum(line.startswith(f"superpose entire --function {name} --in {{in}}/signed.json ")
                   and "--diagnostics" in line for line in lines) == 1
    assert "experiment superpose-exp --out-dir {out} --m-list 3,1,3" in lines
    assert ("experiment bohr-parseval --out-dir {out} --n-vars 8 --terms 400"
            " --samples 2000 --trials 3") in lines
    assert "experiment ejemplo-growth --out-dir {out} --delta 0.05" in lines
    assert "experiment noncomposition --out-dir {out} --kmin 1 --kmax 30" in lines
    assert any(line.startswith("vertical-limit --in {in}/signed.json --character {in}/character-")
               for line in lines)
    for seed in same_bytes.SEEDS:
        assert f"experiment inequality-suite --out-dir {{out}} --seed {seed}" in lines
