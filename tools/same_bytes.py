#!/usr/bin/env python3
"""Check that hplus's outputs keep their bytes against another revision.

    python3 tools/same_bytes.py --against <rev> [--allow GLOB ...]

Run from anywhere inside a git checkout of hplus.  The tool extracts <rev>
with ``git archive`` into a temporary directory, writes the inputs once
(``perfbench/workloads.make_inputs`` of this checkout at seeds 1-3, plus
small files of its own: a series holding -0.0 and that series scaled by
1e-200 and 1e200, a symbol with c0 = 0 and a character whose values are
-0 +- 1j), and runs every line of
``COMMANDS`` as ``python -m hplus.cli`` in both trees, ``src`` of each on
PYTHONPATH.  For each line it compares the exit codes, the standard output
and every file the run wrote, byte for byte, and prints one line per
difference.  It exits 1 when some file differs that no ``--allow`` glob
names (matched against the file's path inside the run's output directory,
``stdout`` or ``exit``), else 0.  The working tree side is this checkout
as it stands, uncommitted edits included.  Both trees run the same
inputs, so a difference is the code's.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import shlex
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
JOBS = 2  # concurrent hplus processes; each takes at most about 100 MB

# One hplus command line per entry.  {in} is the inputs directory, holding
# <workload>-<seed>/ from make_inputs and the tool's own signed.json,
# tiny.json, huge.json, symbol-c0.json and character-minus-zero.json; {out}
# is the line's own output directory.
COMMANDS = (
    # every experiment at its defaults (ejemplo-growth, superpose-exp,
    # nonextension and noncomposition are also the workloads' calls)
    "experiment inequality-suite --out-dir {out}",
    "experiment bohr-parseval --out-dir {out}",
    "experiment nonextension --out-dir {out}",
    "experiment ejemplo-growth --out-dir {out}",
    "experiment noncomposition --out-dir {out}",
    "experiment superpose-exp --out-dir {out}",
    # the workloads' other CLI calls at seeds 1-3
    *(f"compose --in {{in}}/dense-series-{s}/series.json"
      f" --symbol {{in}}/dense-series-{s}/symbol.json --out {{out}}/composed.json" for s in SEEDS),
    *(f"experiment inequality-suite --out-dir {{out}} --seed {s}" for s in SEEDS),
    *(f"norms --in {{in}}/sparse-algebra-{s}/poly{i}.json --p 8 --truncation 810000"
      f" --out {{out}}/norms.csv" for s in SEEDS for i in range(3)),
    *(f"experiment bohr-parseval --out-dir {{out}} --seed {s}" for s in SEEDS),
    *(f"vertical-limit --in {{in}}/primes-bohr-{s}/series.json"
      f" --character {{in}}/primes-bohr-{s}/character.json --out {{out}}/twisted.json"
      for s in SEEDS),
    # the norms at p = 2, 4 and 8 of a dense 4096-term series
    *(f"norms --in {{in}}/dense-series-1/series.json --p {p} --out {{out}}/norms.csv"
      for p in (2, 4, 8)),
    # superposition on the input that holds -0.0
    *(f"superpose entire --function {name} --in {{in}}/signed.json --kmax 9 --m 2"
      f" --out {{out}}/superposed.json --diagnostics {{out}}/tails.csv"
      for name in ("exp-kk", "exp-kC", "inv-factorial")),
    "superpose poly --coeffs 0;1;-0.5;0.25;0;2 --in {in}/signed.json --out {out}/superposed.json",
    # sums of squares past the float range, rooted on rescaled moduli
    *(f"norms --in {{in}}/{name}.json --p 2 --out {{out}}/norms.csv" for name in ("tiny", "huge")),
    # a square that underflows in every product, and one that overflows
    *(f"norms --in {{in}}/{name}.json --p 4 --truncation 90000 --out {{out}}/norms.csv"
      for name in ("tiny", "huge")),
    "superpose entire --function inv-factorial --kmax 4 --m 2 --in {in}/tiny.json"
    " --out {out}/superposed.json --diagnostics {out}/tails.csv",
    "spectrum --in {in}/signed.json --lam 0.5,1 --out {out}/resolved.json",
    "compose --in {in}/signed.json --symbol {in}/symbol-c0.json --cutoff 300"
    " --out {out}/composed.json",
    # chi(p) = -0 +- 1j, where (1+0j) * chi(p) is not chi(p)
    "vertical-limit --in {in}/signed.json --character {in}/character-minus-zero.json"
    " --out {out}/twisted.json",
    # a repeated seminorm index
    "experiment superpose-exp --out-dir {out} --m-list 3,1,3",
    # 400 terms in 8 variables: the sort of the exponent rows and a long Parseval sum
    "experiment bohr-parseval --out-dir {out} --n-vars 8 --terms 400 --samples 2000 --trials 3",
    # omega > 0: the witness rows carry targets and margins
    "experiment ejemplo-growth --out-dir {out} --delta 0.05",
    # k from 1: rows with x_k < 2, where pi = theta = 0
    "experiment noncomposition --out-dir {out} --kmin 1 --kmax 30",
)


# Lines that end on purpose with this exit code, a domain error; for them the
# code is compared like the standard output, since they write no file.
EXITS = {"norms --in {in}/huge.json --p 4 --truncation 90000 --out {out}/norms.csv": 3}


def argv_of(line: str, inputs: str, out: str) -> list[str]:
    """The hplus arguments of one COMMANDS line."""
    return [tok.replace("{in}", inputs).replace("{out}", out) for tok in shlex.split(line)]


def extract_revision(rev: str, dest: str) -> None:
    """Write the files of git revision rev into dest."""
    archive = os.path.join(dest, "rev.tar")
    with open(archive, "wb") as f:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev], stdout=f, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(dest, "tree"), filter="data")
    os.remove(archive)


def write_inputs(inputs: str) -> None:
    """The workloads' inputs at SEEDS, and the tool's signed series, its
    scalings by 1e-200 and 1e200, c0 = 0 symbol and -0 +- 1j character."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            workloads.make_inputs(name, seed, os.path.join(inputs, f"{name}-{seed}"))
    # 300 coefficients k / 7 - 1 + i (150 - k) / 37 of both signs, -0.0 in
    # every fifth real part and every third imaginary part
    rows = [[-0.0 if k % 5 == 0 else k / 7 - 1, -0.0 if k % 3 == 0 else (150 - k) / 37]
            for k in range(300)]
    for name, scale in (("signed", 1.0), ("tiny", 1e-200), ("huge", 1e200)):
        series = {"truncation": len(rows), "coeffs": [[re * scale, im * scale] for re, im in rows]}
        with open(os.path.join(inputs, f"{name}.json"), "w") as f:
            json.dump(series, f)
    varphi = {"truncation": 8, "coeffs": [[0.5, 0.25]] + [[0.1 / n, -0.0] for n in range(2, 9)]}
    with open(os.path.join(inputs, "symbol-c0.json"), "w") as f:
        json.dump({"c0": 0, "varphi": varphi}, f)
    # chi(p_j) = -0 + i or -0 - i at the 62 primes up to 300, the sign by j mod 3
    chi = {"prime_values": [[-0.0, -1.0 if j % 3 == 0 else 1.0] for j in range(62)]}
    with open(os.path.join(inputs, "character-minus-zero.json"), "w") as f:
        json.dump(chi, f)


def run(tree: str, argv: list[str], out: str) -> tuple[int, bytes]:
    """Run hplus from tree's src on argv; (exit code, standard output)."""
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "hplus.cli", *argv], cwd=out, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.returncode, proc.stdout


def files_under(top: str) -> dict[str, bytes]:
    found = {}
    for here, _, names in os.walk(top):
        for name in names:
            path = os.path.join(here, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, top)] = f.read()
    return found


def compare(i: int, line: str, work: str, inputs: str,
            trees: dict[str, str]) -> tuple[list[str], int]:
    """(names of what differs between the two trees' runs of line i, files
    the first tree's run wrote).  A name is 'exit', 'stdout' or a file's path
    in the output directory; a run that exits other than 0 (or its code in
    ``EXITS``) counts as 'exit' too, since it has no outputs to compare."""
    results = {}
    for side, tree in trees.items():
        out = os.path.join(work, side, str(i))
        code, stdout = run(tree, argv_of(line, inputs, out), out)
        results[side] = ({"exit": code, "stdout": stdout}, files_under(out))
    (meta_a, files_a), (meta_b, files_b) = results.values()
    differ = [key for key in meta_a if meta_a[key] != meta_b[key]
              or key == "exit" and meta_a[key] != EXITS.get(line, 0)]
    differ += sorted(name for name in files_a.keys() | files_b.keys()
                     if files_a.get(name) != files_b.get(name))
    return differ, len(files_a)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--allow", action="append", default=[],
                        help="glob of an output allowed to differ (repeatable)")
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="hplus-same-bytes-")
    try:
        extract_revision(args.against, work)
        inputs = os.path.join(work, "inputs")
        write_inputs(inputs)
        trees = {"here": ROOT, args.against: os.path.join(work, "tree")}
        with ThreadPoolExecutor(JOBS) as pool:
            results = list(pool.map(lambda il: compare(*il, work, inputs, trees),
                                    enumerate(COMMANDS)))
        failed = False
        for line, (differ, _) in zip(COMMANDS, results):
            for name in differ:
                allowed = any(fnmatch.fnmatch(name, glob) for glob in args.allow)
                failed |= not allowed
                print(f"{'allowed' if allowed else 'differs'}: {name}  <-  hplus {line}")
        files = sum(count for _, count in results)
        print(f"{len(COMMANDS)} command lines, {files} files: "
              f"{'differences found' if failed else 'byte-identical'} against {args.against}")
        return 1 if failed else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
