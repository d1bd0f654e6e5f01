"""Byte-identity gate: the exit code, stdout and stderr of a fixed set of
`mdl` commands, pinned by sha256.

The commands take the shapes of the benchmark's job lists: the cover
and geometry jobs on catalog inputs written in coordinates drawn from
seeds 3 and 4 (rows permuted, rows and columns scaled by nonzero
field elements, so the labelled matroid is the catalog's), `tau --a 1`
on the geometry inputs, on cover input `a` and on an input with loops
and parallel classes, `tauw --d 5` on cover inputs `a` and `j` (of
ranks 5 and 4, where `tau_weighted` reads no level above rank 2),
`tauw --d 1` on the same two (where the answer is 1, by E),
`round --extract` on the four `round` inputs, `stack verify` on the
certificate the pg43 `stack find` prints (both re-derive the same
minors, as `mdl verify` does), `conn` on cover inputs pg42 and `loops`,
`gen` of each of the six families (the files it writes are pinned in
`test_catalog.py`), and the twelve `mdl verify` suites at 30 trials
with seeds 0 and 1.  Each runs through `cli.main` in text and with
--json.

A change that leaves every output alone passes unedited.  A change
that alters an output on purpose updates DIGESTS in the same change;
`python tests/test_byte_identity.py` prints the table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys

import pytest

from mdl import catalog, gf, harness
from mdl.cli import main
from mdl.core import LinearMatroid

INPUT_SEEDS = (3, 4)
VERIFY_SEEDS = (0, 1)
VERIFY_TRIALS = 30

# name -> (family, params, generator seed); pg(n, q) is PG(n-1, q)
COVER_INPUTS = {
    "pg42": ("pg", (4, 2), 0),
    "pg43": ("pg", (4, 3), 0),
    "a": ("linear_random", (5, 16, 2), 1),
    "b": ("linear_random", (5, 17, 2), 0),
    "c": ("linear_random", (5, 17, 2), 1),
    "d": ("linear_random", (5, 17, 2), 5),
    "e": ("linear_random", (5, 18, 2), 0),
    "f": ("linear_random", (5, 18, 2), 1),
    "g": ("linear_random", (5, 18, 2), 2),
    "h": ("linear_random", (5, 18, 2), 4),
    "i": ("linear_random", (5, 18, 2), 5),
    "j": ("linear_random", (4, 16, 3), 7),
    "k": ("linear_random", (4, 18, 3), 2),
    "l": ("linear_random", (4, 20, 3), 2),
    "m": ("linear_random", (4, 18, 4), 5),
    "n": ("linear_random", (4, 20, 4), 0),
    "o": ("linear_random", (4, 20, 4), 5),
    "loops": ("linear_random", (3, 16, 3), 0),  # 16 columns on 13 points
}
# an input's zero columns (loops), at these positions of its columns
ZERO_COLUMNS = {"loops": (3, 11)}
# the certificate `stack find geometry<seed>/pg43.mtd --q 2 --h 2 --t 2`
# prints on both seeds, as `stack verify --parts` reads it
PG43_STACK = "0,1,2,3|" + ",".join(map(str, range(4, 40)))
# conn on two cover inputs: (input, --x, --y)
CONN_JOBS = (("pg42", "0,1", "2,3,4"), ("loops", "0,3,5", "3,11,12,15"))
# gen of every family, written to a path relative to the inputs' root
GEN_JOBS = (
    ("uniform", ("3", "7"), []),
    ("pg", ("4", "3"), []),
    ("fano", (), []),
    ("linear_random", ("4", "12", "5"), ["--seed", "3"]),
    ("pg_plus_noise", ("3", "2", "4", "3"), ["--seed", "1"]),
    ("u24_tower", ("3",), []),
)
GEOMETRY_INPUTS = {
    "pg42": ("pg", (4, 2), 0),
    "pg33": ("pg", (3, 3), 0),
    "pg34": ("pg", (3, 4), 0),
    "pg35": ("pg", (3, 5), 0),
    "pg43": ("pg", (4, 3), 0),
}


def job_argvs(seed: int) -> list[list[str]]:
    """The cover and geometry jobs on the inputs of one seed's directory."""
    c, g = f"cover{seed}/", f"geometry{seed}/"
    out = [["tau", c + "pg42.mtd", "--a", "2"]]
    out += [["tau", c + name + ".mtd", "--a", "2"] for name in "abcdefghijklmno"]
    out.append(["tauw", c + "pg42.mtd", "--d", "3"])
    for name, a, b in (("pg43", 1, 5), ("a", 1, 4), ("n", 1, 6)):
        out.append(["cover", "thm4", c + name + ".mtd", "--a", str(a), "--b", str(b)])
    for name, n, q in (("pg42", 4, 2), ("pg33", 3, 3), ("pg34", 3, 4)):
        out.append(["rep", g + name + ".mtd", "--q", str(q)])
        out.append(["pg", g + name + ".mtd", "--n", str(n), "--q", str(q)])
    for name, q, h, t in (("pg43", 2, 2, 2), ("pg35", 4, 1, 2), ("pg34", 3, 1, 2),
                          ("pg33", 2, 1, 2), ("pg33", 3, 1, 2), ("pg42", 2, 1, 3),
                          ("pg34", 4, 1, 3)):
        out.append(["stack", "find", g + name + ".mtd", "--q", str(q), "--h", str(h),
                    "--t", str(t)])
    out += [["round", g + name + ".mtd"] for name in ("pg42", "pg33", "pg34", "pg35")]
    out += [["tau", g + name + ".mtd", "--a", "1"] for name in GEOMETRY_INPUTS]
    out += [["tau", c + name + ".mtd", "--a", "1"] for name in ("a", "loops")]
    out += [["tauw", c + name + ".mtd", "--d", str(d)] for d in (5, 1) for name in ("a", "j")]
    out += [["round", g + name + ".mtd", "--extract"] for name in ("pg42", "pg33", "pg34", "pg35")]
    out.append(["stack", "verify", g + "pg43.mtd", "--q", "2", "--t", "2", "--parts", PG43_STACK])
    out += [["conn", c + name + ".mtd", "--x", x, "--y", y] for name, x, y in CONN_JOBS]
    return out


def argvs() -> list[list[str]]:
    plain = [argv for seed in INPUT_SEEDS for argv in job_argvs(seed)]
    plain += [["gen", family, *params, "-o", family + ".mtd", *tail]
              for family, params, tail in GEN_JOBS]
    plain += [["verify", lemma, "--trials", str(VERIFY_TRIALS), "--seed", str(seed)]
              for seed in VERIFY_SEEDS for lemma in sorted(harness.SUITES)]
    return [argv + tail for argv in plain for tail in ([], ["--json"])]


def write_input(path: str, family: str, params, gen_seed: int, rng: random.Random,
                zeros=()) -> None:
    """A catalog matroid written in coordinates drawn from rng, with zero
    columns inserted at the positions in zeros."""
    m = catalog.gen(family, params, seed=gen_seed)
    f, rows = m.field, m.matrix.rows
    mul = f.mul_table
    perm = rng.sample(range(rows), rows)
    row_scale = [rng.randrange(1, f.q) for _ in range(rows)]
    cols = []
    for col in m.matrix.columns():
        s = mul[rng.randrange(1, f.q)]
        cols.append(tuple(s[mul[r][col[p]]] for p, r in zip(perm, row_scale)))
    for i in zeros:
        cols.insert(i, (0,) * rows)
    lin = LinearMatroid(gf.Matrix.from_columns(f, cols, rows))
    catalog.write_matroid(lin, path, name=family, header=f"{family} {list(params)} #{gen_seed}")


def write_inputs(root: str) -> None:
    for seed in INPUT_SEEDS:
        for kind, table in (("cover", COVER_INPUTS), ("geometry", GEOMETRY_INPUTS)):
            os.makedirs(os.path.join(root, f"{kind}{seed}"), exist_ok=True)
            rng = random.Random(f"{kind}:{seed}")
            for name, (family, params, gen_seed) in table.items():
                write_input(os.path.join(root, f"{kind}{seed}", name + ".mtd"),
                            family, params, gen_seed, rng, ZERO_COLUMNS.get(name, ()))


def digest(argv: list[str]) -> str:
    """sha256 of the JSON list [exit code, stdout, stderr] of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


DIGESTS: dict[str, str] = {
    "tau cover3/pg42.mtd --a 2":
        "33463a97e3dc19b269c989a0134859d3a3c2192e21491018b2c0a0e5c9658c74",
    "tau cover3/pg42.mtd --a 2 --json":
        "b75c002175a4c89fe2107f872082a0c0a61f658f73bb6422d11efadc371d3352",
    "tau cover3/a.mtd --a 2":
        "7d20d10ae859d0013e7922eb98cd7bf1ed75c7436228118b6121ca12276e59e8",
    "tau cover3/a.mtd --a 2 --json":
        "d1adbf44c0f211aee5b32fee9be73acb63a1053f5a7ee154375512c39134ff28",
    "tau cover3/b.mtd --a 2":
        "31c69beafad6139fa53e55556ce374a35205ffecb7d2153d1ca1351680928837",
    "tau cover3/b.mtd --a 2 --json":
        "c0fbf5a2d107d3576a9e6dc5e8bac4d5a07925d945bbe0cf7157381b0fa32b0a",
    "tau cover3/c.mtd --a 2":
        "e246c848ab67e96c6dd4d236b0226527412a6102c9b575b678f4f6b23f29b57c",
    "tau cover3/c.mtd --a 2 --json":
        "bee95cdd7c2f2629da70450a94b9067db8e2e0558846e8730c10f2db2896bad4",
    "tau cover3/d.mtd --a 2":
        "11e2961e73134c8770289c2045d90dc6abfcd2ded715e8fdf26b66b8b386d476",
    "tau cover3/d.mtd --a 2 --json":
        "7f632bfbe7055addbb52e5067ad221911db92a8d8b424bef7ceb8b14c896562c",
    "tau cover3/e.mtd --a 2":
        "a2c84c991a09b69a356fd8242d664e1c67e52d581271a36dc88dfbe7c25e8a69",
    "tau cover3/e.mtd --a 2 --json":
        "5b7719cc836a1c3a8de48f9af33c664ff6def05291738974be6e0b79e6ea2e5f",
    "tau cover3/f.mtd --a 2":
        "795cc8eee9d0c00bd93b10aab891885680852c681ae443a63e90a9ff9117160d",
    "tau cover3/f.mtd --a 2 --json":
        "0c5a82daa292b962ca0461be1ff187445b2212331f8b4b5d836d1cfdcab89fbb",
    "tau cover3/g.mtd --a 2":
        "841cc4ddb772a53227ed546ab1e70c58f45b71256a989f8da84a342dbff4ff72",
    "tau cover3/g.mtd --a 2 --json":
        "22de0df88eaf38882d9c43dfa5fbb1eea38b27325a2eee76a7acff3055574f8d",
    "tau cover3/h.mtd --a 2":
        "920819e0140957022c5c9db2efa802c74175657153df7e2268f193b94e11d97d",
    "tau cover3/h.mtd --a 2 --json":
        "5043383f993f0a9948ce1a22e1420695b07d7ffd7f5d62a9f1c7bc7daf2865a6",
    "tau cover3/i.mtd --a 2":
        "fa014ac1dd831cd298aa45a749bc1a0355f70ea7f9b58895c35c7da6942c18ca",
    "tau cover3/i.mtd --a 2 --json":
        "43c03914bd42f6c283b2628e24ee3993143ffd873ff64a0732a33173a5ee223a",
    "tau cover3/j.mtd --a 2":
        "ed75f4645c2b7dbe21e32f84da2198cb6215bb6c8e84c97f2da504eb985e8706",
    "tau cover3/j.mtd --a 2 --json":
        "2c99584a08de4e1f980b74bb00b63260da07efb112f52ec50ae952b020c80d2f",
    "tau cover3/k.mtd --a 2":
        "bc4e10f8faed166ae70bb91f02b81745813e2d9594295bb9869552b6f97103b0",
    "tau cover3/k.mtd --a 2 --json":
        "9737789ddfd8f2f5a2f9a1e46be68f0ce4e0209beab12cd17a683a5d93d44e54",
    "tau cover3/l.mtd --a 2":
        "0ff9cd85c96a77caaca161debb3ddebc303b90710bc3f64e7dfa8d3a07e0e314",
    "tau cover3/l.mtd --a 2 --json":
        "022f25a6440e85d723197197971362b42cd89cdf317790fac533ddcd4b8866f4",
    "tau cover3/m.mtd --a 2":
        "916b1e915356fd5d82d056f9eb6b68c00891ecc8b083413cac45453c1400d600",
    "tau cover3/m.mtd --a 2 --json":
        "335885f811225af29fec1be27d8a617b60c1184711341dec8845e3d5fdaa1dfd",
    "tau cover3/n.mtd --a 2":
        "40c3afa7c450683bc4a432b4bf8f88ab7367132c9c6be8e5f24413d9070b0902",
    "tau cover3/n.mtd --a 2 --json":
        "d16abeda9e809f614125b458a80aac0e4e07ecaf7fc7eac2a9590bf53ef4e428",
    "tau cover3/o.mtd --a 2":
        "4a0a3cd6fefb829d7a75a075ad54dcabc6138dec8a009c273895b7cde4101115",
    "tau cover3/o.mtd --a 2 --json":
        "dbdb311b505fb14c776b02070d02e8c2693a646546964acd85c5d83a4b13952f",
    "tauw cover3/pg42.mtd --d 3":
        "037a90ca8a2735bfc57cf32bbf2ebc7e2c765a9472df26fe7c9fafb06619896c",
    "tauw cover3/pg42.mtd --d 3 --json":
        "10664d09eaf3df2c628ce03f6e2c60e751e50b8c30562bd8a8af81951e049063",
    "cover thm4 cover3/pg43.mtd --a 1 --b 5":
        "6572375e50aacfedd95d4b34ad467a4dedbdc72479403505d4919331f70122c5",
    "cover thm4 cover3/pg43.mtd --a 1 --b 5 --json":
        "5d67f2f127dcd9e1dd109b3fd1d996ddc8b0951ea214073626c6d045d0bdce19",
    "cover thm4 cover3/a.mtd --a 1 --b 4":
        "4187dc46a69c739299da1d3b21829e724ae1a2525046bb8be088f0c692dadf6a",
    "cover thm4 cover3/a.mtd --a 1 --b 4 --json":
        "b2a7d1b5aad33252c80a9c19c1bf3e2e8ac049688a2d27e3fb398b911fdb3c7e",
    "cover thm4 cover3/n.mtd --a 1 --b 6":
        "05209790f5fea1bc0bb70deda76c92b19a8c51beec0e93ee85815b7aa663e0b7",
    "cover thm4 cover3/n.mtd --a 1 --b 6 --json":
        "feba2c32cca9f4fa0c7a12879ef6da40ed3660c6df7776e984c2ac6dd3ac831a",
    "rep geometry3/pg42.mtd --q 2":
        "c8843015d4650b619f971f41b312b589cd1171f57e05e494dc4698ab1351a9e5",
    "rep geometry3/pg42.mtd --q 2 --json":
        "61955ec2785322f7ea0007091d498bc97ae5e88bdeb6bc98ef3ae685c3fc46aa",
    "pg geometry3/pg42.mtd --n 4 --q 2":
        "028721be6c29e06005196267718cc68dac87d6bb4bd5e6f978ad529868993810",
    "pg geometry3/pg42.mtd --n 4 --q 2 --json":
        "8a537de0a9f9abca3552cb00b1bc9711817289c46c633c02baba6f13a3390aa4",
    "rep geometry3/pg33.mtd --q 3":
        "979e58f4d466f87134348bf8fcff49027a14056faf99d5eb5e14c4b9fff61ae1",
    "rep geometry3/pg33.mtd --q 3 --json":
        "343227cc455b617c922c0332222f3cc4f6d8d8b773606f0175d30c7dd87b4a2d",
    "pg geometry3/pg33.mtd --n 3 --q 3":
        "b8588d140e15a9903c55754f7dc56d7698bef855c2c4097b8484ca0a3efe59ce",
    "pg geometry3/pg33.mtd --n 3 --q 3 --json":
        "d00b6964a0a1e80d85c7d2633d95cd904d9b7e3a2c76211952d1c00b19a19eb4",
    "rep geometry3/pg34.mtd --q 4":
        "230b9d5aff844d803fa92d852471d595ead9daa04af5a933e8f01e249bcc8646",
    "rep geometry3/pg34.mtd --q 4 --json":
        "ddcf4cdb422be7b7acb9c07267092cdcb16bcec7ae2df702d748ae81e9e92b11",
    "pg geometry3/pg34.mtd --n 3 --q 4":
        "bd9ad47b776111d84c23913c2a2c8b276505e5df39320c8c52f14fa3d8b11e49",
    "pg geometry3/pg34.mtd --n 3 --q 4 --json":
        "b5245518b51967ddf05dfe93dc19077b61821dc637514367109d9d94e7de3cb2",
    "stack find geometry3/pg43.mtd --q 2 --h 2 --t 2":
        "add1e2ae746370b9fbde2b8ba7b3620d58037110d89bc6eb6a4572311904d671",
    "stack find geometry3/pg43.mtd --q 2 --h 2 --t 2 --json":
        "2491d7dcb392fdf70f31b58b51d28543259a5570c4a4acb2e3f35d2bb367a74f",
    "stack find geometry3/pg35.mtd --q 4 --h 1 --t 2":
        "7c8151cf0392686883beb0a09f8a4e9550e6cf5a1c9a647f0eaa7dd167fc182c",
    "stack find geometry3/pg35.mtd --q 4 --h 1 --t 2 --json":
        "3c13c6f06f069d881d51072e89e1754fead17cf822d179c52287ab2d039d64c0",
    "stack find geometry3/pg34.mtd --q 3 --h 1 --t 2":
        "5a77b9ede2e1e4a691637845adccc4c87e497d238943ef6f944e71405f0572db",
    "stack find geometry3/pg34.mtd --q 3 --h 1 --t 2 --json":
        "b5bbfda855a1bf9a2222489ae53084b96ab331d018c70a3d74e6d8464f4fdcb5",
    "stack find geometry3/pg33.mtd --q 2 --h 1 --t 2":
        "767f1f22b59821df7af5ed766a104dd1c35189218fe2ea1837a28411b3dd7664",
    "stack find geometry3/pg33.mtd --q 2 --h 1 --t 2 --json":
        "73624d53b04cf993a3e88c95319caab1e34e979ffa550d68dc1fff2349bd6025",
    "stack find geometry3/pg33.mtd --q 3 --h 1 --t 2":
        "c3ec37f759cb795853b0b7e43a3a71b75ce29629dd2dfac9cf8685f326ff5838",
    "stack find geometry3/pg33.mtd --q 3 --h 1 --t 2 --json":
        "342dc2ac7c6861fc098e0b88dd458970e632a331c3cfe40801b5433b5d1b0e92",
    "stack find geometry3/pg42.mtd --q 2 --h 1 --t 3":
        "c3ec37f759cb795853b0b7e43a3a71b75ce29629dd2dfac9cf8685f326ff5838",
    "stack find geometry3/pg42.mtd --q 2 --h 1 --t 3 --json":
        "342dc2ac7c6861fc098e0b88dd458970e632a331c3cfe40801b5433b5d1b0e92",
    "stack find geometry3/pg34.mtd --q 4 --h 1 --t 3":
        "c3ec37f759cb795853b0b7e43a3a71b75ce29629dd2dfac9cf8685f326ff5838",
    "stack find geometry3/pg34.mtd --q 4 --h 1 --t 3 --json":
        "342dc2ac7c6861fc098e0b88dd458970e632a331c3cfe40801b5433b5d1b0e92",
    "round geometry3/pg42.mtd":
        "3015635b8fb2e948d090c90fdfa6a82bdb997bf17d7b3f136aebe8839ea167d2",
    "round geometry3/pg42.mtd --json":
        "cab43d7d32f2f29a4578ec32f5b7ff15abe0becfde54499321c11bd81636e829",
    "round geometry3/pg33.mtd":
        "3015635b8fb2e948d090c90fdfa6a82bdb997bf17d7b3f136aebe8839ea167d2",
    "round geometry3/pg33.mtd --json":
        "cab43d7d32f2f29a4578ec32f5b7ff15abe0becfde54499321c11bd81636e829",
    "round geometry3/pg34.mtd":
        "3015635b8fb2e948d090c90fdfa6a82bdb997bf17d7b3f136aebe8839ea167d2",
    "round geometry3/pg34.mtd --json":
        "cab43d7d32f2f29a4578ec32f5b7ff15abe0becfde54499321c11bd81636e829",
    "round geometry3/pg35.mtd":
        "3015635b8fb2e948d090c90fdfa6a82bdb997bf17d7b3f136aebe8839ea167d2",
    "round geometry3/pg35.mtd --json":
        "cab43d7d32f2f29a4578ec32f5b7ff15abe0becfde54499321c11bd81636e829",
    "tau geometry3/pg42.mtd --a 1":
        "3d7a4b0a8c80cff4ac32d5d2725cdfecf6c6a9df4c2fde0f33326a03ff811937",
    "tau geometry3/pg42.mtd --a 1 --json":
        "cabfac40a5d4104e3523f6a36cb4df9713c0886dcbceb9cc7f974da7e486a0e7",
    "tau geometry3/pg33.mtd --a 1":
        "52d46e22216437cbe49a4a6215b35472f4b5bb7a9d1c11d884308b84a713b5b5",
    "tau geometry3/pg33.mtd --a 1 --json":
        "6564e7bd3262da5832882eaea70ba81bc6957d787bd64eee14167a7402cce8e8",
    "tau geometry3/pg34.mtd --a 1":
        "59c947cbf3835333d71ebb3055c1fc6a3eaa4faf1f3fb182defe79f0bbb1b3c3",
    "tau geometry3/pg34.mtd --a 1 --json":
        "ce492fc3579739cfe939ca01fc2ea808dbeb5328b8e8eb4b346d378072cabdc9",
    "tau geometry3/pg35.mtd --a 1":
        "a94ada2f1094eae6216ac3298a8e3b5782f93679727d5eec8a57d5697737304d",
    "tau geometry3/pg35.mtd --a 1 --json":
        "a8b2ee84701d80092c3c39af8bbc9b47302da1c3e30936049da7376f3a99e6c6",
    "tau geometry3/pg43.mtd --a 1":
        "392de021494ee2dc8ae63f7cfb9e80261d2fd5e8ab5cb76378e3ff18a172d6df",
    "tau geometry3/pg43.mtd --a 1 --json":
        "07cd32f0cd39edecf9f15e346f8ab5e713d2b97c8867b81e79ae81e73469946d",
    "tau cover3/a.mtd --a 1":
        "296b08f2367d5b169e17e1365db46ac8806a6765b57179f8473d5663321ceb83",
    "tau cover3/a.mtd --a 1 --json":
        "bf9ba05491421c33ded20549c76d9f0b301988b8432d86c1b3035e899b7b99d6",
    "tau cover3/loops.mtd --a 1":
        "c170ef3032872e19222c3243670ad483893168fa38b89b7d665e30c3a0feba78",
    "tau cover3/loops.mtd --a 1 --json":
        "79554cbf5b4f20214ebc3f267a8511c659d636d291b8e094a5abf358eb604dfd",
    "tauw cover3/a.mtd --d 5":
        "1645fc95e988aeb4560f8fb6ca3d559003148584b1c06a9d67cd8d616571ad93",
    "tauw cover3/a.mtd --d 5 --json":
        "9150d9ff0a92c04ee0daf7e85dd2292cabfbaaf7caaf5e04465d03f57a7d8af9",
    "tauw cover3/j.mtd --d 5":
        "dcfbc02a11297858f46b7c4cf02fb8366ac195cf1f9c2c41020c685029b47a3b",
    "tauw cover3/j.mtd --d 5 --json":
        "8a246a04d3c45a556285ae020d47ccb346d90e8cbec70f3b53eeaa1180a33a12",
    "tauw cover3/a.mtd --d 1":
        "fd49852b28879e2d52bcf0353734faa84ca966dba7536092a4c2317f272544ad",
    "tauw cover3/a.mtd --d 1 --json":
        "32918c37a6f358f8c9880aa96788341e07c5d7c96903d1b37f83723941ef7b8a",
    "tauw cover3/j.mtd --d 1":
        "795706b312518c7c90d7b34f038ca0b942c57c6499258f1d56d171ea8922f894",
    "tauw cover3/j.mtd --d 1 --json":
        "32918c37a6f358f8c9880aa96788341e07c5d7c96903d1b37f83723941ef7b8a",
    "round geometry3/pg42.mtd --extract":
        "3baef0078a8259d7a36cfc341b81c41867edf9fdff821bd00216ecf211ddbd5d",
    "round geometry3/pg42.mtd --extract --json":
        "3baef0078a8259d7a36cfc341b81c41867edf9fdff821bd00216ecf211ddbd5d",
    "round geometry3/pg33.mtd --extract":
        "4bb9abb5003e0d8e58147e2d3f28a0e6f8da53ee74c31fcf77d99f95904e97ad",
    "round geometry3/pg33.mtd --extract --json":
        "fa429eb8ca8e32e76369543b01f8d3a482d47bf40b4a3b3fc14cc4e011faaa0f",
    "round geometry3/pg34.mtd --extract":
        "5ae96c8210d27ab3d644c16f666d59636a8e24092ac706521420bed34fbdb418",
    "round geometry3/pg34.mtd --extract --json":
        "748202c7a33d81d2b6482f3a521405004162137fc1a6cd86dd95ffb7a2d2df95",
    "round geometry3/pg35.mtd --extract":
        "df9f40abd5b0ddfaa4fb05427da9426f841a494ce08f7f27496fa6636fc0627a",
    "round geometry3/pg35.mtd --extract --json":
        "23acc06027c060589b86270200af1b60b2fb7f74311cd726b5a4503cf945e39a",
    "stack verify geometry3/pg43.mtd --q 2 --t 2 --parts 0,1,2,3|4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39":
        "dc25a19958297a7975f913c4a3429407dfc6a9ac42f182203ad12c979df2ed95",
    "stack verify geometry3/pg43.mtd --q 2 --t 2 --parts 0,1,2,3|4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39 --json":
        "10d191ab30b4a42ba85dbdfe433681465689f1ad0ab7a9858676cb177403d96d",
    "conn cover3/pg42.mtd --x 0,1 --y 2,3,4":
        "edb306987e169d2e810878154fb5da9ce52c91a7b83e70fac6acfbce2999ced5",
    "conn cover3/pg42.mtd --x 0,1 --y 2,3,4 --json":
        "cea75323f51ab04df2fcc1ed255ad206005ea4ea1b02890bef01559a3d66e212",
    "conn cover3/loops.mtd --x 0,3,5 --y 3,11,12,15":
        "be3003d22db948f6e5f5a7ec69061813c4cdc92b3a75727897b2b51f39f40db3",
    "conn cover3/loops.mtd --x 0,3,5 --y 3,11,12,15 --json":
        "0ac23dcb994e95d484022f9881decd897bf157ccb11661df0819fc976df8404b",
    "tau cover4/pg42.mtd --a 2":
        "33463a97e3dc19b269c989a0134859d3a3c2192e21491018b2c0a0e5c9658c74",
    "tau cover4/pg42.mtd --a 2 --json":
        "b75c002175a4c89fe2107f872082a0c0a61f658f73bb6422d11efadc371d3352",
    "tau cover4/a.mtd --a 2":
        "7d20d10ae859d0013e7922eb98cd7bf1ed75c7436228118b6121ca12276e59e8",
    "tau cover4/a.mtd --a 2 --json":
        "d1adbf44c0f211aee5b32fee9be73acb63a1053f5a7ee154375512c39134ff28",
    "tau cover4/b.mtd --a 2":
        "31c69beafad6139fa53e55556ce374a35205ffecb7d2153d1ca1351680928837",
    "tau cover4/b.mtd --a 2 --json":
        "c0fbf5a2d107d3576a9e6dc5e8bac4d5a07925d945bbe0cf7157381b0fa32b0a",
    "tau cover4/c.mtd --a 2":
        "e246c848ab67e96c6dd4d236b0226527412a6102c9b575b678f4f6b23f29b57c",
    "tau cover4/c.mtd --a 2 --json":
        "bee95cdd7c2f2629da70450a94b9067db8e2e0558846e8730c10f2db2896bad4",
    "tau cover4/d.mtd --a 2":
        "11e2961e73134c8770289c2045d90dc6abfcd2ded715e8fdf26b66b8b386d476",
    "tau cover4/d.mtd --a 2 --json":
        "7f632bfbe7055addbb52e5067ad221911db92a8d8b424bef7ceb8b14c896562c",
    "tau cover4/e.mtd --a 2":
        "a2c84c991a09b69a356fd8242d664e1c67e52d581271a36dc88dfbe7c25e8a69",
    "tau cover4/e.mtd --a 2 --json":
        "5b7719cc836a1c3a8de48f9af33c664ff6def05291738974be6e0b79e6ea2e5f",
    "tau cover4/f.mtd --a 2":
        "795cc8eee9d0c00bd93b10aab891885680852c681ae443a63e90a9ff9117160d",
    "tau cover4/f.mtd --a 2 --json":
        "0c5a82daa292b962ca0461be1ff187445b2212331f8b4b5d836d1cfdcab89fbb",
    "tau cover4/g.mtd --a 2":
        "841cc4ddb772a53227ed546ab1e70c58f45b71256a989f8da84a342dbff4ff72",
    "tau cover4/g.mtd --a 2 --json":
        "22de0df88eaf38882d9c43dfa5fbb1eea38b27325a2eee76a7acff3055574f8d",
    "tau cover4/h.mtd --a 2":
        "920819e0140957022c5c9db2efa802c74175657153df7e2268f193b94e11d97d",
    "tau cover4/h.mtd --a 2 --json":
        "5043383f993f0a9948ce1a22e1420695b07d7ffd7f5d62a9f1c7bc7daf2865a6",
    "tau cover4/i.mtd --a 2":
        "fa014ac1dd831cd298aa45a749bc1a0355f70ea7f9b58895c35c7da6942c18ca",
    "tau cover4/i.mtd --a 2 --json":
        "43c03914bd42f6c283b2628e24ee3993143ffd873ff64a0732a33173a5ee223a",
    "tau cover4/j.mtd --a 2":
        "ed75f4645c2b7dbe21e32f84da2198cb6215bb6c8e84c97f2da504eb985e8706",
    "tau cover4/j.mtd --a 2 --json":
        "2c99584a08de4e1f980b74bb00b63260da07efb112f52ec50ae952b020c80d2f",
    "tau cover4/k.mtd --a 2":
        "bc4e10f8faed166ae70bb91f02b81745813e2d9594295bb9869552b6f97103b0",
    "tau cover4/k.mtd --a 2 --json":
        "9737789ddfd8f2f5a2f9a1e46be68f0ce4e0209beab12cd17a683a5d93d44e54",
    "tau cover4/l.mtd --a 2":
        "0ff9cd85c96a77caaca161debb3ddebc303b90710bc3f64e7dfa8d3a07e0e314",
    "tau cover4/l.mtd --a 2 --json":
        "022f25a6440e85d723197197971362b42cd89cdf317790fac533ddcd4b8866f4",
    "tau cover4/m.mtd --a 2":
        "916b1e915356fd5d82d056f9eb6b68c00891ecc8b083413cac45453c1400d600",
    "tau cover4/m.mtd --a 2 --json":
        "335885f811225af29fec1be27d8a617b60c1184711341dec8845e3d5fdaa1dfd",
    "tau cover4/n.mtd --a 2":
        "40c3afa7c450683bc4a432b4bf8f88ab7367132c9c6be8e5f24413d9070b0902",
    "tau cover4/n.mtd --a 2 --json":
        "d16abeda9e809f614125b458a80aac0e4e07ecaf7fc7eac2a9590bf53ef4e428",
    "tau cover4/o.mtd --a 2":
        "4a0a3cd6fefb829d7a75a075ad54dcabc6138dec8a009c273895b7cde4101115",
    "tau cover4/o.mtd --a 2 --json":
        "dbdb311b505fb14c776b02070d02e8c2693a646546964acd85c5d83a4b13952f",
    "tauw cover4/pg42.mtd --d 3":
        "037a90ca8a2735bfc57cf32bbf2ebc7e2c765a9472df26fe7c9fafb06619896c",
    "tauw cover4/pg42.mtd --d 3 --json":
        "10664d09eaf3df2c628ce03f6e2c60e751e50b8c30562bd8a8af81951e049063",
    "cover thm4 cover4/pg43.mtd --a 1 --b 5":
        "6572375e50aacfedd95d4b34ad467a4dedbdc72479403505d4919331f70122c5",
    "cover thm4 cover4/pg43.mtd --a 1 --b 5 --json":
        "5d67f2f127dcd9e1dd109b3fd1d996ddc8b0951ea214073626c6d045d0bdce19",
    "cover thm4 cover4/a.mtd --a 1 --b 4":
        "4187dc46a69c739299da1d3b21829e724ae1a2525046bb8be088f0c692dadf6a",
    "cover thm4 cover4/a.mtd --a 1 --b 4 --json":
        "b2a7d1b5aad33252c80a9c19c1bf3e2e8ac049688a2d27e3fb398b911fdb3c7e",
    "cover thm4 cover4/n.mtd --a 1 --b 6":
        "05209790f5fea1bc0bb70deda76c92b19a8c51beec0e93ee85815b7aa663e0b7",
    "cover thm4 cover4/n.mtd --a 1 --b 6 --json":
        "feba2c32cca9f4fa0c7a12879ef6da40ed3660c6df7776e984c2ac6dd3ac831a",
    "rep geometry4/pg42.mtd --q 2":
        "c8843015d4650b619f971f41b312b589cd1171f57e05e494dc4698ab1351a9e5",
    "rep geometry4/pg42.mtd --q 2 --json":
        "61955ec2785322f7ea0007091d498bc97ae5e88bdeb6bc98ef3ae685c3fc46aa",
    "pg geometry4/pg42.mtd --n 4 --q 2":
        "028721be6c29e06005196267718cc68dac87d6bb4bd5e6f978ad529868993810",
    "pg geometry4/pg42.mtd --n 4 --q 2 --json":
        "8a537de0a9f9abca3552cb00b1bc9711817289c46c633c02baba6f13a3390aa4",
    "rep geometry4/pg33.mtd --q 3":
        "979e58f4d466f87134348bf8fcff49027a14056faf99d5eb5e14c4b9fff61ae1",
    "rep geometry4/pg33.mtd --q 3 --json":
        "343227cc455b617c922c0332222f3cc4f6d8d8b773606f0175d30c7dd87b4a2d",
    "pg geometry4/pg33.mtd --n 3 --q 3":
        "b8588d140e15a9903c55754f7dc56d7698bef855c2c4097b8484ca0a3efe59ce",
    "pg geometry4/pg33.mtd --n 3 --q 3 --json":
        "d00b6964a0a1e80d85c7d2633d95cd904d9b7e3a2c76211952d1c00b19a19eb4",
    "rep geometry4/pg34.mtd --q 4":
        "230b9d5aff844d803fa92d852471d595ead9daa04af5a933e8f01e249bcc8646",
    "rep geometry4/pg34.mtd --q 4 --json":
        "ddcf4cdb422be7b7acb9c07267092cdcb16bcec7ae2df702d748ae81e9e92b11",
    "pg geometry4/pg34.mtd --n 3 --q 4":
        "bd9ad47b776111d84c23913c2a2c8b276505e5df39320c8c52f14fa3d8b11e49",
    "pg geometry4/pg34.mtd --n 3 --q 4 --json":
        "b5245518b51967ddf05dfe93dc19077b61821dc637514367109d9d94e7de3cb2",
    "stack find geometry4/pg43.mtd --q 2 --h 2 --t 2":
        "add1e2ae746370b9fbde2b8ba7b3620d58037110d89bc6eb6a4572311904d671",
    "stack find geometry4/pg43.mtd --q 2 --h 2 --t 2 --json":
        "2491d7dcb392fdf70f31b58b51d28543259a5570c4a4acb2e3f35d2bb367a74f",
    "stack find geometry4/pg35.mtd --q 4 --h 1 --t 2":
        "7c8151cf0392686883beb0a09f8a4e9550e6cf5a1c9a647f0eaa7dd167fc182c",
    "stack find geometry4/pg35.mtd --q 4 --h 1 --t 2 --json":
        "3c13c6f06f069d881d51072e89e1754fead17cf822d179c52287ab2d039d64c0",
    "stack find geometry4/pg34.mtd --q 3 --h 1 --t 2":
        "5a77b9ede2e1e4a691637845adccc4c87e497d238943ef6f944e71405f0572db",
    "stack find geometry4/pg34.mtd --q 3 --h 1 --t 2 --json":
        "b5bbfda855a1bf9a2222489ae53084b96ab331d018c70a3d74e6d8464f4fdcb5",
    "stack find geometry4/pg33.mtd --q 2 --h 1 --t 2":
        "767f1f22b59821df7af5ed766a104dd1c35189218fe2ea1837a28411b3dd7664",
    "stack find geometry4/pg33.mtd --q 2 --h 1 --t 2 --json":
        "73624d53b04cf993a3e88c95319caab1e34e979ffa550d68dc1fff2349bd6025",
    "stack find geometry4/pg33.mtd --q 3 --h 1 --t 2":
        "c3ec37f759cb795853b0b7e43a3a71b75ce29629dd2dfac9cf8685f326ff5838",
    "stack find geometry4/pg33.mtd --q 3 --h 1 --t 2 --json":
        "342dc2ac7c6861fc098e0b88dd458970e632a331c3cfe40801b5433b5d1b0e92",
    "stack find geometry4/pg42.mtd --q 2 --h 1 --t 3":
        "c3ec37f759cb795853b0b7e43a3a71b75ce29629dd2dfac9cf8685f326ff5838",
    "stack find geometry4/pg42.mtd --q 2 --h 1 --t 3 --json":
        "342dc2ac7c6861fc098e0b88dd458970e632a331c3cfe40801b5433b5d1b0e92",
    "stack find geometry4/pg34.mtd --q 4 --h 1 --t 3":
        "c3ec37f759cb795853b0b7e43a3a71b75ce29629dd2dfac9cf8685f326ff5838",
    "stack find geometry4/pg34.mtd --q 4 --h 1 --t 3 --json":
        "342dc2ac7c6861fc098e0b88dd458970e632a331c3cfe40801b5433b5d1b0e92",
    "round geometry4/pg42.mtd":
        "3015635b8fb2e948d090c90fdfa6a82bdb997bf17d7b3f136aebe8839ea167d2",
    "round geometry4/pg42.mtd --json":
        "cab43d7d32f2f29a4578ec32f5b7ff15abe0becfde54499321c11bd81636e829",
    "round geometry4/pg33.mtd":
        "3015635b8fb2e948d090c90fdfa6a82bdb997bf17d7b3f136aebe8839ea167d2",
    "round geometry4/pg33.mtd --json":
        "cab43d7d32f2f29a4578ec32f5b7ff15abe0becfde54499321c11bd81636e829",
    "round geometry4/pg34.mtd":
        "3015635b8fb2e948d090c90fdfa6a82bdb997bf17d7b3f136aebe8839ea167d2",
    "round geometry4/pg34.mtd --json":
        "cab43d7d32f2f29a4578ec32f5b7ff15abe0becfde54499321c11bd81636e829",
    "round geometry4/pg35.mtd":
        "3015635b8fb2e948d090c90fdfa6a82bdb997bf17d7b3f136aebe8839ea167d2",
    "round geometry4/pg35.mtd --json":
        "cab43d7d32f2f29a4578ec32f5b7ff15abe0becfde54499321c11bd81636e829",
    "tau geometry4/pg42.mtd --a 1":
        "3d7a4b0a8c80cff4ac32d5d2725cdfecf6c6a9df4c2fde0f33326a03ff811937",
    "tau geometry4/pg42.mtd --a 1 --json":
        "cabfac40a5d4104e3523f6a36cb4df9713c0886dcbceb9cc7f974da7e486a0e7",
    "tau geometry4/pg33.mtd --a 1":
        "52d46e22216437cbe49a4a6215b35472f4b5bb7a9d1c11d884308b84a713b5b5",
    "tau geometry4/pg33.mtd --a 1 --json":
        "6564e7bd3262da5832882eaea70ba81bc6957d787bd64eee14167a7402cce8e8",
    "tau geometry4/pg34.mtd --a 1":
        "59c947cbf3835333d71ebb3055c1fc6a3eaa4faf1f3fb182defe79f0bbb1b3c3",
    "tau geometry4/pg34.mtd --a 1 --json":
        "ce492fc3579739cfe939ca01fc2ea808dbeb5328b8e8eb4b346d378072cabdc9",
    "tau geometry4/pg35.mtd --a 1":
        "a94ada2f1094eae6216ac3298a8e3b5782f93679727d5eec8a57d5697737304d",
    "tau geometry4/pg35.mtd --a 1 --json":
        "a8b2ee84701d80092c3c39af8bbc9b47302da1c3e30936049da7376f3a99e6c6",
    "tau geometry4/pg43.mtd --a 1":
        "392de021494ee2dc8ae63f7cfb9e80261d2fd5e8ab5cb76378e3ff18a172d6df",
    "tau geometry4/pg43.mtd --a 1 --json":
        "07cd32f0cd39edecf9f15e346f8ab5e713d2b97c8867b81e79ae81e73469946d",
    "tau cover4/a.mtd --a 1":
        "296b08f2367d5b169e17e1365db46ac8806a6765b57179f8473d5663321ceb83",
    "tau cover4/a.mtd --a 1 --json":
        "bf9ba05491421c33ded20549c76d9f0b301988b8432d86c1b3035e899b7b99d6",
    "tau cover4/loops.mtd --a 1":
        "c170ef3032872e19222c3243670ad483893168fa38b89b7d665e30c3a0feba78",
    "tau cover4/loops.mtd --a 1 --json":
        "79554cbf5b4f20214ebc3f267a8511c659d636d291b8e094a5abf358eb604dfd",
    "tauw cover4/a.mtd --d 5":
        "1645fc95e988aeb4560f8fb6ca3d559003148584b1c06a9d67cd8d616571ad93",
    "tauw cover4/a.mtd --d 5 --json":
        "9150d9ff0a92c04ee0daf7e85dd2292cabfbaaf7caaf5e04465d03f57a7d8af9",
    "tauw cover4/j.mtd --d 5":
        "dcfbc02a11297858f46b7c4cf02fb8366ac195cf1f9c2c41020c685029b47a3b",
    "tauw cover4/j.mtd --d 5 --json":
        "8a246a04d3c45a556285ae020d47ccb346d90e8cbec70f3b53eeaa1180a33a12",
    "tauw cover4/a.mtd --d 1":
        "fd49852b28879e2d52bcf0353734faa84ca966dba7536092a4c2317f272544ad",
    "tauw cover4/a.mtd --d 1 --json":
        "32918c37a6f358f8c9880aa96788341e07c5d7c96903d1b37f83723941ef7b8a",
    "tauw cover4/j.mtd --d 1":
        "795706b312518c7c90d7b34f038ca0b942c57c6499258f1d56d171ea8922f894",
    "tauw cover4/j.mtd --d 1 --json":
        "32918c37a6f358f8c9880aa96788341e07c5d7c96903d1b37f83723941ef7b8a",
    "round geometry4/pg42.mtd --extract":
        "3baef0078a8259d7a36cfc341b81c41867edf9fdff821bd00216ecf211ddbd5d",
    "round geometry4/pg42.mtd --extract --json":
        "3baef0078a8259d7a36cfc341b81c41867edf9fdff821bd00216ecf211ddbd5d",
    "round geometry4/pg33.mtd --extract":
        "4bb9abb5003e0d8e58147e2d3f28a0e6f8da53ee74c31fcf77d99f95904e97ad",
    "round geometry4/pg33.mtd --extract --json":
        "fa429eb8ca8e32e76369543b01f8d3a482d47bf40b4a3b3fc14cc4e011faaa0f",
    "round geometry4/pg34.mtd --extract":
        "5ae96c8210d27ab3d644c16f666d59636a8e24092ac706521420bed34fbdb418",
    "round geometry4/pg34.mtd --extract --json":
        "748202c7a33d81d2b6482f3a521405004162137fc1a6cd86dd95ffb7a2d2df95",
    "round geometry4/pg35.mtd --extract":
        "df9f40abd5b0ddfaa4fb05427da9426f841a494ce08f7f27496fa6636fc0627a",
    "round geometry4/pg35.mtd --extract --json":
        "23acc06027c060589b86270200af1b60b2fb7f74311cd726b5a4503cf945e39a",
    "stack verify geometry4/pg43.mtd --q 2 --t 2 --parts 0,1,2,3|4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39":
        "dc25a19958297a7975f913c4a3429407dfc6a9ac42f182203ad12c979df2ed95",
    "stack verify geometry4/pg43.mtd --q 2 --t 2 --parts 0,1,2,3|4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39 --json":
        "10d191ab30b4a42ba85dbdfe433681465689f1ad0ab7a9858676cb177403d96d",
    "conn cover4/pg42.mtd --x 0,1 --y 2,3,4":
        "edb306987e169d2e810878154fb5da9ce52c91a7b83e70fac6acfbce2999ced5",
    "conn cover4/pg42.mtd --x 0,1 --y 2,3,4 --json":
        "cea75323f51ab04df2fcc1ed255ad206005ea4ea1b02890bef01559a3d66e212",
    "conn cover4/loops.mtd --x 0,3,5 --y 3,11,12,15":
        "be3003d22db948f6e5f5a7ec69061813c4cdc92b3a75727897b2b51f39f40db3",
    "conn cover4/loops.mtd --x 0,3,5 --y 3,11,12,15 --json":
        "0ac23dcb994e95d484022f9881decd897bf157ccb11661df0819fc976df8404b",
    "gen uniform 3 7 -o uniform.mtd":
        "c2076e748a2e8992128b465a6753c7066223c1e4c6c44f9332a987306ea5d4af",
    "gen uniform 3 7 -o uniform.mtd --json":
        "b799805aa3eb55a6e26520667007e33f5942adc3056fac91b4ed661027531e5c",
    "gen pg 4 3 -o pg.mtd":
        "d3f68a69b6f0bfdfb931acfa429b127a7e2e7f7f688ea423856534e75b5e2624",
    "gen pg 4 3 -o pg.mtd --json":
        "5e67176b7944f0a634c929498fc51a4cdff8e7405160fc281398a647d53df037",
    "gen fano -o fano.mtd":
        "61629bcacf734b37f88ce1d1919a2895c4da267134491571cb11ef5bbdc05e54",
    "gen fano -o fano.mtd --json":
        "2d64cd26c1d8f234cadc855c0401d97820a0478056c6c1914f6676e095729664",
    "gen linear_random 4 12 5 -o linear_random.mtd --seed 3":
        "ace92a7a61b8b22d84f984f093dd3e796906a83e97497000fe45e1d4cd60857d",
    "gen linear_random 4 12 5 -o linear_random.mtd --seed 3 --json":
        "79cd8148e059a50d73f8832727f9cfc446fbde760f376cb769ba4b3cd0ecbe69",
    "gen pg_plus_noise 3 2 4 3 -o pg_plus_noise.mtd --seed 1":
        "58632c679889e9fda5787714048a94365ed644f33f760fcc02da2ed299a4cc5b",
    "gen pg_plus_noise 3 2 4 3 -o pg_plus_noise.mtd --seed 1 --json":
        "9ebf52d274c94a9348889f9c3de0b1a474d8a420d128da318e01c1b121db3c7d",
    "gen u24_tower 3 -o u24_tower.mtd":
        "f1e0c031bd3ed727617178e2dd3c5d99c389fd1683a7a6122f18a0154fb41a7e",
    "gen u24_tower 3 -o u24_tower.mtd --json":
        "9d08d74a56b0e8a65b9608ff5823c1dafbd61c2f782e0b8f884cdaa50fbf5e79",
    "verify cor5 --trials 30 --seed 0":
        "b0d88e975382f2ff474bc9cfc56315daa145368efaa8d860e8d0b5ce70c457a8",
    "verify cor5 --trials 30 --seed 0 --json":
        "862d6e808eda717750f0ffcde35d98e78b2095987dd3ef441e98dec9c7e3d2ed",
    "verify hirschfeld --trials 30 --seed 0":
        "8f2f0a136c2e8174ced9f7b80222e770fd1f875bfe2c2ad668f04e730c76b9d5",
    "verify hirschfeld --trials 30 --seed 0 --json":
        "771217a3a1e12bcefaae31531a3ed1b756ea7ba8dc029149137351ed59ed069d",
    "verify lem10 --trials 30 --seed 0":
        "694f24a24c2b3831d5a9afd075be0d2642c4e17ac48636197cd0c4131d28cc94",
    "verify lem10 --trials 30 --seed 0 --json":
        "099a717dd0a94357fb42ceca02acfd68711b4ebf1bfede44c78d3724ed1a9644",
    "verify lem11 --trials 30 --seed 0":
        "217cc47a891ac77af156e11b1af3106fcd92f051acf2149cd7deb13f6ea1ac9f",
    "verify lem11 --trials 30 --seed 0 --json":
        "b54a1d527a45dca422c0afde805458e613fb074f0abd895739fef57e28e9a1be",
    "verify lem12 --trials 30 --seed 0":
        "27140a3c94400af60290a001c41a679883793771dd3f350f5921aba9bf69e274",
    "verify lem12 --trials 30 --seed 0 --json":
        "dc3ab4530ec465d08ea2e2b277fb0cb4009ad4b921209d4d0a557021002be1df",
    "verify lem14 --trials 30 --seed 0":
        "d55617ffb6b12703597965ff31b49759fdadb0ecc0cf9a774aa2bf887b9d7055",
    "verify lem14 --trials 30 --seed 0 --json":
        "bd8b0a9675778127c075fb1322d85090bb2000d86b2c6abd10051dc92de11db2",
    "verify lem16 --trials 30 --seed 0":
        "7af3f2bb014b0baacf7b8cad8834952b65b9898ee99f12dfe95db5b0c08c6a5c",
    "verify lem16 --trials 30 --seed 0 --json":
        "91fc22ece4da2bb60bd31cf5f28ae0a6f7f287cb6f937fb9b7ce064815b8babc",
    "verify lem17 --trials 30 --seed 0":
        "dfcf067d909428b02eb33671a9cb763146934800d3888232e07b7a3a9cd61d3d",
    "verify lem17 --trials 30 --seed 0 --json":
        "c869fb6fc52566b6e3d7ddb129fec7a57549937e3e4d1b25e1830f476376a069",
    "verify lem7 --trials 30 --seed 0":
        "a557a8127f81a166ba7ba005669254dad5eabc2378bf44bd0ecf5d7ddbdf883e",
    "verify lem7 --trials 30 --seed 0 --json":
        "649f41086ad82014199dcef29de2319a0d40662cfcf7581f41e13ad8319b0832",
    "verify lem8 --trials 30 --seed 0":
        "546530cf353b00e1ba380e01821de80cf4ac6e56ded5fafaf4b4b34120adb5ab",
    "verify lem8 --trials 30 --seed 0 --json":
        "709c1e7569ed4b71361639245efc782962a3b75b4ea0ea11b4528ff70e6b6e34",
    "verify lem9 --trials 30 --seed 0":
        "494e7a5e34d5de07c4d9eff929741c3c361e0b23a6d074ff43185ccdf7f9dea0",
    "verify lem9 --trials 30 --seed 0 --json":
        "e5568a33de2fbbecff4e281b2bd6c255a85f51f75fc49139392602f9f7a6cc26",
    "verify thm4 --trials 30 --seed 0":
        "8133e25efce8c1274d48a1b418db191d6c962ec872183773ce15a98ab4643fae",
    "verify thm4 --trials 30 --seed 0 --json":
        "64736480d7b9ab19551f22c4cd7e6e46c588666dd2655c7cc2f0fbf3f15c6fff",
    "verify cor5 --trials 30 --seed 1":
        "d25171ea57f2008d5362e137b795495f3d1d6a6c2f6cf3f562bf501d55f14d10",
    "verify cor5 --trials 30 --seed 1 --json":
        "b449fc2ab0b4b32ff5809844602c3808a33762547d45400002dd46f7a2ec0712",
    "verify hirschfeld --trials 30 --seed 1":
        "8f2f0a136c2e8174ced9f7b80222e770fd1f875bfe2c2ad668f04e730c76b9d5",
    "verify hirschfeld --trials 30 --seed 1 --json":
        "771217a3a1e12bcefaae31531a3ed1b756ea7ba8dc029149137351ed59ed069d",
    "verify lem10 --trials 30 --seed 1":
        "927af0de8d287a156ef4129859f3ecef5d92a8149273e1672c218374cc8ec6b2",
    "verify lem10 --trials 30 --seed 1 --json":
        "db13c6cf9678c39fdb6048281d2101fa1f364eec7cc1e9c3ff3384006d6c3959",
    "verify lem11 --trials 30 --seed 1":
        "217cc47a891ac77af156e11b1af3106fcd92f051acf2149cd7deb13f6ea1ac9f",
    "verify lem11 --trials 30 --seed 1 --json":
        "b54a1d527a45dca422c0afde805458e613fb074f0abd895739fef57e28e9a1be",
    "verify lem12 --trials 30 --seed 1":
        "871ef44d61b4fb166cae0902bce37a23fa1cc0aa8ce21c11d22eb126679592d6",
    "verify lem12 --trials 30 --seed 1 --json":
        "02e92cfde4cc4d38830709793e051519d5e0b2ef4755e391a7540d84a969b5f1",
    "verify lem14 --trials 30 --seed 1":
        "d55617ffb6b12703597965ff31b49759fdadb0ecc0cf9a774aa2bf887b9d7055",
    "verify lem14 --trials 30 --seed 1 --json":
        "bd8b0a9675778127c075fb1322d85090bb2000d86b2c6abd10051dc92de11db2",
    "verify lem16 --trials 30 --seed 1":
        "1e57b4fcb997a45ae725551bc8d14ba6b017a0cebbc2492e09fa565fee12f4a4",
    "verify lem16 --trials 30 --seed 1 --json":
        "1f1e2274f72c2c627f9aafcf5c101ddd0172aa6992570790a5fcbc7134bc2274",
    "verify lem17 --trials 30 --seed 1":
        "993924eff96a9d4f064c5ddb4b4f982334d8b5bb73df9d3ebd6ed08d864f6ff0",
    "verify lem17 --trials 30 --seed 1 --json":
        "9ec0394d3c1f028126f87d0a94579866e5450eac744d671632c701d0253f889f",
    "verify lem7 --trials 30 --seed 1":
        "e265be4991fb00de0a2266c10c80b647461507e878cb83831b4459fc541c6a4d",
    "verify lem7 --trials 30 --seed 1 --json":
        "8b9b73c7e5ecd2b5c43b3a4dd480c59a8edd7c752302d74b858a0cd0308d987b",
    "verify lem8 --trials 30 --seed 1":
        "ae2017bed80062a258b8902c4ba6492c082d966faf9206b9d2c205e1f7c11558",
    "verify lem8 --trials 30 --seed 1 --json":
        "1e2eb0a2de06e1326f92e0e777f4e48f83ad56936ba9fbd9878110447658b674",
    "verify lem9 --trials 30 --seed 1":
        "5136c0ca44b07d91f963de268367bff6a806980968b75035e7e8d7af7a6c7191",
    "verify lem9 --trials 30 --seed 1 --json":
        "30d0de9937b884a98bdaa78cac5fbd6ca617ee68ad1e350bfb12e353c99c5083",
    "verify thm4 --trials 30 --seed 1":
        "4ef0a8523a79bc96df1aaea25b11ebbe6679d9d51a42e258e6d74f149d03c552",
    "verify thm4 --trials 30 --seed 1 --json":
        "f16846c3c4245e78d0067bad362cc80cff2793283423ed0c7c01e381cd2aad21",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("byte_identity")
    write_inputs(str(root))
    return root


def test_table_lists_every_command():
    assert sorted(DIGESTS) == sorted(" ".join(argv) for argv in argvs())


@pytest.mark.parametrize("argv", argvs(), ids=" ".join)
def test_output_bytes_unchanged(argv, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    assert digest(argv) == DIGESTS.get(" ".join(argv))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        write_inputs(root)
        os.chdir(root)
        table = {" ".join(argv): digest(argv) for argv in argvs()}
    sys.stdout.write("DIGESTS: dict[str, str] = {\n")
    for key, value in table.items():
        sys.stdout.write(f'    "{key}":\n        "{value}",\n')
    sys.stdout.write("}\n")
