"""Generators and the .mtd format."""

import hashlib

import pytest

from mdl import catalog, core, rep
from mdl.bits import submasks
from mdl.core import (DirectSumMatroid, LinearMatroid, Matroid, MinorMatroid, UniformMatroid,
                      direct_sum, validate_rank_axioms)
from mdl.catalog import ParseError
from mdl.cli import main


def test_pg_generators():
    m = catalog.gen("pg", (3, 2))
    assert m.size() == 7 and m.rank() == 3 and m.epsilon() == 7
    m43 = catalog.gen("pg", (4, 3))
    assert m43.size() == 40
    assert m43.rank() == 4


def test_uniform_generator():
    m = catalog.gen("uniform", (2, 4))
    for x in submasks(m.ground):
        assert m.rank(x) == min(x.bit_count(), 2)


def test_fano_alias():
    assert rep.is_pg(catalog.gen("fano"), 3, 2)


def test_tower_generator():
    m = catalog.gen("u24_tower", (3,))
    assert m.size() == 12 and m.rank() == 6


# sha256 of the written files of seeds 0 to 19, one after another
SEEDED_DIGESTS = {
    ("linear_random", (3, 9, 2)):
        "5b8c1a1dcea3bebff8db9339bfbbb7079341f739fb6338f2fa999a869414c339",
    ("linear_random", (5, 18, 4)):
        "573415ad86d2edbd7a8ea75949062ea47a53868d252ef118f353a6559a7d48c7",
    ("linear_random", (4, 20, 9)):
        "d16374dd8487a6f29bff50d0e125ca68eab19a33d8cc0c0fff3dd292dc095f56",
    ("pg_plus_noise", (3, 2, 4, 3)):
        "a2b0d13330638ae739ece87a4bc6eb37314700220e22d3912dc6d5213945811f",
    ("pg_plus_noise", (4, 3, 9, 5)):
        "f80ad978a455f3474814b25df6b4c2f9dac5c70757c35cba33ee7e20aaaa19f8",
    ("pg_plus_noise", (3, 5, 25, 2)):
        "0f20c8caf819c0ce10fe8a184a59c28ffc4c83bd8bfdbb5671232f2ab25660ba",
}


def test_linear_random_deterministic(tmp_path):
    a = catalog.gen("linear_random", (3, 8, 4), seed=11)
    b = catalog.gen("linear_random", (3, 8, 4), seed=11)
    c = catalog.gen("linear_random", (3, 8, 4), seed=12)
    assert a.matrix.entries == b.matrix.entries
    assert a.matrix.entries != c.matrix.entries
    # the seeded columns are drawn in one fixed order, file for file
    path = tmp_path / "m.mtd"
    for (family, params), want in SEEDED_DIGESTS.items():
        h = hashlib.sha256()
        for seed in range(20):
            catalog.write_matroid(catalog.gen(family, params, seed=seed), str(path))
            h.update(path.read_bytes())
        assert h.hexdigest() == want, (family, params)


# sha256 of the file `mdl gen <family> <params> -o <path>` writes, header included
GEN_FILE_DIGESTS = {
    ("uniform", "3", "7"):
        "6d29b89e2f6bd1233539999e58be7ff19441075eeeed8f4ee497f1ef2c403248",
    ("uniform", "0", "0"):
        "5c1dccb5923b9b716ed52db1a741c933496a7bbdda2cf073cbba0cc164e3cae2",
    ("pg", "4", "3"):
        "3afc87b1b4da85aac298fa92fc25cbed383ba1d6acb905675d9e65fe7c79bdba",
    ("pg", "3", "4"):
        "0c5110f431493ffd97030f32897e740a029cf0ec0b3157a073afb569cebcdf6e",
    ("fano",):
        "b6fbcc3db864dbac10cb6312845bc3532ae17e520772d5c80332d3ce2f6ab33c",
    ("u24_tower", "3"):
        "58cf62c4668e943eb8c81df03f316fcf2f1e33179a98d94dbfe0736ee3dd82b1",
}


def test_gen_writes_pinned_files(tmp_path, capsys):
    path = str(tmp_path / "m.mtd")
    for args, want in GEN_FILE_DIGESTS.items():
        assert main(["gen", *args, "-o", path]) == 0
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want, args


def test_pg_plus_noise_shape():
    m = catalog.gen("pg_plus_noise", (3, 2, 4, 2), seed=5)
    assert m.size() == 7 + 2
    assert m.rank() == 3
    assert rep.is_pg(m.delete(0b11 << 7), 3, 2)
    with pytest.raises(ValueError):
        catalog.gen("pg_plus_noise", (3, 4, 16, 1))  # q must be prime


def test_unknown_family():
    with pytest.raises(ValueError):
        catalog.gen("petersen", ())


def test_generated_matroids_satisfy_axioms():
    for m in [catalog.gen("pg", (3, 2)),
              catalog.gen("uniform", (2, 5)),
              catalog.gen("u24_tower", (2,)),
              catalog.gen("linear_random", (3, 9, 3), seed=2),
              catalog.gen("pg_plus_noise", (3, 3, 9, 1), seed=2)]:
        assert validate_rank_axioms(m)


def test_pg_passes_is_pg():
    for n, q in [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)]:
        assert rep.is_pg(catalog.gen("pg", (n, q)), n, q)


# -- file format ------------------------------------------------------------


def ranks_equal(a, b):
    if a.ground != b.ground:
        return False
    return all(a.rank(x) == b.rank(x) for x in submasks(a.ground))


def test_round_trip_linear(tmp_path):
    m = catalog.gen("pg", (3, 2))
    p = str(tmp_path / "fano.mtd")
    catalog.write_matroid(m, p, name="fano")
    assert ranks_equal(catalog.read_matroid(p), m)


def test_round_trip_uniform(tmp_path):
    m = UniformMatroid(2, 6)
    p = str(tmp_path / "u.mtd")
    catalog.write_matroid(m, p)
    assert ranks_equal(catalog.read_matroid(p), m)


def test_round_trip_minor(tmp_path):
    m = catalog.gen("pg", (4, 2)).minor(0b11, 0b1100)
    p = str(tmp_path / "minor.mtd")
    catalog.write_matroid(m, p)
    back = catalog.read_matroid(p)
    assert back.ground == m.ground
    assert all(back.rank(x) == m.rank(x) for x in list(submasks(m.ground))[:200])


def test_round_trip_direct_sum(tmp_path):
    m = catalog.gen("u24_tower", (2,))
    p = str(tmp_path / "tower.mtd")
    catalog.write_matroid(m, p)
    assert ranks_equal(catalog.read_matroid(p), m)


def kind_samples():
    """A small sample of each matroid kind in mdl.core, by class."""
    fano = catalog.gen("fano")
    return {UniformMatroid: UniformMatroid(2, 5), LinearMatroid: fano,
            MinorMatroid: fano.minor(0b1, 0b100),
            DirectSumMatroid: direct_sum([UniformMatroid(1, 2), catalog.gen("pg", (2, 3))])}


def test_every_kind_in_core_round_trips(tmp_path):
    """Every Matroid subclass mdl.core defines can be written to a file and
    read back with the same rank on every subset."""
    kinds = {cls for cls in vars(core).values() if isinstance(cls, type)
             and issubclass(cls, Matroid) and cls is not Matroid and cls.__module__ == core.__name__}
    samples = kind_samples()
    assert kinds == set(samples)
    p = str(tmp_path / "kind.mtd")
    for cls, m in samples.items():
        assert type(m) is cls
        catalog.write_matroid(m, p)
        assert ranks_equal(catalog.read_matroid(p), m), cls


def test_round_trip_with_header_comment(tmp_path):
    m = UniformMatroid(1, 3)
    p = str(tmp_path / "hdr.mtd")
    catalog.write_matroid(m, p, header="family=uniform seed=0")
    assert ranks_equal(catalog.read_matroid(p), m)


def test_parse_error_bad_field(tmp_path):
    p = tmp_path / "bad.mtd"
    p.write_text("matroid x\nkind linear\nfield 6\nrank 2\nend\n")
    with pytest.raises(ParseError) as exc:
        catalog.read_matroid(str(p))
    assert ":3:" in str(exc.value)


def test_parse_error_entry_range(tmp_path):
    p = tmp_path / "bad.mtd"
    p.write_text("matroid x\nkind linear\nfield 2\nrank 2\ncol 1 2\nend\n")
    with pytest.raises(ParseError):
        catalog.read_matroid(str(p))


def test_parse_error_missing_base(tmp_path):
    p = tmp_path / "bad.mtd"
    p.write_text("matroid x\nkind minor\nof ghost\ncontract 0\ndelete\nend\n")
    with pytest.raises(ParseError) as exc:
        catalog.read_matroid(str(p))
    assert "ghost" in str(exc.value)


@pytest.mark.parametrize("line", ["contract -1", "delete -2", "contract 7", "delete 0 9"])
def test_parse_error_minor_index_outside_base(tmp_path, line):
    """An index below 0 or past the base is refused at the minor's block line."""
    p = tmp_path / "bad.mtd"
    p.write_text(f"matroid u\nkind uniform\nparams 2 7\nend\n\nmatroid x\nkind minor\nof u\n{line}\nend\n")
    with pytest.raises(ParseError) as exc:
        catalog.read_matroid(str(p))
    assert str(exc.value) == f"{p}:6: minor sets contain dead elements"


def test_parse_error_unknown_kind(tmp_path):
    p = tmp_path / "bad.mtd"
    p.write_text("matroid x\nkind transversal\nend\n")
    with pytest.raises(ParseError):
        catalog.read_matroid(str(p))


def test_parse_error_empty_file(tmp_path):
    p = tmp_path / "empty.mtd"
    p.write_text("# nothing here\n")
    with pytest.raises(ParseError):
        catalog.read_matroid(str(p))


def test_multiple_blocks_reference(tmp_path):
    p = tmp_path / "multi.mtd"
    p.write_text(
        "matroid base\nkind uniform\nparams 2 4\nend\n\n"
        "matroid m\nkind minor\nof base\ncontract 0\ndelete 3\nend\n")
    m = catalog.read_matroid(str(p))
    assert m.ground == 0b0110
    assert m.rank(0b0110) == 1

