import json
from fractions import Fraction

import pytest

from detksat.cli import main
from detksat.covering import ell_cover_spaces
from detksat.formula import parse_dimacs


@pytest.fixture
def sat_file(tmp_path):
    p = tmp_path / "sat.cnf"
    p.write_text("p cnf 3 2\n1 2 3 0\n-1 2 0\n")
    return str(p)

@pytest.fixture
def unsat_file(tmp_path):
    lines = ["p cnf 3 8"]
    for s1 in (1, -1):
        for s2 in (2, -2):
            for s3 in (3, -3):
                lines.append("%d %d %d 0" % (s1, s2, s3))
    p = tmp_path / "unsat.cnf"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


class TestSolve:
    def test_sat_exit_10_and_verified_report(self, sat_file, capsys):
        code = main(["solve", sat_file])
        assert code == 10
        rep = json.loads(capsys.readouterr().out)
        assert rep["schema"] == 1
        assert rep["verdict"] == "SAT"
        assert set(rep["assignment"]) <= {"0", "1"}

    def test_unsat_oracle_exit_20(self, unsat_file, capsys):
        assert main(["solve", unsat_file, "--mode", "oracle"]) == 20
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] == "UNSAT"

    def test_dls_mode(self, sat_file, capsys):
        assert main(["solve", sat_file, "--mode", "dls"]) == 10
        rep = json.loads(capsys.readouterr().out)
        assert rep["path"] == "DLS"

    def test_br_mode(self, sat_file, capsys):
        code = main(["solve", sat_file, "--mode", "br"])
        assert code in (0, 10)

    def test_parse_error_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.cnf"
        p.write_text("p cnf 1 1\n1 -1 0\n")
        assert main(["solve", str(p)]) == 1
        assert "tautological" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["0.5", "0", "1", "nan"])
    def test_base_not_above_one_exit_1(self, sat_file, capsys, c):
        assert main(["solve", sat_file, "--c", c]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --c:") and "exceed 1" in err

    def test_base_accepted(self, sat_file, capsys):
        assert main(["solve", sat_file, "--c", "1.05"]) == 10

    def test_failed_model_check_exit_1(self, sat_file, capsys, monkeypatch):
        from detksat import cli
        from detksat.branching_k import SolveResult

        monkeypatch.setattr(
            cli, "solve_ksat", lambda f, **kw: SolveResult("SAT", {1: 0, 2: 0, 3: 0})
        )
        assert main(["solve", sat_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "falsifies clause 1" in captured.err

    def test_cover_guard_exit_1(self, tmp_path, capsys):
        # random 4-CNF whose 1-chain power factor is too wide for one code
        p = tmp_path / "wide.cnf"
        main(["gen", "--k", "4", "--n", "32", "--m", "317", "--seed", "0", "--out", str(p)])
        assert main(["solve", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: power space guard")

    def test_oracle_guard_exit_1(self, tmp_path, capsys):
        p = tmp_path / "big.cnf"
        p.write_text("p cnf 31 1\n1 0\n")
        assert main(["solve", str(p), "--mode", "oracle"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: brute force guard")

    def test_modes_agree(self, tmp_path, capsys):
        from detksat.generator import gen_random_kcnf
        from detksat.formula import serialize_dimacs

        for seed in range(8):
            f = gen_random_kcnf(3, 9, 38, seed)
            p = tmp_path / ("f%d.cnf" % seed)
            p.write_text(serialize_dimacs(f))
            full = main(["solve", str(p)])
            capsys.readouterr()
            oracle = main(["solve", str(p), "--mode", "oracle"])
            capsys.readouterr()
            assert full == oracle


class TestGen:
    def test_deterministic(self, capsys):
        main(["gen", "--k", "3", "--n", "20", "--m", "85", "--seed", "42"])
        a = capsys.readouterr().out
        main(["gen", "--k", "3", "--n", "20", "--m", "85", "--seed", "42"])
        b = capsys.readouterr().out
        assert a == b
        f = parse_dimacs(a)
        assert f.n == 20 and len(f.clauses) == 85

    def test_empty(self, capsys):
        assert main(["gen", "--k", "3", "--n", "5", "--m", "0"]) == 0
        assert capsys.readouterr().out == "p cnf 5 0\n"

    def test_k_exceeds_n(self, capsys):
        assert main(["gen", "--k", "5", "--n", "3", "--m", "1"]) == 1


class TestTables:
    def test_bounds_rows(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        for frag in ("1.32793", "1.49857", "1.59946", "1.66646"):
            assert frag in out

    def test_chain_table_exact(self, capsys):
        assert main(["chain-table", "--exact"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("type\t")
        assert len(out) == 39
        row1 = out[1].split("\t")
        assert row1[0] == "1" and row1[1] == "*" and row1[5] == "3/7"
        assert row1[6].startswith("0.98586")


class TestCover:
    def test_cube(self, capsys):
        assert main(["cover", "--cube", "10", "--rho", "1/3"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out

    def test_zeta(self, capsys):
        assert main(["cover", "--zeta", "*", "--nu", "2"]) == 0
        out = capsys.readouterr().out
        assert "ell=4" in out  # radius bound for the 1-chain squared
        assert "49 words" in out
        assert "verified" in out

    def test_zeta_lambda_at_k4(self, monkeypatch, capsys):
        import detksat.cli as cli

        # the k = 4 value of the 3-clause 1-chain, not the k = 3 value 3/7
        seen = []

        def spy(spaces, k, lam):
            seen.append((k, lam))
            return ell_cover_spaces(spaces, k, lam)

        monkeypatch.setattr(cli, "ell_cover_spaces", spy)
        assert main(["cover", "--zeta", "*", "--k", "4"]) == 0
        assert seen == [(4, Fraction(4, 13))]
        assert "ell=3" in capsys.readouterr().out

    def test_rho_rejected(self, capsys):
        assert main(["cover", "--cube", "4", "--rho", "1/2"]) == 1

    @pytest.mark.parametrize("rho", ["1/0", "abc"])
    def test_rho_not_a_fraction_exit_1(self, rho, capsys):
        assert main(["cover", "--cube", "4", "--rho", rho]) == 1
        assert capsys.readouterr().err.startswith("error: --rho")

    @pytest.mark.parametrize("k", ["2", "1"])
    def test_k_below_3_exit_1(self, k, capsys):
        assert main(["cover", "--zeta", "*", "--k", k]) == 1
        assert capsys.readouterr().err == "error: k must be >= 3\n"

    def test_dump(self, capsys):
        assert main(["cover", "--cube", "4", "--rho", "1/3", "--dump"]) == 0
        out = capsys.readouterr().out
        assert any(line.startswith("r 2 ") for line in out.splitlines())
