import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from detksat import characteristic, covering
from detksat.cli import main
from detksat.covering import ell_cover_spaces
from detksat.formula import DimacsError, brute_force_sat, parse_dimacs, satisfies, serialize_dimacs
from detksat.generator import gen_random_kcnf

SRC = Path(__file__).resolve().parent.parent / "src"


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

    def test_br_mode_instance_report(self, tmp_path, capsys):
        # the branching hands this formula to the local search at c = 1.05
        p = tmp_path / "inst.cnf"
        assert main(["gen", "--k", "3", "--n", "20", "--m", "85", "--seed", "0", "--out", str(p)]) == 0
        assert main(["solve", str(p), "--mode", "br", "--c", "1.05"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert list(rep) == ["schema", "path", "stats", "outcome", "chains"]
        assert rep["path"] == "BR" and rep["outcome"] == "instance"
        assert rep["chains"] == {"*": 1}

    def test_not_utf8_exit_1(self, tmp_path, capsys):
        p = tmp_path / "latin.cnf"
        p.write_bytes(b"p cnf 2 1\n1 \xff 0\n")
        assert main(["solve", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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
        # the local search covers the 81-variable cube at radius 27 by five
        # blocks of 16-17 bits, whose product has about 5.6e8 centers
        p = tmp_path / "wide.cnf"
        p.write_text("p cnf 81 1\n1 2 3 0\n")
        assert main(["solve", str(p), "--mode", "dls"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: code size guard")

    @pytest.mark.parametrize(
        "text",
        ["p cnf 200 0\n", "p cnf 60 1\n%s 0\n" % " ".join(map(str, range(1, 13)))],
        ids=["no-clause-200", "one-12-clause-60"],
    )
    def test_oversized_cube_refused_before_any_cover(self, tmp_path, capsys, monkeypatch, text):
        # the 200-bit cube at radius 67 (ten 20-bit blocks) and the 60-bit
        # cube at radius 5 (three): the product of the blocks' sphere-covering
        # bounds already exceeds the size limit, so no block is built
        def no_greedy(*args):
            raise AssertionError("a greedy cover ran")

        monkeypatch.setattr(covering, "_greedy_cover", no_greedy)
        p = tmp_path / "wide.cnf"
        p.write_text(text)
        assert main(["solve", str(p), "--mode", "dls"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: code size guard: at least")

    def test_oversized_ell_family_refused_before_any_greedy(self, tmp_path, capsys, monkeypatch):
        # gen_random_kcnf(4, 40, 200, 0), default mode: a 4-bit cube times
        # nine 4-clause 1-chains, a 36-bit power split into runs of five and
        # four spaces; the runs' ell-family bounds 4,683 * 936 already
        # exceed the size limit (their built families: 4,432,080 centers)
        def no_greedy(*args):
            raise AssertionError("a greedy cover ran")

        monkeypatch.setattr(covering, "_greedy_cover", no_greedy)
        p = tmp_path / "k4.cnf"
        p.write_text(serialize_dimacs(gen_random_kcnf(4, 40, 200, 0)))
        assert main(["solve", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: code size guard: at least 4383288 centers > 4194304\n"

    def test_oversized_cube_refused_before_any_lambda(self, tmp_path, capsys, monkeypatch):
        # default mode: the 12-literal clause is one chain, whose exact
        # characteristic value at k = 12 (4,095 words on 12 orbits) takes a
        # few hundredths of a second; the free 48-bit cube at radius 4 is
        # refused before that value is solved
        def no_solve(*args):
            raise AssertionError("a characteristic value was solved")

        monkeypatch.setattr(characteristic, "solve_characteristic", no_solve)
        monkeypatch.setattr(characteristic, "_solve_mod_prime", no_solve)
        p = tmp_path / "wide.cnf"
        p.write_text("p cnf 60 1\n%s 0\n" % " ".join(map(str, range(1, 13))))
        assert main(["solve", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: code size guard: at least")

    def test_wide_power_decided(self, tmp_path, capsys):
        # six disjoint 4-clauses: a 24-bit power of 1-chains, built as two
        # runs of three chains
        p = tmp_path / "six.cnf"
        p.write_text("p cnf 24 6\n" + "".join(
            "%d %d %d %d 0\n" % tuple(range(4 * i + 1, 4 * i + 5)) for i in range(6)
        ))
        assert main(["solve", str(p)]) == 10
        rep = json.loads(capsys.readouterr().out)
        assert rep["path"] == "DLS" and rep["stats"]["chain_vector"] == {"*": 6}

    def test_clause_wider_than_kmax_exit_1(self, tmp_path, capsys):
        p = tmp_path / "wide.cnf"
        p.write_text("p cnf 13 1\n%s 0\n" % " ".join(map(str, range(1, 14))))
        assert main(["solve", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: width guard: clause width 13 > 12\n"
        # the local search alone takes any width
        assert main(["solve", str(p), "--mode", "dls"]) == 10

    def test_oracle_guard_exit_1(self, tmp_path, capsys):
        p = tmp_path / "big.cnf"
        p.write_text("p cnf 31 1\n1 0\n")
        assert main(["solve", str(p), "--mode", "oracle"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: brute force guard")

    @pytest.mark.parametrize("mode", [[], ["--mode", "br", "--c", "1e9"]])
    def test_search_deeper_than_stack_decided(self, tmp_path, mode):
        # the branching reaches depth 44 on this instance; a recursion limit
        # of 40 frames stands in for a deep search on a large input, which
        # the explicit node stack does not touch
        from detksat.formula import serialize_dimacs
        from detksat.generator import gen_random_kcnf

        p = tmp_path / "deep.cnf"
        p.write_text(serialize_dimacs(gen_random_kcnf(3, 300, 600, 0)))
        code = "import sys; from detksat.cli import main; sys.setrecursionlimit(40); sys.exit(main(sys.argv[1:]))"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        res = subprocess.run(
            [sys.executable, "-c", code, "solve", str(p)] + mode,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert res.returncode == 10
        assert res.stderr == ""
        rep = json.loads(res.stdout)
        assert rep["verdict"] == "SAT" and rep["path"] == "BR-solved"

    # 4-CNFs whose width-k branching hands 3-CNFs on to the 3-SAT branching:
    # the chains there must be built from the 3-clauses, not the 4-clauses
    # they were restricted from
    HANDOFF_REPROS = {
        "overlap": "p cnf 20 8\n-10 -11 -9 -5 0\n-11 -18 13 -16 0\n-10 -15 4 -3 0\n"
        "-11 -14 -4 16 0\n-11 -13 -10 -8 0\n-11 -15 -2 8 0\n-10 -8 18 -4 0\n-10 14 4 15 0\n",
        "instance": "p cnf 15 9\n2 -15 9 -5 0\n13 -15 -1 -10 0\n-4 7 -14 0\n-8 1 5 0\n"
        "14 -11 8 0\n9 -13 7 0\n4 14 -7 0\n-1 -12 3 0\n10 13 11 0\n",
    }

    @pytest.mark.parametrize("repro", sorted(HANDOFF_REPROS))
    @pytest.mark.parametrize("c", [[], ["--c", "1.05"]])
    def test_width_k_handoff_decided(self, tmp_path, repro, c):
        p = tmp_path / "handoff.cnf"
        p.write_text(self.HANDOFF_REPROS[repro])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        code = "import sys; from detksat.cli import main; sys.exit(main(sys.argv[1:]))"
        res = subprocess.run(
            [sys.executable, "-c", code, "solve", str(p)] + c,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert res.returncode == 10, res.stderr
        assert res.stderr == ""
        assert json.loads(res.stdout)["verdict"] == "SAT"

    def test_br_mode_width_4_exit_1(self, tmp_path, capsys):
        p = tmp_path / "k4.cnf"
        p.write_text("p cnf 4 1\n1 2 3 4 0\n")
        assert main(["solve", str(p), "--mode", "br"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --mode br is the 3-SAT branching; width > 3\n"

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


FAULTS = ("header", "token", "unterminated", "count", "range", "tautology", "no-header", "two-headers")


@st.composite
def dimacs_texts(draw):
    """DIMACS text of up to 12 variables: clauses of width 0-13 with repeated
    literals and unused variables, sometimes broken by one of FAULTS."""
    n = draw(st.integers(0, 12))
    var = st.integers(1, max(n, 1))
    width = st.one_of(st.lists(var, min_size=1, max_size=3), st.lists(var, max_size=13))
    clauses = draw(st.lists(width if n else st.just([]), max_size=50))
    signs = draw(st.integers(0, (1 << 13) - 1))
    lines = [" ".join("%d" % (v if signs >> v & 1 else -v) for v in c + [0]) for c in clauses]
    header = "p cnf %d %d" % (n, len(lines))
    fault = draw(st.none() | st.sampled_from(FAULTS))
    if fault == "header":
        header = draw(st.sampled_from(["p cnf", "p dnf %d %d" % (n, len(lines)), "p cnf x 1", "p cnf -1 0"]))
    elif fault == "token":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["1.5 0", "x 0", "--1 0"])))
    elif fault == "unterminated":
        lines.append(" ".join("%d" % v for v in draw(st.lists(var, min_size=1, max_size=4))))
    elif fault == "count":
        header = "p cnf %d %d" % (n, len(lines) + 1)
    elif fault == "range":
        lines.append("%d 0" % -(n + 1))
        header = "p cnf %d %d" % (n, len(lines))
    elif fault == "tautology" and n:
        v = draw(var)
        lines.append("%d %d 0" % (v, -v))
        header = "p cnf %d %d" % (n, len(lines))
    elif fault == "two-headers":
        lines.insert(draw(st.integers(0, len(lines))), header)
    if fault != "no-header":
        lines.insert(0, header)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "c a comment")
    return "\n".join(lines) + "\n"


class TestFuzzMain:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=dimacs_texts())
    @example(text="p cnf 0 0\n")
    @example(text="p cnf 5 1\n0\n")
    @example(text="p cnf 12 1\n%s 0\n" % " ".join(map(str, [1] * 13)))
    def test_every_mode_answers_or_exits_1(self, tmp_path, capsys, text):
        """No exception escapes ``main``; exit 1 prints only ``error: ...``,
        and a formula within the guards gets the oracle's verdict in every
        mode, with a model that satisfies it."""
        p = tmp_path / "fuzz.cnf"
        p.write_text(text)
        try:
            f = parse_dimacs(text)
        except DimacsError as e:
            f, parse_error = None, "error: %s\n" % e
        want = None if f is None else (10 if brute_force_sat(f) is not None else 20)
        for mode in ("full", "br", "dls", "oracle"):
            code = main(["solve", str(p), "--mode", mode])
            captured = capsys.readouterr()
            assert code in (0, 1, 10, 20)
            if code == 1:
                assert captured.out == ""
                assert captured.err.startswith("error: ")
            if f is None:
                assert (code, captured.err) == (1, parse_error)
                continue
            if mode == "br" and f.width() > 3:
                assert (code, captured.err) == (1, "error: --mode br is the 3-SAT branching; width > 3\n")
                continue
            if mode == "br" and code == 0:
                assert json.loads(captured.out)["outcome"] == "instance"
                continue
            assert code == want, (mode, captured.err)
            if code == 10:
                bits = json.loads(captured.out)["assignment"]
                assert len(bits) == f.n
                assert satisfies(f, {v: int(b) for v, b in enumerate(bits, start=1)})


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

    def test_out_directory_missing_exit_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.cnf"
        assert main(["gen", "--k", "3", "--n", "5", "--m", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --out: ")
        assert not out.exists()


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["cover", "--bogus"],
            ["cover"],
            ["solve"],
            ["gen", "--k", "three", "--n", "5", "--m", "3"],
            ["frobnicate"],
        ],
    )
    def test_usage_error_exit_1(self, argv, capsys):
        # 2 is the table-mismatch code, not argparse's usage code
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err

    def test_cube_and_zeta_rejected_together(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["cover", "--cube", "5", "--zeta", "*"])
        assert e.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --zeta: not allowed with argument --cube" in captured.err


class TestTables:
    def test_bounds_rows(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        for frag in ("1.32793", "1.49857", "1.59946", "1.66646"):
            assert frag in out

    @pytest.mark.parametrize("kmax", ["2", "13"])
    def test_bounds_kmax_out_of_range_exit_1(self, kmax, capsys):
        assert main(["bounds", "--kmax", kmax]) == 1
        assert capsys.readouterr().err.startswith("error: kmax")

    def test_chain_table_mismatch_exit_2(self, monkeypatch, capsys):
        from detksat import cli

        def mismatch():
            raise characteristic.Table2Error("row 1: lambda 3/7 != 1/2")

        monkeypatch.setattr(cli, "reproduce_table2", mismatch)
        assert main(["chain-table"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "row 1: lambda 3/7 != 1/2\n"

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

    def test_cube_16_radius_2(self, capsys):
        assert main(["cover", "--cube", "16", "--rho", "1/8"]) == 0
        out = capsys.readouterr().out
        assert "radius 2: 1024 centers\n" in out
        assert "coverage: verified (65536 words)" in out

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

    def test_zeta_power_wider_than_block(self, capsys):
        assert main(["cover", "--zeta", "*", "--nu", "8"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# ell-family nu=8 (runs [4, 4])")
        assert "coverage: verified" in out

    def test_zeta_power_over_the_size_limit_exit_1(self, capsys):
        # 40 copies of the 3-bit space, seven runs of at most six: level 0
        # of the runs' families already multiplies past the limit, which
        # refuses the 120-bit code before any coverage check
        assert main(["cover", "--zeta", "*", "--nu", "40"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: code size guard: ")

    def test_rho_rejected(self, capsys):
        assert main(["cover", "--cube", "4", "--rho", "1/2"]) == 1

    @pytest.mark.parametrize("rho", ["1/0", "abc"])
    def test_rho_not_a_fraction_exit_1(self, rho, capsys):
        assert main(["cover", "--cube", "4", "--rho", rho]) == 1
        assert capsys.readouterr().err.startswith("error: --rho")

    @pytest.mark.parametrize("nu", ["0", "-2"])
    def test_nu_below_1_exit_1(self, nu, capsys):
        assert main(["cover", "--zeta", "*", "--nu", nu]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --nu must be at least 1\n"

    @pytest.mark.parametrize("k", ["2", "1"])
    def test_k_below_3_exit_1(self, k, capsys):
        assert main(["cover", "--zeta", "*", "--k", k]) == 1
        assert capsys.readouterr().err == "error: k must be >= 3\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--cube", "6", "--nu", "3"],
            ["--cube", "6", "--k", "9"],
            ["--cube", "6", "--nu", "1", "--k", "3"],
            ["--zeta", "*", "--rho", "9"],
            ["--zeta", "*", "--rho", "1/3"],
        ],
    )
    def test_option_of_other_shape_exit_1(self, argv, capsys):
        assert main(["cover"] + argv) == 1
        assert "does not apply to" in capsys.readouterr().err

    def test_defaults(self, capsys):
        assert main(["cover", "--cube", "6"]) == 0
        assert capsys.readouterr().out.startswith("# cube width 6\nradius 2: ")  # rho 1/3
        assert main(["cover", "--zeta", "*"]) == 0
        assert capsys.readouterr().out.startswith("# ell-family nu=1 ell=3\n")  # nu 1, k 3

    def test_dump(self, capsys):
        assert main(["cover", "--cube", "4", "--rho", "1/3", "--dump"]) == 0
        out = capsys.readouterr().out
        assert any(line.startswith("r 2 ") for line in out.splitlines())
