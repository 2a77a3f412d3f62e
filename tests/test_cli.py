"""CLI behavior: formats, determinism, exit codes."""

import json
import math
import re
import shlex
from pathlib import Path

import pytest
from pytest import approx

from gee.cli import build_parser, main
from gee.oracle import DEFAULT_CELL_BUDGET


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    meta = [line for line in text.splitlines() if line.startswith("#")]
    body = [line for line in text.splitlines() if not line.startswith("#")]
    header, rows = body[0], [line.split(",") for line in body[1:] if line]
    return meta, header, rows


class TestRegion:
    def test_two_point_curve(self, capsys):
        code, out = run_cli(
            capsys, "region", "--eps", "0.35", "--points", "2", "--no-timestamp"
        )
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == "tau,jf,jm"
        assert len(rows) == 2
        tau0, jf0, jm0 = map(float, rows[0])
        tau1, jf1, jm1 = map(float, rows[1])
        assert (tau0, jf0) == (0.0, 0.0)
        assert jm0 == approx(0.045612, abs=1e-6)
        assert tau1 == approx(0.49) and jm1 == 0.0
        assert jf1 == approx(0.5 * (-0.49 + 1.49 * math.log(1.49)), abs=1e-9)

    def test_points_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["region", "--eps", "0.35", "--points", "1"])
        assert err.value.code == 2

    def test_eps_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["region", "--eps", "1.5", "--points", "10"])
        assert err.value.code == 2

    def test_deterministic_output(self, capsys):
        _, a = run_cli(capsys, "region", "--eps", "0.4", "--points", "7", "--no-timestamp")
        _, b = run_cli(capsys, "region", "--eps", "0.4", "--points", "7", "--no-timestamp")
        assert a == b


class TestExponents:
    def test_equalize(self, capsys):
        code, out = run_cli(
            capsys, "exponents", "--eps", "0.45", "--equalize", "--no-timestamp"
        )
        assert code == 0
        data = json.loads(out)
        assert data["tau"] == approx(0.365183, abs=1e-5)
        assert data["jf"] == approx(0.029889, abs=1e-5)
        assert data["jm"] == approx(data["jf"], abs=1e-6)
        assert data["kappa_bar"] == approx(1.81)

    def test_tau_zero(self, capsys):
        code, out = run_cli(
            capsys, "exponents", "--eps", "0.35", "--tau", "0", "--no-timestamp"
        )
        assert code == 0 and json.loads(out)["jf"] == 0.0

    def test_tau_at_upper_end(self, capsys):
        code, out = run_cli(
            capsys, "exponents", "--eps", "0.35", "--tau", "0.49", "--no-timestamp"
        )
        assert code == 0 and json.loads(out)["jm"] == 0.0

    def test_tau_out_of_range_is_usage_error(self, capsys):
        code = main(["exponents", "--eps", "0.35", "--tau", "0.6"])
        assert code == 2


class TestWorstCase:
    def test_closed_form(self, capsys):
        code, out = run_cli(
            capsys, "worst-case", "--m", "4", "--eps", "0.25", "--no-timestamp"
        )
        assert code == 0
        data = json.loads(out)
        assert data["pmf"] == approx([0.375, 0.375, 0.125, 0.125])
        assert data["chi_square_functional"] == approx(1.25)

    def test_bruteforce_gap(self, capsys):
        code, out = run_cli(
            capsys, "worst-case", "--m", "4", "--eps", "0.25",
            "--bruteforce", "--mesh", "100", "--no-timestamp",
        )
        assert code == 0
        assert json.loads(out)["bruteforce"]["gap"] <= 0.02

    def test_degenerate_is_computation_error(self, capsys):
        code = main(["worst-case", "--m", "2", "--eps", "0.9"])
        assert code == 3


class TestAlphabetSize:
    @pytest.mark.parametrize("argv", [
        ["worst-case", "--m", "1", "--eps", "0.3"],
        ["simulate", "--n", "3", "--m", "1", "--eps", "0.3", "--tau", "0.1"],
        ["oracle", "--n", "3", "--m", "1", "--tau-abs", "0"],
    ])
    def test_one_symbol_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


class TestUsageErrors:
    SIM = ["simulate", "--n", "10", "--m", "20", "--eps", "0.3"]
    SWEEP = ["sweep", "--eps", "0.3", "--trials", "10"]

    @pytest.mark.parametrize("argv", [
        SIM + ["--tau", "-1"],
        ["exponents", "--eps", "0.3", "--tau", "-0.1"],
        SWEEP + ["--n", "10", "--m-rule", "2*n", "--tau", "-0.5"],
        ["oracle", "--n", "5", "--m", "10", "--eps", "0.3", "--tau", "-1"],
        SWEEP + ["--n", "1,4", "--m-rule", "n^0.5", "--tau", "0.2"],
        SWEEP + ["--n", "1,4", "--m-rule", "0*n", "--tau", "0.2"],
        ["worst-case", "--m", "7", "--eps", "0.3", "--bruteforce"],
        SIM + ["--tau", "0.1", "--trials", "1.5"],
        SIM + ["--tau", "0.1", "--streams", "2.5"],
        ["worst-case", "--m", "3", "--eps", "0.3", "--bruteforce", "--mesh", "1.5"],
        ["region", "--eps", "0.3", "--points", "1.5"],
        SIM + ["--stat", "extended", "--tau", "0.1"],
        SIM + ["--stat", "extended", "--weights", "a,b", "--tau", "0.1"],
        SIM + ["--stat", "extended", "--weights", "0,nan", "--tau", "0.1"],
        ["oracle", "--stat", "extended", "--weights", "0,inf", "--n", "5", "--m", "10",
         "--tau-abs", "0"],
        ["fdiv-check", "--f", "kl", "--xmax", "-5"],
        ["fdiv-check", "--f", "kl", "--xmax", "nan"],
        SWEEP + ["--stat", "weighted", "--n", "10", "--m-rule", "2*n", "--tau", "0.2"],
        ["oracle", "--n", "5", "--m", "10", "--eps", "0.3", "--tau-abs", "nan"],
        ["oracle", "--n", "5", "--m", "10", "--eps", "0.3", "--tau-abs", "inf"],
        ["oracle", "--n", "5", "--m", "10", "--tau", "inf"],
        ["exponents", "--eps", "0.3", "--tau", "nan"],
        SIM + ["--tau", "inf"],
    ])
    def test_exit_code_two(self, argv, capsys):
        try:
            code = main(argv + ["--no-timestamp"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_float_notation_stays_valid(self, capsys):
        code, out = run_cli(capsys, *self.SIM, "--tau", "0.1", "--trials", "1e3", "--no-timestamp")
        assert code == 0 and json.loads(out)["pf"]["trials"] == 1000
        code, out = run_cli(capsys, "region", "--eps", "0.3", "--points", "1e1", "--no-timestamp")
        assert code == 0 and len(parse_csv(out)[2]) == 10


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=refuse)


class TestPinnedStdout:
    """The stdout of each RNG-free command in pinned_stdout.json (as the
    list of its lines), byte for byte: any change to a printed digit
    fails here.  JSON outputs must also be valid JSON."""

    PINNED = json.loads((Path(__file__).parent / "pinned_stdout.json").read_text())

    @pytest.mark.parametrize("command", sorted(PINNED))
    def test_stdout_unchanged(self, command, capsys):
        code, out = run_cli(capsys, *command.split(), "--no-timestamp")
        assert code == 0 and out.split("\n") == self.PINNED[command]
        if out.startswith("{"):
            strict_json(out)


class TestOracle:
    def test_exact_pf(self, capsys):
        code, out = run_cli(
            capsys, "oracle", "--stat", "coincidence", "--n", "3", "--m", "3",
            "--tau-abs", "0", "--no-timestamp",
        )
        assert code == 0
        data = json.loads(out)
        assert data["pf"] == approx(3 / 27, abs=1e-12)
        assert data["pm"] is None

    def test_exact_pm_with_eps(self, capsys):
        code, out = run_cli(
            capsys, "oracle", "--stat", "coincidence", "--n", "3", "--m", "3",
            "--tau-abs", "0", "--eps", "0.3", "--no-timestamp",
        )
        data = json.loads(out)
        assert code == 0 and 0.0 < data["pm"] < 1.0

    def test_budget_error(self, capsys):
        code = main([
            "oracle", "--stat", "pearson", "--n", "50", "--m", "400",
            "--eps", "0.3", "--budget", "1000",
        ])
        assert code == 3

    def test_last_criterion_8_point_fits_the_default_budget(self, capsys):
        # n = 8000, m = ceil(n^1.5): two laws on 900-row windowed grids; the
        # full grid of every count and value (4 of 8100 x 8100) is 2.6 times it
        code, out = run_cli(capsys, "oracle", "--n", "8000", "--m", "715542", "--eps", "0.45",
                            "--tau", "0.365", "--no-timestamp")
        data = json.loads(out)
        assert code == 0 and data["meta"]["params"]["budget"] == DEFAULT_CELL_BUDGET
        assert data["pf"] == approx(0.009660003712, abs=5e-10)

    def test_pearson_with_tau_is_usage_error(self, capsys):
        code = main([
            "oracle", "--stat", "pearson", "--n", "10", "--m", "30",
            "--eps", "0.3", "--tau", "0.2",
        ])
        assert code == 2

    def test_missing_rule_is_usage_error(self, capsys):
        code = main(["oracle", "--stat", "coincidence", "--n", "3", "--m", "3"])
        assert code == 2


class TestSimulate:
    def test_roundtrip(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--stat", "coincidence", "--n", "12", "--m", "30",
            "--eps", "0.3", "--tau", "0.2", "--trials", "5000", "--seed", "4",
            "--no-timestamp",
        )
        assert code == 0
        data = json.loads(out)
        assert data["pf"]["trials"] == 5000
        assert data["pf"]["count"] == round(data["pf"]["p_hat"] * 5000)

    def test_equalize_flag(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--stat", "coincidence", "--n", "12", "--m", "30",
            "--eps", "0.35", "--equalize", "--trials", "1000", "--no-timestamp",
        )
        assert code == 0

    def test_pearson_needs_no_tau(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--stat", "pearson", "--n", "12", "--m", "30",
            "--eps", "0.3", "--trials", "1000", "--no-timestamp",
        )
        assert code == 0

    def test_first_level_mass_past_one(self, capsys):
        # biuniform_worst_case(51, 0.6) puts 1/20 on 20 symbols, a float sum
        # past 1 that the direct samplers' level split once passed to binomial
        point = ["--n", "30", "--m", "51", "--eps", "0.6", "--tau", "0.2", "--no-timestamp"]
        code, out = run_cli(capsys, "simulate", *point, "--trials", "2048")
        assert code == 0
        sim = json.loads(out)
        assert sim["sampler"] == {"pf": "sorted", "pm": "sorted"}
        code, out = run_cli(capsys, "oracle", *point)
        assert code == 0
        exact = json.loads(out)
        for key in ("pf", "pm"):
            p = exact[key]
            assert abs(sim[key]["p_hat"] - p) <= 4 * math.sqrt(p * (1 - p) / 2048), key

    def test_pearson_with_tau_is_usage_error(self, capsys):
        code = main([
            "simulate", "--stat", "pearson", "--n", "12", "--m", "30",
            "--eps", "0.3", "--tau", "0.2", "--trials", "1000",
        ])
        assert code == 2


class TestSimulatePinned:
    """Exceed counts recorded before the statistics were rebuilt on their
    f tables, at a sparse (sorted-symbol) and a dense (counts) point; the
    sparse point now takes the fingerprint path and the dense one the
    tally path, so `test_counts` holds the sorted and multinomial
    reference paths to their old counts, and `test_fingerprint_counts`
    and `test_tally_counts` pin the fast paths' counts, recorded when
    each path was added (the tally counts again when it was Poissonized
    and when its CDF draws went bits first; the sparse p_M counts of the
    two-band sorted path again when its rows drew exactly n symbols; both
    again when the Poisson slack moved to 1.25 and the fingerprint top-up
    drew its repeat targets after the fresh runs, each new count within
    1.7 standard errors of a two-sample difference from the one it
    replaced; the sparse sorted counts again when every source drew its
    sorted rows through its inverse-CDF table, each within 1.1 standard
    errors; the tally counts again when they were drawn in symbol order,
    each within 1.2 standard errors)."""

    SPARSE = ["--n", "1000", "--m", "31623", "--eps", "0.45", "--trials", "5000", "--seed", "5"]
    DENSE = ["--n", "120", "--m", "30", "--eps", "0.1", "--trials", "4000", "--seed", "6"]

    def simulate(self, capsys, stat, flags, point, tau):
        rule = [] if stat.startswith("pearson") else ["--tau", tau]
        code, out = run_cli(
            capsys, "simulate", "--stat", stat, *flags, *rule, *point, "--no-timestamp"
        )
        assert code == 0
        data = json.loads(out)
        return (data["pf"]["count"], data["pm"]["count"]), data["sampler"]

    @pytest.mark.parametrize("stat,flags,sparse,dense", [
        ("coincidence", [], (1048, 136), (1295, 3025)),
        ("pearson", [], (257, 614), (1284, 1859)),
        ("pearson-truncated", [], (157, 1169), (0, 4000)),
        ("extended", ["--weights", "0,1,3"], (1120, 116), (1746, 2692)),
        ("weighted", [], (277, 681), (1823, 2078)),
    ])
    def test_counts(self, capsys, reference_paths, stat, flags, sparse, dense):
        for point, tau, expected, path in (
            (self.SPARSE, "0.2", sparse, "sorted"), (self.DENSE, "0.002", dense, "counts"),
        ):
            assert self.simulate(capsys, stat, flags, point, tau) == (
                expected, {"pf": path, "pm": path}
            )

    @pytest.mark.parametrize("stat,flags,sparse", [
        ("coincidence", [], (1034, 150)),
        ("pearson", [], (256, 577)),
        ("pearson-truncated", [], (156, 1107)),
        ("extended", ["--weights", "0,1,3"], (1114, 133)),
        ("weighted", [], (278, 638)),
    ])
    def test_fingerprint_counts(self, capsys, stat, flags, sparse):
        assert self.simulate(capsys, stat, flags, self.SPARSE, "0.2") == (
            sparse, {"pf": "fingerprint", "pm": "fingerprint"}
        )

    @pytest.mark.parametrize("stat,flags,dense", [
        ("coincidence", [], (1413, 3071)),
        ("pearson", [], (1241, 1808)),
        ("pearson-truncated", [], (0, 4000)),
        ("extended", ["--weights", "0,1,3"], (1689, 2704)),
        ("weighted", [], (1885, 2138)),
    ])
    def test_tally_counts(self, capsys, stat, flags, dense):
        assert self.simulate(capsys, stat, flags, self.DENSE, "0.002") == (
            dense, {"pf": "tally", "pm": "tally"}
        )


class TestSweep:
    ARGS = [
        "sweep", "--eps", "0.3", "--tau", "0.2", "--n", "10,14",
        "--m-rule", "2*n", "--trials", "3000", "--seed", "11", "--no-timestamp",
    ]

    def test_csv_shape(self, capsys):
        code, out = run_cli(capsys, *self.ARGS)
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == "n,m,r,pf_hat,pf_ci,pm_hat,pm_ci,flags"
        assert [row[0] for row in rows] == ["10", "14"]
        assert any(line.startswith("# params:") for line in meta)

    def test_byte_identical_across_streams(self, capsys):
        outputs = {}
        for streams in ("1", "8"):
            runs = [run_cli(capsys, *self.ARGS, "--streams", streams)[1] for _ in range(2)]
            assert runs[0] == runs[1]  # repeated invocations byte-identical
            outputs[streams] = runs[0]
        # identical data rows across stream counts (the stream count
        # appears in the parameter echo but never affects the estimates)
        rows = {
            s: [ln for ln in text.splitlines() if not ln.startswith("#")]
            for s, text in outputs.items()
        }
        assert rows["1"] == rows["8"]

    def test_sampler_metadata(self, capsys):
        _, out = run_cli(
            capsys, "sweep", "--eps", "0.45", "--equalize", "--n", "12,300",
            "--m-rule", "n^1.5", "--trials", "100", "--seed", "2", "--no-timestamp",
        )
        meta, header, rows = parse_csv(out)
        assert "# sampler: n=12:pf=sorted,pm=sorted n=300:pf=fingerprint,pm=fingerprint" in meta
        assert header == "n,m,r,pf_hat,pf_ci,pm_hat,pm_ci,flags"
        assert [row[0] for row in rows] == ["12", "300"]

    def test_m_rule_power(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--eps", "0.3", "--tau", "0.2", "--n", "9",
            "--m-rule", "n^1.5", "--trials", "500", "--seed", "2", "--no-timestamp",
        )
        _, _, rows = parse_csv(out)
        assert rows[0][1] == str(math.ceil(9**1.5))

    def test_bad_m_rule_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--eps", "0.3", "--tau", "0.2", "--n", "10",
                  "--m-rule", "n+3", "--trials", "100"])
        assert err.value.code == 2


class TestFdivCheck:
    def test_kl(self, capsys):
        code, out = run_cli(capsys, "fdiv-check", "--f", "kl", "--no-timestamp")
        assert code == 0
        data = json.loads(out)
        assert data["cond1"] is True and data["cond2"] is True
        assert data["alpha"] <= 1.0 + 1e-9

    def test_unknown_f_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["fdiv-check", "--f", "hellinger"])
        assert err.value.code == 2


class TestParser:
    """Every dest and default each subcommand parses to, and the README's
    command lines, pinned independently of how the parser is declared."""

    COMMON = {"out": None, "no_timestamp": False}
    STATISTIC = {"stat": "coincidence", "weights": None}
    RUNS = {"seed": None, "streams": 1}

    @pytest.mark.parametrize("argv,expected", [
        ("region --eps 0.35 --points 2", {"eps": 0.35, "points": 2}),
        ("exponents --eps 0.45 --equalize", {"eps": 0.45, "tau": None, "equalize": True}),
        ("worst-case --m 4 --eps 0.25",
         {"m": 4, "eps": 0.25, "bruteforce": False, "mesh": 200}),
        ("simulate --n 12 --m 30 --eps 0.3",
         {**STATISTIC, "n": 12, "m": 30, "eps": 0.3, "tau": None, "equalize": False,
          "tau_abs": None, "trials": 100000, **RUNS}),
        ("sweep --eps 0.3 --n 10,14 --m-rule 2*n --trials 100",
         {**STATISTIC, "eps": 0.3, "tau": None, "equalize": False, "tau_abs": None,
          "n": [10, 14], "m_rule": "2*n", "trials": 100, **RUNS}),
        ("oracle --n 3 --m 3",
         {**STATISTIC, "n": 3, "m": 3, "eps": None, "tau": None, "tau_abs": None,
          "equalize": False, "budget": DEFAULT_CELL_BUDGET}),
        ("fdiv-check --f kl", {"f": "kl", "xmax": 100.0, "points": 4001}),
    ])
    def test_minimal_argv_defaults(self, argv, expected):
        parsed = vars(build_parser().parse_args(argv.split()))
        assert callable(parsed.pop("func"))
        if "m_rule" in parsed:
            parsed["m_rule"] = parsed["m_rule"].text
        command = argv.split()[0]
        assert parsed == {"command": command, **expected, **self.COMMON}

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
        parser, commands = build_parser(), set()
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            assert argv[0] == "gee", line
            commands.add(parser.parse_args(argv[1:]).command)
        assert commands == {
            "region", "exponents", "worst-case", "simulate", "sweep", "oracle", "fdiv-check",
        }


class TestOutput:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "region.csv"
        code, _ = run_cli(
            capsys, "region", "--eps", "0.35", "--points", "3",
            "--out", str(target), "--no-timestamp",
        )
        assert code == 0 and target.exists()
        assert target.read_text().splitlines()[-1].count(",") == 2

    def test_unwritable_path(self, capsys):
        code = main([
            "region", "--eps", "0.35", "--points", "3",
            "--out", "/nonexistent-dir/region.csv",
        ])
        assert code == 3

    def test_timestamp_present_by_default(self, capsys):
        _, out = run_cli(capsys, "region", "--eps", "0.35", "--points", "2")
        assert "# timestamp:" in out

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("GEE_SEED", "77")
        from gee.cli import _default_seed

        assert _default_seed() == 77

    def test_seed_env_read_per_run(self, capsys, monkeypatch):
        # one parser serves every main() call: GEE_SEED is read when the
        # seeded command runs, not when the parser is built
        argv = ["sweep", "--eps", "0.3", "--tau", "0.2", "--n", "10", "--m-rule", "2*n",
                "--trials", "3000", "--no-timestamp"]
        seeds = []
        for value in ("3", "4"):
            monkeypatch.setenv("GEE_SEED", value)
            code, out = run_cli(capsys, *argv)
            assert code == 0
            seeds += re.findall(r" seed=(\S+)", out)
        assert seeds == ["3", "4"]

    def test_malformed_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GEE_SEED", "abc")
        assert main(["region", "--eps", "0.3", "--points", "2", "--no-timestamp"]) == 0
        simulate = ["simulate", "--n", "10", "--m", "20", "--eps", "0.3", "--tau", "0.2",
                    "--trials", "100", "--no-timestamp"]
        capsys.readouterr()
        assert main(simulate) == 2
        assert "GEE_SEED" in capsys.readouterr().err
        assert main([*simulate, "--seed", "5"]) == 0
