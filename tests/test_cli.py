"""Command-line behavior: exit codes, output contracts, stream routing.

Everything runs in-process through main() for speed; one subprocess
smoke test at the bottom checks the installed entry point end to end.
"""

from __future__ import annotations

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES
from houseswap import (
    BlockingCertificate,
    OpCounter,
    enumerate_feasible_allocations,
    format_segment,
    htts_solve,
    load_market,
    parse_allocation_text,
    serialize_allocation,
    solve_with_tiebreak,
)
from houseswap.cli import main
from reference import check_certificate

WORKED = str(FIXTURES / "worked.market")
EMPTY_CORE = str(FIXTURES / "empty_core.market")
MINIMAL = str(FIXTURES / "minimal.market")

WORKED_ALLOCATION = "1 -> h2\n2 -> h1\n3 -> h2\n4 -> h4\n5 -> h3\n"
WORKED_TRACE = (
    "step=1 houses={h3,h4} owners={4,5} feasible=true\n"
    "step=2 houses={h1,h2} owners={1,2,3} feasible=true\n"
)


class TestSolve:
    def test_worked_market(self, capsys):
        assert main(["solve", WORKED]) == 0
        out = capsys.readouterr()
        assert out.out == WORKED_ALLOCATION
        assert out.err == ""

    def test_minimal_market(self, capsys):
        assert main(["solve", MINIMAL]) == 0
        assert capsys.readouterr().out == "a1 -> h1\n"

    def test_empty_core(self, capsys):
        assert main(["solve", EMPTY_CORE]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "EMPTY CORE at step 1\n"

    def test_trace_flag(self, capsys):
        assert main(["solve", WORKED, "--trace"]) == 0
        out = capsys.readouterr()
        assert out.out == WORKED_ALLOCATION
        assert out.err == WORKED_TRACE

    def test_trace_goes_to_stderr_on_empty_core(self, capsys):
        assert main(["solve", EMPTY_CORE, "--trace"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "EMPTY CORE at step 1\n"
            "step=1 houses={h1,h2} owners={1,2,3} feasible=false\n"
        )

    def test_trace_of_empty_market_prints_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty.market"
        empty.write_text("houses:\n")
        assert main(["solve", str(empty), "--trace"]) == 0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ""

    def test_stats_flag(self, capsys):
        assert main(["solve", WORKED, "--stats"]) == 0
        out = capsys.readouterr()
        assert out.out == WORKED_ALLOCATION
        stats_line = out.err.splitlines()[-1]
        market = load_market(Path(WORKED).read_text())
        counter = OpCounter.of(market, htts_solve(market))
        assert stats_line == (
            f"arcs={counter.arcs_built} scc={counter.scc_work} "
            f"feas={counter.feasibility_comparisons}"
        )

    @pytest.mark.parametrize(
        "flags",
        [
            ["--trace"],
            ["--stats"],
            ["--trace", "--stats"],
            ["--trace", "--stats", "--tiebreak-seed", "5"],
        ],
    )
    @pytest.mark.parametrize("fixture", ["worked", "empty_core", "houses_only"])
    def test_flags_write_only_to_stderr(self, fixture, flags, tmp_path, capsys):
        # Whatever the verdict, stdout is what a plain solve prints, so
        # `solve --trace > file` still writes an allocation file.
        if fixture == "houses_only":
            path = tmp_path / "houses_only.market"
            path.write_text("houses:\n")
        else:
            path = FIXTURES / f"{fixture}.market"
        code = main(["solve", str(path)])
        plain = capsys.readouterr()
        assert main(["solve", str(path), *flags]) == code
        out = capsys.readouterr()
        assert out.out == plain.out

        market = load_market(path.read_text())
        if "--tiebreak-seed" in flags:
            outcome = solve_with_tiebreak(market, 5)
        else:
            outcome = htts_solve(market)
        counter = OpCounter.of(market, outcome)
        expected = [] if outcome.core_found else [
            f"EMPTY CORE at step {outcome.failed_step}"
        ]
        if "--trace" in flags:
            expected += [format_segment(market, seg) for seg in outcome.trace]
        if "--stats" in flags:
            expected.append(
                f"arcs={counter.arcs_built} scc={counter.scc_work} "
                f"feas={counter.feasibility_comparisons}"
            )
        assert out.err == "".join(line + "\n" for line in expected)

    def test_tiebreak_seed(self, capsys):
        assert main(["solve", WORKED, "--tiebreak-seed", "5"]) == 0
        assert capsys.readouterr().out == WORKED_ALLOCATION

    def test_output_parses_back_as_the_allocation(self, capsys):
        assert main(["solve", WORKED]) == 0
        market = load_market(Path(WORKED).read_text())
        allocation = parse_allocation_text(capsys.readouterr().out, market)
        assert allocation == htts_solve(market).allocation

    def test_agent_name_starting_with_hash_rejected(self, tmp_path, capsys):
        # Its output line "#a -> h1" would read back as a comment.  A
        # house name never begins a line, so "#h1" is a valid name.
        market = tmp_path / "hash.market"
        market.write_text("houses: #h1\nagent #a endow #h1 prefs #h1\n")
        assert main(["solve", str(market)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: agent name '#a' starts with '#'\n"
        market.write_text("houses: #h1\nagent a endow #h1 prefs #h1\n")
        assert main(["solve", str(market)]) == 0
        assert capsys.readouterr().out == "a -> #h1\n"

    def test_missing_file(self, capsys):
        assert main(["solve", "no_such_file.market"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_market_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.market"
        bad.write_text("houses: h1\nagent a endow h1 prefs h1\nagent b h1\n")
        assert main(["solve", str(bad)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_form_feed_stays_inside_a_comment(self, tmp_path, capsys):
        market = tmp_path / "ff.market"
        market.write_bytes(
            b"houses: h1 h2\n# note\x0cmore\n"
            b"agent a endow h1 prefs h1 h2\nagent b endow h2 prefs h2\n"
        )
        assert main(["solve", str(market)]) == 1
        assert capsys.readouterr().err == (
            "error: agent 'b' ranks 1 of 2 house types\n"
        )

    def test_non_utf8_market_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.market"
        bad.write_bytes(b"houses: h1\nagent a endow h1 prefs h1 \xff\n")
        assert main(["solve", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "error: line 2: invalid UTF-8 byte 0xff\n"
        )


class TestVerify:
    def test_core_member_accepted(self, tmp_path, capsys):
        alloc = tmp_path / "mu.alloc"
        alloc.write_text(WORKED_ALLOCATION)
        assert main(["verify", WORKED, str(alloc)]) == 0
        out = capsys.readouterr()
        assert out.out == "" and out.err == ""

    def test_identity_allocation_blocked(self, tmp_path, capsys):
        alloc = tmp_path / "identity.alloc"
        alloc.write_text("1 -> h1\n2 -> h2\n3 -> h2\n4 -> h3\n5 -> h4\n")
        assert main(["verify", WORKED, str(alloc)]) == 2
        # The trading cycle in the trace's first segment, {h3,h4}.
        assert capsys.readouterr().out == (
            "BLOCKED by {4,5}\n  4 -> h4\n  5 -> h3\n"
        )

    def test_infeasible_multiset(self, tmp_path, capsys):
        alloc = tmp_path / "wrong.alloc"
        # Two copies of h1 do not exist in the worked market.
        alloc.write_text("1 -> h1\n2 -> h1\n3 -> h2\n4 -> h3\n5 -> h4\n")
        assert main(["verify", WORKED, str(alloc)]) == 1
        assert "endowment counts" in capsys.readouterr().err

    def test_malformed_allocation(self, tmp_path, capsys):
        alloc = tmp_path / "bad.alloc"
        alloc.write_text("1 gets h2\n")
        assert main(["verify", WORKED, str(alloc)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def solved_allocation(self, tmp_path, capsys, agents):
        """gen an injective market (its core is never empty) and solve it;
        returns the market and allocation paths."""
        market = tmp_path / "gen.market"
        alloc = tmp_path / "gen.alloc"
        gen = ["gen", "--agents", agents, "--houses", agents, "--seed", "4"]
        assert main(gen) == 0
        market.write_text(capsys.readouterr().out)
        assert main(["solve", str(market)]) == 0
        alloc.write_text(capsys.readouterr().out)
        return str(market), alloc

    def test_solver_output_accepted_above_enumeration_cap(self, tmp_path, capsys):
        for agents in ("12", "200"):
            market, alloc = self.solved_allocation(tmp_path, capsys, agents)
            assert main(["verify", market, str(alloc)]) == 0
            out = capsys.readouterr()
            assert out.out == "" and out.err == ""

    def assert_blocked(self, market_path, alloc_path, capsys):
        """``verify`` exits 2 with a certificate that blocks the
        allocation, and nothing on stderr."""
        assert main(["verify", market_path, str(alloc_path)]) == 2
        out = capsys.readouterr()
        assert out.err == ""
        market = load_market(Path(market_path).read_text())
        mu = parse_allocation_text(Path(alloc_path).read_text(), market)
        head, *trades = out.out.splitlines()
        names = re.fullmatch(r"BLOCKED by \{(.*)\}", head).group(1)
        coalition = [market.agent_index[name] for name in names.split(",")]
        sub_allocation = {}
        for line in trades:
            agent, house = re.fullmatch(r"  (\S+) -> (\S+)", line).groups()
            house_id = market.house_index[house]
            sub_allocation[market.agent_index[agent]] = house_id
        assert list(sub_allocation) == coalition
        check_certificate(
            market, mu, BlockingCertificate(tuple(coalition), sub_allocation)
        )

    def test_other_allocation_above_cap_is_blocked(self, tmp_path, capsys):
        market, alloc = self.solved_allocation(tmp_path, capsys, "12")
        lines = alloc.read_text().splitlines()
        # The first two agents swap their assigned types: still feasible,
        # but not the core.
        a, b = lines[0].split(" -> "), lines[1].split(" -> ")
        lines[0], lines[1] = f"{a[0]} -> {b[1]}", f"{b[0]} -> {a[1]}"
        alloc.write_text("\n".join(lines) + "\n")
        self.assert_blocked(market, alloc, capsys)

    def test_every_empty_core_allocation_blocked(self, tmp_path, capsys):
        market = load_market(Path(EMPTY_CORE).read_text())
        allocations = list(enumerate_feasible_allocations(market))
        assert len(allocations) == 3
        alloc = tmp_path / "mu.alloc"
        for mu in allocations:
            alloc.write_text(serialize_allocation(market, mu))
            self.assert_blocked(EMPTY_CORE, alloc, capsys)

    def test_non_utf8_allocation_names_line(self, tmp_path, capsys):
        alloc = tmp_path / "bad.alloc"
        alloc.write_bytes(b"1 -> h2\n2 -> h1\n3 -> \xff\n")
        assert main(["verify", WORKED, str(alloc)]) == 1
        assert capsys.readouterr().err == (
            "error: line 3: invalid UTF-8 byte 0xff\n"
        )


class TestOracle:
    def test_worked_market_agrees_with_solve(self, capsys):
        assert main(["oracle", WORKED]) == 0
        assert capsys.readouterr().out == WORKED_ALLOCATION

    def test_empty_core(self, capsys):
        assert main(["oracle", EMPTY_CORE]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "EMPTY CORE\n"

    def test_cap_exceeded(self, tmp_path, capsys):
        big = tmp_path / "big.market"
        assert main(["gen", "--agents", "9", "--houses", "9", "--seed", "1"]) == 0
        big.write_text(capsys.readouterr().out)
        assert main(["oracle", str(big)]) == 1
        assert "error:" in capsys.readouterr().err


class TestGen:
    def test_output_is_a_valid_market(self, capsys):
        assert main(["gen", "--agents", "6", "--houses", "4", "--seed", "42"]) == 0
        market = load_market(capsys.readouterr().out)
        assert market.agent_count == 6
        assert market.house_count == 4

    def test_deterministic(self, capsys):
        main(["gen", "--agents", "5", "--houses", "3", "--seed", "7"])
        first = capsys.readouterr().out
        main(["gen", "--agents", "5", "--houses", "3", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_default_seed_zero(self, capsys):
        main(["gen", "--agents", "4", "--houses", "2"])
        default = capsys.readouterr().out
        main(["gen", "--agents", "4", "--houses", "2", "--seed", "0"])
        assert capsys.readouterr().out == default

    def test_invalid_params(self, capsys):
        assert main(["gen", "--agents", "2", "--houses", "5"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_agent_count_above_maxsize(self, capsys):
        assert main([
            "gen", "--agents", "100000000000000000000", "--houses", "1",
        ]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: agent_count")
        assert out.err.count("\n") == 1

    def test_size_too_large_to_allocate(self, capsys):
        # Below sys.maxsize, so GenParams accepts it; the list's byte size
        # overflows, and CPython raises MemoryError before allocating.
        assert main([
            "gen", "--agents", "5000000000000000000", "--houses", "1",
        ]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: out of memory\n"

    def test_seed_from_two_to_the_64(self, capsys):
        # splitmix64 would reduce the seed mod 2**64 and silently repeat
        # seed 0's market.
        assert main([
            "gen", "--agents", "5", "--houses", "3",
            "--seed", str(2**64),
        ]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: seed")
        assert out.err.count("\n") == 1

    def test_benchmark_size_matches_frozen_digest(self, capsys):
        # The `file` benchmark's gen child, byte for byte: the digest is
        # test_fileformat.py's test_generated_text_is_frozen for 1200x600
        # seed 13.
        assert main([
            "gen", "--agents", "1200", "--houses", "600", "--seed", "13",
        ]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "067bc376bdec5a1ecd9e2ac6b651df04387cbce3a19568f207b1dbd45d2842cb"
        )

    def test_gen_then_solve(self, tmp_path, capsys):
        main(["gen", "--agents", "8", "--houses", "8", "--seed", "3"])
        path = tmp_path / "gen.market"
        path.write_text(capsys.readouterr().out)
        assert main(["solve", str(path)]) in (0, 2)


class TestBench:
    def test_table_shape(self, capsys):
        assert main(["bench", "--sizes", "20,40", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "H I wall_ns arcs scc feas"
        data = lines[1:-1]
        assert len(data) == 2
        for row in data:
            cells = row.split()
            assert len(cells) == 6
            assert all(cell.isdigit() for cell in cells)
        assert [row.split()[0] for row in data] == ["20", "40"]
        assert [row.split()[1] for row in data] == ["40", "80"]
        assert re.fullmatch(r"slope=-?\d+\.\d{3}", lines[-1])

    def test_ratio_one(self, capsys):
        assert main(["bench", "--sizes", "10", "--ratio", "1.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[:2] == ["10", "10"]
        # A single size cannot support a slope fit.
        assert lines[-1] == "slope=n/a"

    def test_operation_counts_match_library(self, capsys):
        assert main(["bench", "--sizes", "30", "--seed", "9"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        from houseswap import GenParams, random_market

        market = random_market(GenParams(60, 30, 9))
        counter = OpCounter.of(market, htts_solve(market))
        assert [int(row[3]), int(row[4]), int(row[5])] == [
            counter.arcs_built,
            counter.scc_work,
            counter.feasibility_comparisons,
        ]

    def test_invalid_sizes(self, capsys):
        assert main(["bench", "--sizes", "abc"]) == 1
        assert main(["bench", "--sizes", "0"]) == 1
        assert main(["bench", "--sizes", ""]) == 1
        capsys.readouterr()
        for option, value in [
            ("--ratio", "nan"),
            ("--ratio", "inf"),
            ("--ratio", "1e400"),
            ("--ratio", "0"),
            ("--ratio", "-1"),
            ("--ratio", "0.5"),
        ]:
            assert main(["bench", "--sizes", "10", option, value]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith("error:")
            assert out.err.count("\n") == 1
        # Sizes whose agent or house counts cannot be allocated stop
        # before the table header.
        for args in [
            ["--sizes", "10", "--ratio", "1e300"],
            ["--sizes", "10", "--ratio", "1e308"],
            ["--sizes", "1" + "0" * 30],
        ]:
            assert main(["bench", *args]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith("error:")
            assert out.err.count("\n") == 1

    def test_seed_from_two_to_the_64(self, capsys):
        assert main(["bench", "--sizes", "10", "--seed", str(2**64)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: seed")
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "sizes, ratio",
        [
            # The first size's market cannot be allocated.
            ("5", "1e18"),
            # Size 1 is built and solved; the second size cannot be
            # allocated, and size 1's row is not printed either.
            ("1,9000000000000000000", "1"),
        ],
    )
    def test_failed_size_prints_no_table(self, sizes, ratio, capsys):
        assert main(["bench", "--sizes", sizes, "--ratio", ratio]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: out of memory\n"


class TestErrorLines:
    """Bad input found by a subcommand goes through ``main``'s one error
    path: exit 1, nothing on stdout, exactly this line on stderr."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bench", "--sizes", "abc"], "error: invalid size list 'abc'\n"),
            (["bench", "--sizes", "0"], "error: invalid size list '0'\n"),
            (
                ["bench", "--sizes", "10", "--ratio", "0"],
                "error: invalid ratio 0.0\n",
            ),
            # Below one agent per type, a size cannot be generated.
            (
                ["bench", "--sizes", "10", "--ratio", "0.5"],
                "error: invalid ratio 0.5\n",
            ),
            # Two copies of h1 do not exist in the worked market.
            (
                ["verify", WORKED, str(FIXTURES / "wrong_counts.alloc")],
                "error: allocation does not match the endowment counts\n",
            ),
        ],
    )
    def test_exact_line(self, argv, message, capsys):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == message


class TestUsageErrors:
    """Usage errors are bad input: exit 1 with one ``error:`` line, never
    argparse's exit 2, which would read as an empty core."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["gen", "--agents", "x", "--houses", "1"],
                "error: argument --agents: invalid int value: 'x'\n",
            ),
            ([], "error: the following arguments are required: command\n"),
            (
                ["gen", "--houses", "3"],
                "error: the following arguments are required: --agents\n",
            ),
            # Reducing mod 2**64 would turn -1 into 2**64 - 1 silently.
            (
                ["solve", WORKED, "--tiebreak-seed", "-1"],
                "error: argument --tiebreak-seed: must be an integer "
                "in [0, 2**64), got '-1'\n",
            ),
            (
                ["solve", WORKED, "--tiebreak-seed", str(2**64)],
                "error: argument --tiebreak-seed: must be an integer "
                f"in [0, 2**64), got '{2**64}'\n",
            ),
            (
                ["solve", WORKED, "--tiebreak-seed", "abc"],
                "error: argument --tiebreak-seed: must be an integer "
                "in [0, 2**64), got 'abc'\n",
            ),
            # bench runs each size once; it has no repeat count.
            (
                ["bench", "--sizes", "10", "--repeats", "2"],
                "error: unrecognized arguments: --repeats 2\n",
            ),
        ],
    )
    def test_exit_one_with_one_line(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == message

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: houseswap gen")


def test_module_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "houseswap", "gen", "--agents", "x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: argument --agents: invalid int value: 'x'\n"


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "houseswap", "solve", WORKED],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == WORKED_ALLOCATION
