"""Command-line behavior: exit codes, output contracts, stream routing.

Everything runs in-process through main() for speed; the subprocess
tests at the bottom run the module entry point end to end, with stdout
buffered as it is outside a terminal.
"""

from __future__ import annotations

import errno
import hashlib
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIXTURES
from houseswap import (
    BlockingCertificate,
    GenParams,
    OpCounter,
    format_trace,
    htts_solve,
    load_market,
    parse_allocation_text,
    random_market,
    serialize_allocation,
    serialize_market,
    solve_with_tiebreak,
)
from houseswap import ValidationError, _forked, cli, fileformat
from houseswap.cli import main
from houseswap.oracle import enumerate_feasible_allocations
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
            expected += format_trace(market, outcome.trace).splitlines()
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
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: 9 agents exceeds enumeration cap 8\n"


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
        assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_GEN_SHA256

    def test_gen_then_solve(self, tmp_path, capsys):
        main(["gen", "--agents", "8", "--houses", "8", "--seed", "3"])
        path = tmp_path / "gen.market"
        path.write_text(capsys.readouterr().out)
        assert main(["solve", str(path)]) in (0, 2)


def assert_no_child_left():
    # A helper still running reads as (0, 0); a zombie would be reaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def patch_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def gen_argv(agents, houses, seed):
    return ["gen", "--agents", str(agents), "--houses", str(houses),
            "--seed", str(seed)]


class TestGenHelpers:
    """``gen`` formats one slice of agents per usable CPU, each after
    the first in a forked helper; its bytes never depend on the count."""

    @pytest.mark.parametrize(
        "agents, houses, cpus",
        [
            # The process's real CPU count; 1201 splits unevenly on two.
            (1200, 600, None),
            (1201, 600, None),
            # Slices of 2, 2 and 3 agents.
            (7, 3, 3),
            # Fewer agents than CPUs: one slice per agent.
            (2, 2, 5),
            (1, 1, 4),
        ],
    )
    def test_bytes_equal_serialize_market(
        self, agents, houses, cpus, monkeypatch, capsys
    ):
        if cpus is not None:
            patch_cpus(monkeypatch, cpus)
        assert main(gen_argv(agents, houses, 13)) == 0
        expected = serialize_market(random_market(GenParams(agents, houses, 13)))
        assert capsys.readouterr().out == expected
        assert_no_child_left()

    @pytest.mark.parametrize("missing", ["one_cpu", "no_fork"])
    def test_one_slice_does_not_fork(self, missing, monkeypatch, capsys):
        expected = serialize_market(random_market(GenParams(50, 20, 4)))
        if missing == "one_cpu":
            patch_cpus(monkeypatch, 1)
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        else:
            monkeypatch.delattr(os, "fork")
        assert main(gen_argv(50, 20, 4)) == 0
        assert capsys.readouterr().out == expected
        assert_no_child_left()

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("raise", "error: gen helper exited with status 1\n"),
            ("kill", "error: gen helper killed by signal 9\n"),
        ],
    )
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_failed_helper_is_one_error_line(
        self, fault, message, cpus, monkeypatch, capsys
    ):
        # With three slices the first helper fails and the second, still
        # running or done, is killed and reaped.
        parent = os.getpid()
        serialize = cli.serialize_market

        def failing(market):
            if os.getpid() != parent:
                if fault == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("formatter failed")
            return serialize(market)

        patch_cpus(monkeypatch, cpus)
        monkeypatch.setattr(cli, "serialize_market", failing)
        assert main(gen_argv(30, 10, 2)) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == message
        assert_no_child_left()

    @pytest.mark.parametrize(
        "fault, code", [(KeyboardInterrupt, None), (MemoryError, 1)]
    )
    def test_parent_fault_kills_running_helpers(
        self, fault, code, monkeypatch, capsys
    ):
        parent = os.getpid()
        serialize = cli.serialize_market

        def slow_helpers(market):
            if os.getpid() == parent:
                raise fault
            time.sleep(30)  # only a kill ends this helper early
            return serialize(market)

        patch_cpus(monkeypatch, 3)
        monkeypatch.setattr(cli, "serialize_market", slow_helpers)
        start = time.monotonic()
        if code is None:
            with pytest.raises(fault):
                main(gen_argv(30, 10, 2))
        else:
            assert main(gen_argv(30, 10, 2)) == code
            assert capsys.readouterr() == ("", "error: out of memory\n")
        assert time.monotonic() - start < 10
        assert_no_child_left()


# A market of agents a1 to a12 over h1 to h4, where the last agent is
# the only owner of h4.
LOAD_HOUSES = ["h1", "h2", "h3", "h4"]
LOAD_AGENTS = [
    [
        "agent", f"a{k}", "endow", "h4" if k == 12 else LOAD_HOUSES[k % 3],
        "prefs", *LOAD_HOUSES[k % 4:], *LOAD_HOUSES[:k % 4],
    ]
    for k in range(1, 13)
]


def load_text(edits=(), header="houses: h1 h2 h3 h4"):
    """The market above, with ``edits``, ``(k, edit)`` pairs, applied to
    the line of agent ``k``: ``edit(tokens)`` is its new line."""
    lines = [header, *(" ".join(tokens) for tokens in LOAD_AGENTS)]
    for k, edit in edits:
        lines[k] = edit(list(LOAD_AGENTS[k - 1]))
    return "\n".join(lines) + "\n"


def replaced(position, token):
    def edit(tokens):
        tokens[position] = token
        return " ".join(tokens)
    return edit


# One edit per fault an agent line can carry.
LINE_FAULTS = {
    "syntax": lambda tokens: " ".join(tokens[:2]),
    "hash-name": lambda tokens: " ".join(tokens).replace(" a", " #a", 1),
    "duplicate-name": lambda tokens: " ".join(
        [tokens[0], f"a{int(tokens[1][1:]) - 1}", *tokens[2:]]
    ),
    "unknown-endowment": replaced(3, "h9"),
    "unknown-ranked": replaced(6, "h9"),
    "ranked-twice": lambda tokens: " ".join(tokens[:-1] + tokens[5:6]),
    "incomplete": lambda tokens: " ".join(tokens[:-1]),
}


def sliced_outcome(text, cpus, tmp_path, capsys, command="solve", *args):
    """The exit code, stdout and stderr of ``command`` on a market file
    holding ``text``, then ``args``, with ``cpus`` usable CPUs."""
    path = tmp_path / "m.market"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as monkeypatch:
        patch_cpus(monkeypatch, cpus)
        code = main([command, str(path), *args])
    return code, *capsys.readouterr()


def load_error(text):
    """The error line of ``load_market`` on ``text``."""
    with pytest.raises(ValidationError) as info:
        load_market(text)
    return f"error: {info.value}\n"


def slice_of(cuts, text, k):
    """The index of the slice, of ``text`` cut at ``cuts``, that holds
    agent ``k``'s line."""
    line_start = len("".join(text.splitlines(True)[:k]))
    return sum(cut <= line_start for cut in cuts) - 1


class TestLoadHelpers:
    """``solve``, ``verify`` and ``oracle`` check one slice of agent
    lines per usable CPU, each after the first in a forked helper; the
    market, or the error, never depends on the count."""

    @pytest.mark.parametrize("cpus", [None, 2, 3, 5])
    @pytest.mark.parametrize(
        "text",
        [
            serialize_market(random_market(GenParams(37, 11, 5))),
            # Fewer agent lines than CPUs.
            "houses: h1 h2\nagent a endow h1 prefs h2 h1\n"
            "agent b endow h2 prefs h1 h2\n",
            # A comment, a blank line or a CRLF ending beside every cut.
            "# heading\r\nhouses: h1 h2 h3 h4\r\n\r\n"
            + "".join(
                f"{' '.join(tokens)}\r\n  # after a{k}\n\n"
                for k, tokens in enumerate(LOAD_AGENTS, start=1)
            ),
            load_text(),
            # Non-ASCII names, and beside every cut a comment holding
            # U+0085 and U+2028, which ``str.splitlines`` breaks at.
            load_text()
            .replace("h1", "café").replace("h2", "日本").replace(" a", " ä")
            .replace("\n", "\n# \x85 \u2028 note\n"),
        ],
        ids=["generated", "two-agents", "comments-crlf", "later-owner", "non-ascii"],
    )
    def test_market_equals_load_market(self, text, cpus, tmp_path, monkeypatch):
        path = tmp_path / "m.market"
        path.write_bytes(text.encode())
        if cpus is not None:
            patch_cpus(monkeypatch, cpus)
        forked = []
        fork = _forked.Helpers.fork

        def counted(helpers, *args):
            forked.append(args)
            fork(helpers, *args)

        monkeypatch.setattr(_forked.Helpers, "fork", counted)
        market = cli._read_market(str(path))
        assert market == load_market(text)
        assert all(type(ranking) is tuple for ranking in market.prefs)
        cuts = _forked.line_cuts(text, cli._usable_cpus())
        assert len(forked) == max(len(cuts) - 2, 0)
        assert all(text[cut - 1] == "\n" for cut in cuts[1:-1])
        assert_no_child_left()

    @pytest.mark.parametrize(
        "edits",
        [
            *([(2, edit)] for edit in LINE_FAULTS.values()),
            *([(12, edit)] for edit in LINE_FAULTS.values()),
            *([(2, edit), (12, edit)] for edit in LINE_FAULTS.values()),
            # A name repeated across slices, and a type whose only owner,
            # in the last slice, gives it away.
            [(12, replaced(1, "a1"))],
            [(12, replaced(3, "h1"))],
            # A syntax error after an earlier validation error, and the
            # other way round.
            [(2, LINE_FAULTS["unknown-endowment"]), (12, LINE_FAULTS["syntax"])],
            [(2, LINE_FAULTS["syntax"]), (12, LINE_FAULTS["incomplete"])],
        ],
        ids=[
            *(f"{fault}-first" for fault in LINE_FAULTS),
            *(f"{fault}-last" for fault in LINE_FAULTS),
            *(f"{fault}-both" for fault in LINE_FAULTS),
            "name-across-slices", "unowned-type",
            "syntax-after-validation", "validation-after-syntax",
        ],
    )
    def test_fault_gives_the_one_cpu_error(self, edits, tmp_path, capsys):
        text = load_text(edits)
        one = sliced_outcome(text, 1, tmp_path, capsys)
        assert one == (1, "", load_error(text))
        for cpus in (2, 3, 5):
            # Agent 2 is in the first slice, agent 12 in the last.
            cuts = _forked.line_cuts(text, cpus)
            assert slice_of(cuts, text, 2) == 0
            assert slice_of(cuts, text, 12) == len(cuts) - 2 > 0
            assert sliced_outcome(text, cpus, tmp_path, capsys) == one
        assert_no_child_left()

    @pytest.mark.parametrize(
        "header",
        ["houses: h1 h1 h2 h3 h4", "house: h1 h2 h3 h4", "# no houses line"],
    )
    def test_header_fault_gives_the_one_cpu_error(self, header, tmp_path, capsys):
        text = load_text(header=header)
        one = sliced_outcome(text, 1, tmp_path, capsys)
        assert one == (1, "", load_error(text))
        assert sliced_outcome(text, 3, tmp_path, capsys) == one
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["solve", "verify", "oracle"])
    @pytest.mark.parametrize(
        "text",
        [(FIXTURES / "worked.market").read_text(), load_text([(9, replaced(3, "h9"))])],
        ids=["worked", "fault"],
    )
    def test_commands_match_one_cpu(self, command, text, tmp_path, capsys):
        args = []
        if command == "verify":
            allocation = tmp_path / "a.alloc"
            allocation.write_text(WORKED_ALLOCATION)
            args.append(str(allocation))
        one = sliced_outcome(text, 1, tmp_path, capsys, command, *args)
        assert sliced_outcome(text, 3, tmp_path, capsys, command, *args) == one
        assert_no_child_left()

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("raise", "error: load helper exited with status 1\n"),
            ("kill", "error: load helper killed by signal 9\n"),
            ("kill-mid-write", "error: load helper killed by signal 9\n"),
        ],
    )
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_failed_helper_is_one_error_line(
        self, fault, message, cpus, tmp_path, monkeypatch, capsys
    ):
        # With three slices both helpers fail: the first is reported,
        # and the second, still running or done, is killed and reaped.
        check = _forked.checked_blocks

        class CutPipe:
            """Dies halfway through the first block, after its length."""

            def __init__(self, pipe):
                self.pipe = pipe
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.pipe.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    self.pipe.write(data[:len(data) // 2])
                    self.pipe.flush()
                    os.kill(os.getpid(), signal.SIGKILL)
                self.pipe.write(data)

        def cut_open(file, mode="r", **kwargs):
            pipe = open(file, mode, **kwargs)
            return CutPipe(pipe) if mode == "wb" else pipe

        def failing(*args):
            if fault == "raise":
                raise RuntimeError("checker failed")
            if fault == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            yield from check(*args)

        path = tmp_path / "m.market"
        path.write_text(load_text())
        patch_cpus(monkeypatch, cpus)
        monkeypatch.setattr(_forked, "checked_blocks", failing)
        if fault == "kill-mid-write":
            # The helper's pipe file, which ``Helpers.fork`` opens.
            monkeypatch.setattr(_forked, "open", cut_open, raising=False)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr() == ("", message)
        assert_no_child_left()

    @pytest.mark.parametrize(
        "fault, code", [(KeyboardInterrupt, None), (MemoryError, 1)]
    )
    def test_parent_fault_kills_running_helpers(
        self, fault, code, tmp_path, monkeypatch, capsys
    ):
        def slow_helper(*args):
            time.sleep(30)  # only a kill ends this helper early

        def parent_fault(houses, agents, **checked):
            raise fault

        path = tmp_path / "m.market"
        path.write_text(load_text())
        patch_cpus(monkeypatch, 3)
        monkeypatch.setattr(_forked, "checked_blocks", slow_helper)
        monkeypatch.setattr(fileformat, "validate_market", parent_fault)
        start = time.monotonic()
        if code is None:
            with pytest.raises(fault):
                main(["solve", str(path)])
        else:
            assert main(["solve", str(path)]) == code
            assert capsys.readouterr() == ("", "error: out of memory\n")
        assert time.monotonic() - start < 10
        assert_no_child_left()

    @pytest.mark.parametrize("missing", ["one_cpu", "no_fork"])
    def test_one_slice_does_not_fork(self, missing, tmp_path, monkeypatch, capsys):
        path = tmp_path / "m.market"
        path.write_text(load_text([(12, LINE_FAULTS["incomplete"])]))
        if missing == "one_cpu":
            patch_cpus(monkeypatch, 1)
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        else:
            monkeypatch.delattr(os, "fork")
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: agent 'a12' ranks 3 of 4 house types\n"
        )
        assert main(["solve", WORKED]) == 0
        assert capsys.readouterr().out == WORKED_ALLOCATION
        assert_no_child_left()


@pytest.mark.parametrize("command", ["gen", "solve", "solve-fault"])
@pytest.mark.parametrize(
    "call, cpus, refused",
    [("fork", 2, "every"), ("fork", 3, "every"), ("fork", 3, "second"),
     ("pipe", 3, "every")],
)
def test_refused_fork_gives_the_one_cpu_outcome(
    command, call, cpus, refused, tmp_path, monkeypatch, capsys
):
    # A process limit, say, refuses a helper: its slice is done in this
    # process, and any helper already forked is still read and reaped.
    if command == "gen":
        argv = gen_argv(30, 10, 2)
    else:
        path = tmp_path / "m.market"
        edits = [(12, LINE_FAULTS["incomplete"])] if command == "solve-fault" else []
        path.write_text(load_text(edits))
        argv = ["solve", str(path)]
    patch_cpus(monkeypatch, 1)
    one = main(argv), *capsys.readouterr()
    calls = []
    real = getattr(os, call)

    def refusing():
        calls.append(call)
        if refused == "every" or len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    patch_cpus(monkeypatch, cpus)
    monkeypatch.setattr(os, call, refusing)
    assert (main(argv), *capsys.readouterr()) == one
    assert len(calls) == cpus - 1
    assert_no_child_left()


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
        # A repeated size would print its row twice.
        assert main(["bench", "--sizes", "10,10", "--ratio", "1"]) == 1
        assert capsys.readouterr().out == ""
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
            (
                ["bench", "--sizes", "10,10", "--ratio", "1"],
                "error: invalid size list '10,10'\n",
            ),
            # An empty token is malformed, not skipped.
            (
                ["bench", "--sizes", ",10,,20,", "--ratio", "1"],
                "error: invalid size list ',10,,20,'\n",
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


# gen's text for 1200x600 seed 13: test_fileformat.py's frozen digest.
FROZEN_GEN_SHA256 = "067bc376bdec5a1ecd9e2ac6b651df04387cbce3a19568f207b1dbd45d2842cb"


def run_entry_point(argv, **kwargs):
    """``python -m houseswap ARGV`` with a buffered stdout, so its last
    write happens in the final flush, as under CI or any pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "houseswap", *argv],
        stderr=subprocess.PIPE, env=env, **kwargs,
    )


def test_module_entry_point_usage_error():
    proc = run_entry_point(["gen", "--agents", "x"], stdout=subprocess.PIPE)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == b"error: argument --agents: invalid int value: 'x'\n"


def test_module_entry_point_smoke():
    proc = run_entry_point(["solve", WORKED], stdout=subprocess.PIPE)
    assert proc.returncode == 0
    assert proc.stdout.decode() == WORKED_ALLOCATION
    assert proc.stderr == b""


def test_module_entry_point_gen_matches_frozen_digest():
    # The `file` benchmark's gen child, through the entry point that
    # skips teardown, into a pipe: every byte must still arrive.
    proc = run_entry_point(
        ["gen", "--agents", "1200", "--houses", "600", "--seed", "13"],
        stdout=subprocess.PIPE,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == FROZEN_GEN_SHA256


# Each command's output fits in stdout's buffer, so only the final
# flush writes it.
SMALL_OUTPUT_COMMANDS = [
    ["solve", WORKED],
    ["oracle", WORKED],
    ["bench", "--sizes", "5"],
    ["gen", "--agents", "1", "--houses", "1"],
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv", SMALL_OUTPUT_COMMANDS, ids=[argv[0] for argv in SMALL_OUTPUT_COMMANDS]
)
def test_failed_final_write_is_one_error_line(argv):
    with open("/dev/full", "wb") as full:
        proc = run_entry_point(argv, stdout=full)
    assert proc.returncode == 1
    assert proc.stderr == b"error: [Errno 28] No space left on device\n"


def test_write_to_closed_pipe_is_one_error_line():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_entry_point(["solve", WORKED], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "argv", [["solve", WORKED], ["bench", "--sizes", "5"]], ids=["solve", "bench"]
)
def test_closed_stdout_is_one_error_line(argv):
    # Started with file descriptor 1 closed, Python sets sys.stdout to
    # None; print() would then drop its text and report success.
    proc = run_entry_point(argv, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 1
    assert proc.stderr == b"error: [Errno 9] stdout is closed\n"


# A launcher that closes file descriptor 2 and then becomes
# ``python -m houseswap ARGV``; a shell's ``2>&-`` may not reach Python
# itself when a wrapper script stands in for the interpreter.
CLOSED_STDERR_LAUNCHER = (
    "import os, sys; os.close(2); "
    "os.execv(sys.executable, [sys.executable, '-m', 'houseswap', *sys.argv[1:]])"
)


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        (["solve", EMPTY_CORE], 2, ""),
        (["solve", "/nonexistent"], 1, ""),
        (["solve", WORKED, "--stats"], 0, WORKED_ALLOCATION),
    ],
    ids=["empty-core", "missing-file", "stats"],
)
def test_closed_stderr_drops_diagnostics(argv, code, stdout):
    # Started with file descriptor 2 closed, Python sets sys.stderr to
    # None, and print(..., file=None) would write to stdout instead.
    # Unbuffered, so a stray write shows even on a path that exits
    # without flushing stdout.
    env = {**os.environ, "PYTHONUNBUFFERED": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CLOSED_STDERR_LAUNCHER, *argv],
        stdout=subprocess.PIPE, env=env,
    )
    assert proc.returncode == code
    assert proc.stdout.decode() == stdout
