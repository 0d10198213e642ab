import argparse
import contextlib
import io
import json
import math
import re
import shlex
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from thermalent import cli, core, dynamics, entangle, geometry
from thermalent.cli import dispatch

ROOT = Path(__file__).resolve().parents[1]

#: every manifest carries exactly these fields
MANIFEST_KEYS = {"subcommand", "params", "seed", "version", "wall_time_s"}


def run(capsys, *argv):
    code = dispatch(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def result_of(out: str):
    return json.loads(out)["result"]


class TestClassify:
    def test_catalysis_initial_not_entanglable(self, capsys):
        code, out, _ = run(capsys, "classify", "--state", "0.4,0.25,0.33,0.02",
                           "--beta", "0", "--gap", "1")
        assert code == 0
        res = result_of(out)
        assert res["in_TE"] is False and res["in_E"] is False
        assert res["pi_star_point"] == [0.33, 0.4, 0.25, 0.02]

    def test_ground_state_entanglable_at_finite_beta(self, capsys):
        code, out, _ = run(capsys, "classify", "--state", "1,0,0,0", "--beta", "1")
        assert code == 0
        res = result_of(out)
        assert res["in_TE"] is True
        assert res["f_star"] == pytest.approx(-math.exp(-2), abs=1e-11)

    def test_rejects_unnormalized_without_renorm(self, capsys):
        code, _, err = run(capsys, "classify", "--state", "1,1,1,1", "--beta", "0")
        assert code == 2 and "error" in err

    def test_renorm_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "--state", "1,1,1,1", "--beta", "0",
                           "--renorm")
        assert code == 0
        assert result_of(out)["in_TE"] is False  # maximally mixed is the Gibbs state

    def test_rejects_nan_state(self, capsys):
        code, _, err = run(capsys, "classify", "--state", "nan,0.5,0.5,0")
        assert code == 2 and "finite" in err

    def test_underflowed_gibbs_weights_rejected(self, capsys):
        # at beta = 800 the gap-1 weights underflow to 0; reading them as
        # beta = inf would silently give that limit's f* (-0.81, not -0.49)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "classify", "--state", "0.1,0.2,0.3,0.4",
                               "--beta", "800")
        assert code == 2 and "inf" in err
        code, _, err = run(capsys, "critical-temp", "--state", "0.1,0.2,0.3,0.4",
                           "--range", "0:1000", "--scan", "50")
        assert code == 2 and "inf" in err


class TestValidationExits:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "classify", "--state", "1,0,0,0", "--warp", "9")
        assert code == 2

    def test_bad_state_string(self, capsys):
        code, _, err = run(capsys, "classify", "--state", "a,b,c,d")
        assert code == 2

    def test_missing_required(self, capsys):
        code, _, _ = run(capsys, "classify")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("boundary", "--renorm", "--grid", "2"),
        ("jc", "--initial", "11", "--betaE", "10", "--renorm"),
        ("catalysis-demo", "--renorm"),
        ("critical-temp", "--beta-s", "5", "--beta", "3"),
    ])
    def test_options_a_subcommand_would_ignore(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ("critical-temp", "--beta-s", "5", "--scan", "-5", "--renorm", "--range", "nonsense"),
        ("critical-temp", "--beta-s", "5", "--scan", "100"),
        ("critical-temp", "--beta-s", "5", "--range", "0:1"),
        ("critical-temp", "--beta-s", "5", "--renorm"),
        ("volume", "--set", "E", "--state", "0.4,0.25,0.33,0.02"),
        ("volume", "--set", "E", "--renorm"),
        ("jc", "--initial", "00", "--betaE", "1", "--betaE-range", "1:2:2"),
        ("cone", "--state", "0.7,0.2,0.1", "--energies", "0,1,2", "--gap", "5"),
        ("curve", "--state", "0.7,0.2,0.1", "--energies", "0,1,2", "--gap", "5"),
        # an empty value names no energies, and no file
        ("cone", "--state", "0.4,0.25,0.33,0.02", "--energies="),
        ("classify", "--state", "0.4,0.25,0.33,0.02", "--out="),
        ("boundary", "--grid", "2", "--mesh-out="),
    ])
    def test_options_a_run_would_ignore(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err

    @pytest.mark.parametrize("argv", [
        ("classify", "--state", "1,0,0,0"),
        ("volume", "--set", "E", "--samples", "100"),
        ("critical-temp", "--beta-s", "5"),
        ("mtp", "--state", "0,0,0,1"),
        ("catalysis-demo",),
    ])
    def test_csv_only_where_tabular(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--format", "csv")
        assert code == 2 and "invalid choice" in err


class TestSizeCaps:
    """Sizes that would allocate without bound exit 2 before allocating."""

    def test_low_betae_fock_truncation(self, capsys):
        # suggest_n_max(1e-6) = 18,420,682: a 2048 x 18.4M transfer grid
        code, _, err = run(capsys, "jc", "--initial", "00", "--betaE", "1e-6",
                           "--allow-low-betae")
        assert code == 2 and "8191" in err

    def test_explicit_nmax(self, capsys):
        code, _, err = run(capsys, "jc", "--initial", "00", "--betaE", "1",
                           "--nmax", "100000000")
        assert code == 2 and "8191" in err

    def test_nmax_zero_is_not_the_default(self, capsys):
        code, _, err = run(capsys, "jc", "--initial", "11", "--betaE", "10", "--nmax", "0")
        assert code == 2 and "8191" in err

    def test_boundary_grid(self, capsys):
        code, _, err = run(capsys, "boundary", "--grid", "100000")
        assert code == 2 and "256" in err

    def test_boundary_grid_at_infinite_beta(self, capsys):
        code, _, err = run(capsys, "boundary", "--beta", "inf", "--grid", "100000")
        assert code == 2 and "256" in err

    @pytest.mark.parametrize("iters", ["0", "53", "1000000000"])
    def test_boundary_iters(self, capsys, iters):
        # a bracket narrower than 2^-52 along a ray cannot be resolved
        code, _, err = run(capsys, "boundary", "--grid", "4", "--iters", iters)
        assert code == 2 and "1..52" in err

    @pytest.mark.parametrize("argv, limit", [
        # a Python set of 1e9 floats
        (("curve", "--state", "0.5,0.5,0,0", "--points", "1000000000"), "0..100000,"),
        # np.linspace of 1e9 points, then 1e9 protocol runs
        (("jc", "--initial", "11", "--betaE-range", "0.2:6:1000000000"), "1..1000,"),
        # a list of 1e9 Gibbs contexts
        (("critical-temp", "--state", "0.12,0.38,0.12,0.38", "--range", "0:2",
          "--scan", "1000000000"), "2..100000,"),
        # an ordering of 257 levels, whose pairwise comparisons grow as the square
        (("curve", "--state", ",".join(["1"] + ["0"] * 256)), "at most 256 levels,"),
    ])
    def test_sizes_named_in_the_error(self, capsys, argv, limit):
        code, _, err = run(capsys, *argv)
        assert code == 2 and limit in err


class TestCriticalTempInputs:
    """Scan inputs that have no meaning exit 2 before the scan."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("extra, message", [
        (("--range", "0:2", "--gap", "-1"), "gap must be positive"),
        (("--range", "0:2", "--gap", "0"), "gap must be positive"),
        (("--range", "0:inf"), "must be finite"),
        # exp(-710) is below the smallest normal double: the scan's top end
        # is checked, so no row reaches the kernel with a zero weight
        (("--range", "350:355"), "underflow"),
    ])
    def test_rejected(self, capsys, extra, message):
        code, out, err = run(capsys, "critical-temp", "--state", "0.12,0.38,0.12,0.38", *extra)
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("extra, message", [
        (("--beta-s", "nan"), "beta_s must be non-negative"),
        (("--beta-s", "5", "--gap", "nan"), "gap must be positive"),
        # exp(-800) underflows to 0, below the smallest normal double
        (("--beta-s", "800"), "at most 708.396"),
        # log(3)/gap overflows; so does beta_s + log(3)/gap at a normal gap
        (("--beta-s", "1", "--gap", "1e-320"), "(--beta-s) = 1 and gap (--gap)"),
        (("--beta-s", "1.7e308", "--gap", "2.3e-308"), "(--beta-s) = 1.7e+308 and gap (--gap)"),
    ])
    def test_thermal_rejected(self, capsys, extra, message):
        code, out, err = run(capsys, "critical-temp", *extra)
        assert code == 2 and out == "" and message in err


class TestHugeBetaE:
    """Products beta * E beyond the range of a double exit 2 without a numpy
    warning (the suite turns RuntimeWarnings into errors)."""

    @pytest.mark.parametrize("argv, message", [
        (("curve", "--state", "0.5,0.5", "--energies=-1e308,1e308", "--beta", "10"),
         "spread must be finite"),
        (("curve", "--state", "0.5,0.5", "--energies=-1e308,1e308", "--beta", "inf"),
         "spread must be finite"),
        (("classify", "--state", "0.4,0.25,0.33,0.02", "--beta", "1e308"), "underflow"),
        (("cone", "--state", "0.5,0.5", "--energies=0,1e300", "--beta", "1e10"), "underflow"),
    ])
    def test_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and message in err


class TestRenorm:
    @pytest.mark.parametrize("sub", ["classify", "cone"])
    def test_overflowing_sum(self, capsys, sub):
        code, out, err = run(capsys, sub, "--state", "1e308,1e308,0,0", "--renorm",
                             "--format", "json")
        assert code == 0 and err == ""
        manifest_state = json.loads(out)["manifest"]["params"]["state"]
        assert manifest_state == "1e308,1e308,0,0"
        if sub == "cone":
            assert result_of(out)["origin"] == [0.5, 0.5, 0.0, 0.0]

    @pytest.mark.parametrize("state", ["inf,0,0,0", "-inf,1,1,0", "nan,1,1,0"])
    def test_non_finite_entry(self, capsys, state):
        code, out, err = run(capsys, "classify", f"--state={state}", "--renorm")
        assert code == 2 and out == "" and "finite" in err


#: the extreme values of a double, fed to every float-valued input
SWEEP_VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-0.0")
SWEEP_STATE = "0.4,0.25,0.33,0.02"

#: each subcommand with a float option, and the arguments that make it run;
#: values go in as --option=value, so that argparse reads "-inf" as a value
SWEEP_BASES = [
    ("classify", "--state", SWEEP_STATE),
    ("cone", "--state", SWEEP_STATE),
    ("curve", "--state", SWEEP_STATE),
    ("volume", "--set", "TNE", "--samples", "1000", "--threads", "1"),
    ("volume", "--set", "ENT_CONE", "--state", SWEEP_STATE, "--samples", "1000",
     "--threads", "1"),
    ("boundary",),
    ("critical-temp", "--state", SWEEP_STATE),
    ("mtp", "--state", SWEEP_STATE),
]


def sweep_argvs():
    for v in SWEEP_VALUES:
        for base in SWEEP_BASES:
            for opt in ("--beta", "--gap"):
                if not (base[0] == "critical-temp" and opt == "--beta"):
                    yield (*base, f"{opt}={v}")
            if "--state" in base:
                i = base.index("--state")
                for state in (f"{v},0.25,0.33,0.02", f"{v},{v},0,0"):
                    for renorm in ((), ("--renorm",)):
                        yield (*base[:i], f"--state={state}", *base[i + 2:], *renorm)
        yield ("critical-temp", f"--beta-s={v}")
        yield ("critical-temp", "--beta-s", "1", f"--gap={v}")
        yield ("critical-temp", "--state", SWEEP_STATE, f"--range={v}:1")
        yield ("critical-temp", "--state", SWEEP_STATE, f"--range=0:{v}")
        yield ("cone", "--state", SWEEP_STATE, f"--energies=0,1,1,{v}")
        yield ("curve", "--state", SWEEP_STATE, f"--energies={v},1,1,2")
        for allow in ((), ("--allow-low-betae",)):
            yield ("jc", "--initial", "00", f"--betaE={v}", *allow)
            yield ("jc", "--initial", "11", f"--betaE={v}", "--nmax", "20", *allow)
            yield ("jc", "--initial", "00", f"--betaE-range={v}:1:2", *allow)
            yield ("jc", "--initial", "00", f"--betaE-range=1:{v}:2", *allow)
    # a normal gap whose beta_s + log(3)/gap overflows
    yield ("critical-temp", "--beta-s", "1.7e308", "--gap", "2.3e-308")


def result_numbers(out: str) -> list:
    """Every number of a run's ``result``, or of its CSV rows; the manifest,
    which echoes the inputs, is left out."""
    if out.startswith("# manifest: "):
        return [float(v) for line in out.splitlines()[2:] for v in line.split(",")]

    def walk(obj):
        if isinstance(obj, dict):
            obj = list(obj.values())
        if isinstance(obj, list):
            return [x for v in obj for x in walk(v)]
        return [obj] if isinstance(obj, float) else []
    return walk(result_of(out))


class TestInputSweep:
    """Every float input of every subcommand takes each extreme double and
    gets a result or a validation error: exit 0 or 2, never 1, and no numpy
    RuntimeWarning (which ``dispatch`` would report as an internal error).
    A result holds only finite numbers: JSON has no inf or NaN."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exits_0_or_2(self, capsys):
        t0 = time.perf_counter()
        failed, non_finite = [], []
        for argv in sweep_argvs():
            code, out, err = run(capsys, *argv)
            if code not in (0, 2):
                failed.append((shlex.join(argv), err.strip()))
            elif code == 0 and not all(map(math.isfinite, result_numbers(out))):
                non_finite.append(shlex.join(argv))
        assert failed == []
        assert non_finite == []
        assert time.perf_counter() - t0 < 10.0


#: the edge doubles of the fuzzer, as typed on a command line, drawn as often
#: as the ordinary ones
EDGE_FLOATS = ("0", "-0", "5e-324", "1e-320", "1e-300", "1e-17", "1e308", "inf", "-inf", "nan",
               "-1", "709.8", "745")
ORDINARY_FLOATS = ("0.5", "1", "2")

#: the fuzzer's integers: small and negative ones for every size, and for a
#: capped size also its cap, one past it, and values past 64 bits; the
#: uncapped ``mtp --budget`` takes only the small ones, and ``volume
#: --samples`` not its cap, which is minutes of work
SMALL_INTS = (-1, 0, 1, 2, 3)
SIZE_CAPS = {"points": cli.MAX_POINTS, "scan": entangle.MAX_SCAN, "grid": geometry.MAX_GRID,
             "iters": geometry.MAX_ITERS, "threads": geometry.MAX_THREADS,
             "nmax": dynamics.MAX_N_MAX, "seed": 2**64 - 1, "samples": geometry.MAX_SAMPLES}

#: text fields (states, energies, ranges) are lists of these tokens, so they
#: come with wrong arity, faces, ties and sums other than 1; lists of the
#: populations alone are states, of 4 levels or of 2 to 5, most of them
#: valid once renormalized, and the states are normalized ones, faces and
#: ties among them
POPULATIONS = ("0", "0.02", "0.1", "0.25", "0.33", "0.4", "0.5", "1", "5e-324", "1e-320")
TEXT_TOKENS = EDGE_FLOATS + ORDINARY_FLOATS + POPULATIONS + ("1000", "1001", "x", "")
STATES = ("0.4,0.25,0.33,0.02", "0,0,0,1", "0.25,0.25,0.25,0.25", "0.5,0,0.5,0", "0.7,0.2,0.1")

#: stands for the example's scratch directory in a file option's value
SCRATCH = "<scratch>"

#: options a run rejects beside a member of a required exclusive group, by
#: the member's destination: ``critical-temp --beta-s`` reads none of the
#: scan's options, so the fuzzer draws none of them with it
REJECTED_WITH = {"beta_s": ("scan", "range", "renorm")}

#: each subcommand's parser, by name
SUBPARSERS, = (a.choices for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))


def option_values(action: argparse.Action):
    """Values, as typed, for one option of ``build_parser()``, from its type,
    choices and destination alone."""
    if action.dest.endswith("out"):
        return st.just(f"{SCRATCH}/{action.dest}")
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is float:
        return st.one_of(st.sampled_from(EDGE_FLOATS), st.sampled_from(ORDINARY_FLOATS))
    if action.type is int:
        cap = SIZE_CAPS.get(action.dest)
        big = (cap, cap + 1, -(2**63), 2**64) if cap else ()
        big = big[1:] if action.dest == "samples" else big
        return st.sampled_from(SMALL_INTS + big).map(str)
    tokens = st.lists(st.sampled_from(TEXT_TOKENS), min_size=1, max_size=6)
    states = [st.lists(st.sampled_from(POPULATIONS), min_size=k, max_size=n).map(",".join)
              for k, n in ((4, 4), (2, 5))]
    return st.one_of(st.builds(str.join, st.sampled_from([",", ":"]), tokens), *states,
                     st.sampled_from(STATES))


@st.composite
def cli_argvs(draw, name: str):
    """``(argv, format)``: the subcommand ``name`` and some of its options
    (each required one, and exactly one member of each required mutually
    exclusive group, with none of the options ``REJECTED_WITH`` it), each
    with a drawn value or, for a flag, alone, and the output format that the
    arguments ask for."""
    parser = SUBPARSERS[name]
    argv, fmt = [name], parser.get_default("format")
    chosen, left_out = set(), set()
    for group in parser._mutually_exclusive_groups:
        if group.required:
            member = draw(st.sampled_from(group._group_actions))
            chosen.add(member)
            left_out.update(a for a in group._group_actions if a is not member)
            left_out.update(a for a in parser._actions
                            if a.dest in REJECTED_WITH.get(member.dest, ()))
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction) or action in left_out or not (
                action.required or action in chosen or draw(st.booleans())):
            continue
        if action.nargs == 0:
            argv.append(action.option_strings[-1])
            continue
        value = draw(option_values(action))
        fmt = value if action.dest == "format" else fmt
        # --option=value, so that argparse reads "-inf" as a value
        argv.append(f"{action.option_strings[-1]}={value}")
    return argv, fmt


def parses(text: str, fmt: str) -> bool:
    """Whether ``text`` is a run's output in the format ``fmt``: JSON with a
    manifest and a result, or CSV under a manifest comment and a header,
    every row as wide as the header and every cell a number."""
    if fmt == "json":
        return set(json.loads(text)) == {"manifest", "result"}
    first, header, *rows = text.split("\n")
    if not first.startswith("# manifest: ") or rows.pop() != "":
        return False
    json.loads(first.removeprefix("# manifest: "))
    cells = [row.split(",") for row in rows]
    [float(v) for row in cells for v in row]  # ValueError on a cell that is not a number
    return all(len(row) == len(header.split(",")) for row in cells)


@pytest.mark.parametrize("name", sorted(SUBPARSERS))
@settings(max_examples=15, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzz_exits_0_or_2_and_output_parses(name, data):
    """Arguments drawn from ``build_parser()``'s own actions, so that a new
    subcommand or option is covered without editing this test, run
    in-process with every warning an error: each exits 0 with output that
    parses in its format, or 2 with no output."""
    argv, fmt = data.draw(cli_argvs(name))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = [a.replace(SCRATCH, tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
        text = out.getvalue()
        outfile = [a.split("=", 1)[1] for a in argv if a.startswith("--out=")]
        if code == 0 and outfile:
            assert text == ""
            text = Path(outfile[0]).read_text(encoding="utf-8")
    assert code in (0, 2), (argv, err.getvalue())
    assert (text == "") if code == 2 else parses(text, fmt), (argv, text[:200])


def traced_peak(run) -> tuple:
    """What ``run()`` returns, and ``tracemalloc``'s peak over it in bytes."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """The largest allowed sizes stay within a bound on the memory that
    Python and numpy allocate (``tracemalloc``'s peak).  Each bound is a
    measured peak plus 5 %: 46.3 MB for ``boundary``, whose peak is its
    output text, 109.54 MB for its JSON, which builds no CSV table, 37.82 MB
    for ``tne_boundary`` within them, and 11.22 MB for ``critical-temp``.  A
    CSV boundary that holds one more (2 MAX_GRID^2 + 2, 4) array, 4.2 MB,
    to the end fails."""

    @pytest.mark.parametrize("argv, small, peak", [
        (("boundary", "--grid", str(geometry.MAX_GRID), "--iters", str(geometry.MAX_ITERS)),
         ("boundary", "--grid", "2"), 46.3e6),
        (("boundary", "--grid", str(geometry.MAX_GRID), "--iters", str(geometry.MAX_ITERS),
          "--format", "json"), ("boundary", "--grid", "2", "--format", "json"), 109.54e6),
        (("critical-temp", "--state", "0.12,0.38,0.12,0.38", "--range", "0:20",
          "--scan", str(entangle.MAX_SCAN)),
         ("critical-temp", "--state", "0.12,0.38,0.12,0.38", "--scan", "10"), 11.22e6),
    ], ids=["boundary", "boundary-json", "critical-temp"])
    def test_command(self, tmp_path, argv, small, peak):
        out = str(tmp_path / "out")
        # a small run first, so that one-time allocations are not counted
        assert dispatch([*small, "--out", out]) == 0
        code, traced = traced_peak(lambda: dispatch([*argv, "--out", out]))
        assert code == 0 and traced <= 1.05 * peak

    def test_boundary_cloud(self):
        ctx = core.two_qubit_context(1.0)
        geometry.tne_boundary(ctx, 2, 30)
        run = lambda: geometry.tne_boundary(ctx, geometry.MAX_GRID, geometry.MAX_ITERS)
        assert traced_peak(run)[1] <= 1.05 * 37.82e6


class TestNegativeSizes:
    """Sizes below their least value exit 2 instead of being read as another size."""

    @pytest.mark.parametrize("argv", [
        ("curve", "--state", "0.5,0.5,0,0", "--points", "-5"),
        ("volume", "--set", "E", "--samples", "100", "--threads", "0"),
        ("volume", "--set", "E", "--samples", "100", "--threads", "-3"),
    ])
    def test_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")


class TestParserReuse:
    """One parser serves every dispatch of a process, with the output of a
    freshly built one."""

    SEQUENCE = (
        ("classify", "--state", "0.4,0.25,0.33,0.02", "--beta", "1"),
        ("cone", "--state", "0,0,0,1", "--beta", "1", "--format", "csv"),
        ("classify", "--state", "1,0,0,0", "--warp", "9"),
        ("classify", "--state", "1,0,0,0", "--beta", "1"),
        ("curve", "--state", "0.7,0.2,0.1", "--energies", "0,1,2", "--beta", "0.5",
         "--points", "5"),
        ("curve", "--state", "0.5,0.5,0,0", "--points", "-5"),
        ("volume", "--set", "TNE", "--samples", "2000", "--seed", "4", "--threads", "1"),
        ("critical-temp", "--beta-s", "5"),
        ("jc", "--initial", "11", "--betaE", "10", "--nmax", "4"),
    )

    def outputs(self, capsys, monkeypatch, fresh):
        outs = []
        for argv in self.SEQUENCE:
            if fresh:
                monkeypatch.setattr(cli, "_PARSER", None)
            code, out, err = run(capsys, *argv)
            outs.append((code, re.sub(r'"wall_time_s": [^,}\n]+', "", out), err))
        return outs

    def test_same_bytes_as_fresh_parsers(self, capsys, monkeypatch):
        reused = self.outputs(capsys, monkeypatch, fresh=False)
        parser = cli._PARSER
        assert self.outputs(capsys, monkeypatch, fresh=False) == reused
        assert cli._PARSER is parser
        fresh = self.outputs(capsys, monkeypatch, fresh=True)
        assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 2, 0, 0, 0]
        assert fresh == reused


class TestVolume:
    def test_reproducible_result_bytes(self, capsys):
        args = ("volume", "--set", "TNE", "--beta", "0.5", "--samples", "20000",
                "--seed", "5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["result"] == r2["result"]
        assert r1["manifest"]["params"] == r2["manifest"]["params"]

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("THERMALENT_SEED", "99")
        code, out, _ = run(capsys, "volume", "--set", "E", "--samples", "5000")
        assert code == 0
        assert json.loads(out)["manifest"]["seed"] == 99
        assert result_of(out)["seed"] == 99

    def test_seed_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("THERMALENT_SEED", "99")
        code, out, _ = run(capsys, "volume", "--set", "E", "--samples", "5000",
                           "--seed", "4")
        assert code == 0
        manifest = json.loads(out)["manifest"]
        assert manifest["seed"] == 4 and result_of(out)["seed"] == 4
        assert "seed" not in manifest["params"]

    def test_seed_defaults_to_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("THERMALENT_SEED", raising=False)
        code, out, _ = run(capsys, "volume", "--set", "E", "--samples", "5000")
        assert code == 0
        assert json.loads(out)["manifest"]["seed"] == 0

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits(self, capsys, monkeypatch, seed):
        monkeypatch.delenv("THERMALENT_SEED", raising=False)
        code, out, err = run(capsys, "volume", "--set", "E", "--samples", "100", "--seed", seed)
        assert code == 2 and out == "" and "seed" in err
        monkeypatch.setenv("THERMALENT_SEED", seed)
        code, out, err = run(capsys, "volume", "--set", "E", "--samples", "100")
        assert code == 2 and out == "" and "seed" in err

    def test_seed_at_the_top_of_64_bits(self, capsys):
        code, out, _ = run(capsys, "volume", "--set", "E", "--samples", "100",
                           "--seed", str(2**64 - 1))
        assert code == 0 and json.loads(out)["manifest"]["seed"] == 2**64 - 1

    def test_ent_cone_requires_state(self, capsys):
        code, _, err = run(capsys, "volume", "--set", "ENT_CONE", "--samples", "100")
        assert code == 2

    def test_ent_cone_origin_dimension(self, capsys):
        code, out, err = run(capsys, "volume", "--set", "ENT_CONE", "--state", "0.5,0.5",
                             "--samples", "100")
        assert code == 2 and out == "" and "dimension mismatch" in err

    def test_threads_do_not_change_result(self, capsys):
        base = ("volume", "--set", "E", "--samples", "150000", "--seed", "3")
        _, a, _ = run(capsys, *base, "--threads", "1")
        _, b, _ = run(capsys, *base, "--threads", "4")
        assert result_of(a)["fraction"] == result_of(b)["fraction"]


class TestConeAndCurve:
    def test_cone_json_schema(self, capsys):
        code, out, _ = run(capsys, "cone", "--state", "0,0,0,1", "--beta", "0")
        assert code == 0
        res = result_of(out)
        assert res["origin"] == [0, 0, 0, 1]
        assert len(res["extremes"]) == 4
        first = res["extremes"][0]
        assert sorted(first["order"]) == [1, 2, 3, 4]
        assert len(first["probs"]) == 4

    def test_cone_custom_energies(self, capsys):
        code, out, _ = run(capsys, "cone", "--state", "0.7,0.2,0.1",
                           "--energies", "0,1,2", "--beta", "0.5")
        assert code == 0
        # two of the 3! orderings coincide for this state
        extremes = result_of(out)["extremes"]
        assert len(extremes) == 5
        pts = np.array([e["probs"] for e in extremes])
        gaps = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=-1)
        assert gaps[~np.eye(5, dtype=bool)].min() > 1e-6

    def test_curve_csv_default(self, capsys):
        code, out, _ = run(capsys, "curve", "--state", "0.7,0.2,0.1",
                           "--energies", "0,1,2", "--beta", "0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# manifest:")
        assert lines[1] == "x,y"
        rows = [tuple(map(float, l.split(","))) for l in lines[2:]]
        assert rows[0] == (0.0, 0.0)
        assert rows[-1][1] == pytest.approx(1.0, abs=1e-9)

    def test_curve_extra_points_json(self, capsys):
        code, out, _ = run(capsys, "curve", "--state", "0.5,0.5,0,0", "--beta", "1",
                           "--points", "10", "--format", "json")
        assert code == 0
        res = result_of(out)
        assert 0.5 in res["x"]
        assert len(res["x"]) >= 11


class TestJc:
    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "jc", "--initial", "11", "--betaE", "10",
                           "--format", "json")
        assert code == 0
        rows = result_of(out)
        assert rows[0]["negativity"] >= 0.45

    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "jc", "--initial", "00", "--betaE-range", "1:3:3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "betaE,optimal_time,ground_pop,negativity"
        assert len(lines) == 5

    def test_low_betae_guard(self, capsys):
        code, _, err = run(capsys, "jc", "--initial", "00", "--betaE", "0.05")
        assert code == 2 and "allow-low-betae" in err

    @pytest.mark.parametrize("argv", [
        ("--betaE", "1e-320"),
        ("--betaE-range", "1e-320:1:2"),
        ("--betaE", "1e-320", "--nmax", "20"),
    ])
    def test_unbounded_truncation_names_the_cap(self, capsys, argv):
        code, out, err = run(capsys, "jc", "--initial", "00", *argv, "--allow-low-betae")
        assert code == 2 and out == "" and "8191" in err

    @pytest.mark.parametrize("argv", [
        ("--betaE", "nan"),
        ("--betaE", "nan", "--allow-low-betae"),
        ("--betaE", "nan", "--nmax", "20"),
        ("--betaE", "-0.0", "--allow-low-betae"),
        ("--betaE", "-0.0", "--nmax", "20", "--allow-low-betae"),
    ])
    def test_beta_e_must_be_positive(self, capsys, argv):
        code, out, err = run(capsys, "jc", "--initial", "00", *argv)
        assert code == 2 and out == "" and "must be positive" in err

    @pytest.mark.parametrize("argv", [
        ("--initial", "00", "--betaE", "inf"),
        ("--initial", "00", "--betaE", "inf", "--allow-low-betae"),
        ("--initial", "11", "--betaE", "inf", "--nmax", "20"),
        ("--initial", "11", "--betaE", "inf", "--nmax", "20", "--allow-low-betae"),
    ])
    def test_beta_e_must_be_finite(self, capsys, argv):
        code, out, err = run(capsys, "jc", *argv)
        assert code == 2 and out == "" and "must be finite" in err

    @pytest.mark.parametrize("sweep", ["inf:1:2", "1:-inf:2", "nan:1:2", "1e308:-1e308:3"])
    def test_sweep_ends_must_be_finite(self, capsys, sweep):
        code, out, err = run(capsys, "jc", "--initial", "00", "--betaE-range", sweep,
                             "--allow-low-betae")
        assert code == 2 and out == "" and "finite" in err

    def test_low_betae_override(self, capsys):
        code, out, _ = run(capsys, "jc", "--initial", "00", "--betaE", "0.15",
                           "--allow-low-betae", "--format", "json")
        assert code == 0


class TestOtherSubcommands:
    def test_mtp(self, capsys):
        code, out, _ = run(capsys, "mtp", "--state", "0,0,0,1", "--beta", "2",
                           "--budget", "2000")
        assert code == 0
        res = result_of(out)
        assert res["best_f"] < 0 and res["entangling"] is True
        assert res["schedule"]

    def test_catalysis_demo(self, capsys):
        code, out, _ = run(capsys, "catalysis-demo")
        assert code == 0
        res = result_of(out)
        assert res["status"] == "PASS"
        assert res["system_final"] == ["949/2000", "613/5000", "771/2500", "189/2000"]

    def test_critical_temp_thermal(self, capsys):
        code, out, _ = run(capsys, "critical-temp", "--beta-s", "5")
        assert code == 0
        res = result_of(out)
        assert res["beta_c1"] == pytest.approx(3.9058746, abs=1e-6)
        assert res["beta_c2"] > res["beta_c1"]

    @pytest.mark.parametrize("beta_s, printed", [
        ("77.5", 78.5986122887), ("100", 101.098612289), ("373", 374.098612289),
        ("700", 701.098612289), ("708.39", 709.488612289)])
    def test_critical_temp_cold_side(self, capsys, beta_s, printed):
        # the root of the hot-system quartic, about beta_s + log(3) this cold
        code, out, _ = run(capsys, "critical-temp", "--beta-s", beta_s)
        assert code == 0 and result_of(out)["beta_c2"] == printed

    def test_critical_temp_scan(self, capsys):
        code, out, _ = run(capsys, "critical-temp", "--state", "0.12,0.38,0.12,0.38",
                           "--range", "0:2", "--scan", "300")
        assert code == 0
        roots = result_of(out)["crossings"]
        assert len(roots) == 1 and abs(roots[0] - 0.21) < 0.02

    def test_critical_temp_requires_one_mode(self, capsys):
        code, _, _ = run(capsys, "critical-temp")
        assert code == 2

    def test_boundary_with_mesh(self, capsys, tmp_path):
        mesh = tmp_path / "cloud.obj"
        out_file = tmp_path / "cloud.csv"
        code, _, _ = run(capsys, "boundary", "--beta", "0", "--grid", "6",
                         "--iters", "20", "--mesh-out", str(mesh),
                         "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert text.split("\n")[1] == "p1,p2,p3,p4"
        assert mesh.read_text().startswith("v ")

    def test_boundary_json_points_are_rows(self, capsys):
        code, out, _ = run(capsys, "boundary", "--format", "json", "--beta", "0",
                           "--grid", "6", "--iters", "10")
        assert code == 0
        res = result_of(out)
        assert res["n_points"] == len(res["points"]) > 0
        assert all(len(row) == 4 and abs(sum(row) - 1) < 1e-9 for row in res["points"])

    def test_out_file_json(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "classify", "--state", "1,0,0,0", "--beta", "1",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["result"]["in_TE"] is True


class TestFormatting:
    def test_floats_at_12_significant_digits(self, capsys):
        _, out, _ = run(capsys, "classify", "--state", "1,0,0,0", "--beta", "1")
        res = result_of(out)
        assert res["f_star"] == float(f"{-math.exp(-2):.12g}")

    def test_library_objects_encoded(self):
        from fractions import Fraction

        est = geometry.VolumeEstimate(0.1234567890123456, 0.5, 10, 3)
        assert list(json.loads(cli._json(est))) == ["fraction", "std_error", "n_samples", "seed"]
        assert json.loads(cli._json([est, core.PopVector([0.5, 0.5]), Fraction(3, 4)])) == [
            {"fraction": 0.123456789012, "std_error": 0.5, "n_samples": 10, "seed": 3},
            [0.5, 0.5], "3/4"]

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0


class TestManifest:
    """The manifest's params are the parsed arguments less --format and --out;
    the seed has its own field, set only by volume."""

    @pytest.mark.parametrize("argv, params", [
        (("classify", "--state", "1,0,0,0", "--beta", "1"),
         {"state": "1,0,0,0", "renorm": False, "beta": 1.0, "gap": 1.0}),
        (("cone", "--state", "0,0,0,1", "--beta", "inf"),
         {"state": "0,0,0,1", "renorm": False, "beta": math.inf, "gap": 1.0,
          "energies": None}),
        (("curve", "--state", "0.5,0.5,0,0", "--points", "4"),
         {"state": "0.5,0.5,0,0", "renorm": False, "beta": 0.0, "gap": 1.0,
          "energies": None, "points": 4}),
        (("volume", "--set", "E", "--samples", "1000", "--seed", "3", "--threads", "1"),
         {"set": "E", "state": None, "renorm": False, "beta": 0.0, "gap": 1.0,
          "samples": 1000, "threads": 1}),
        (("boundary", "--grid", "2", "--iters", "3", "--format", "json"),
         {"beta": 0.0, "gap": 1.0, "grid": 2, "iters": 3, "mesh_out": None}),
        (("critical-temp", "--beta-s", "5"),
         {"gap": 1.0, "beta_s": 5.0, "state": None, "renorm": False, "range": None,
          "scan": None}),
        (("critical-temp", "--state", "0.12,0.38,0.12,0.38"),
         {"gap": 1.0, "beta_s": None, "state": "0.12,0.38,0.12,0.38", "renorm": False,
          "range": "0:5", "scan": 400}),
        (("jc", "--initial", "11", "--betaE", "10", "--nmax", "20", "--format", "json"),
         {"initial": "11", "betaE": 10.0, "betaE_range": None, "nmax": 20,
          "allow_low_betae": False}),
        (("mtp", "--state", "0,0,0,1", "--beta", "2", "--budget", "200"),
         {"state": "0,0,0,1", "renorm": False, "beta": 2.0, "gap": 1.0,
          "strategy": "greedy", "budget": 200}),
        (("catalysis-demo",), {}),
    ])
    def test_fields_and_params(self, capsys, argv, params):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        if out.startswith("# manifest: "):  # CSV
            manifest = json.loads(out.split("\n")[0].removeprefix("# manifest: "))
        else:
            manifest = json.loads(out)["manifest"]
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["subcommand"] == argv[0]
        assert manifest["params"] == params
        assert manifest["seed"] == (3 if argv[0] == "volume" else None)
        assert manifest["wall_time_s"] >= 0


def readme_cli_lines():
    """The ``thermalent ...`` lines of the README's CLI block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("thermalent ")]


class TestReadmeExamples:
    """Every line of the README's CLI block runs and exits 0, with the files
    it writes sent to a temporary directory."""

    def test_block_is_read(self):
        assert len(readme_cli_lines()) >= 10

    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_example_exits_0(self, tmp_path, line):
        argv = shlex.split(line)[1:]
        for i, arg in enumerate(argv[:-1]):
            if arg in ("--out", "--mesh-out"):
                argv[i + 1] = str(tmp_path / argv[i + 1])
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        assert dispatch(argv) == 0
        assert all(f.stat().st_size > 0 for f in tmp_path.iterdir())
