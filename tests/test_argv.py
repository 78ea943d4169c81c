"""The direct argv reader of `qta.cli` gives argparse's own `Namespace`.

`qta.cli.parse_args` reads a well-formed call straight off
`qta.cli.COMMANDS` (`_read_call`) and hands every other call to the
argparse parser built from the same table.  Drawn calls mix each
command's option names, good and bad values, `--json`, `-h`, `--`,
`--opt=value`, abbreviations, repeats and paths.
"""

import argparse
import contextlib
import importlib.util
import io
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import qta.cli
from qta.cli import COMMANDS, make_parser, parse_args

TOOLS = Path(__file__).resolve().parent.parent / "tools"

OPTIONS = sorted({name for _, arguments in COMMANDS.values()
                  for name, _ in arguments if name.startswith("-")})
VALUES = ["right", "left", "up", "B", "D", "3", "0", "10", "٣", " 7 ",
          "3_0", "two", "", "-1", "-3", "-", "--", "-x", "--map", "--json",
          "f.json", "a b", "reynolds-dim1", "validate", "=x"]
NOISE = ["-h", "--help", "--", "--js", "--ma", "--max", "--sid", "--s",
         "--map=B", "--side=left", "--max-degree=2", "--json=1", "-x",
         "--verbose", "-1"]
PATHS = ["f.json", "-", "dir/doc.json", "", "a b", "-f.json"]


def _outcome(parse, argv):
    """(vars of the Namespace or the exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@st.composite
def argvs(draw):
    """A call: an optional `--json`, a command (or not), then pieces that
    are option-value pairs, flags, operands and noise, in any order."""
    command = draw(st.sampled_from([*COMMANDS, "no-such", "-h"]))
    pieces = []
    if command in COMMANDS:
        for name, keywords in COMMANDS[command][1]:
            if draw(st.integers(0, 7)) == 0:
                continue  # left out, required or not
            if not name.startswith("-"):
                pieces.append([draw(st.sampled_from(PATHS))])
            elif keywords.get("action") == "store_true":
                pieces.append([name])
            else:
                good = keywords.get("choices") or (
                    ["3", "0", "12"] if keywords.get("type") else ["B", "D"])
                pieces.append([name, draw(st.sampled_from(good)
                                          | st.sampled_from(VALUES))])
    if draw(st.booleans()):
        pieces += draw(st.lists(
            st.sampled_from(OPTIONS).map(lambda t: [t])
            | st.tuples(st.sampled_from(OPTIONS),
                        st.sampled_from(VALUES)).map(list)
            | st.sampled_from(NOISE + PATHS).map(lambda t: [t]),
            min_size=1, max_size=2))
    pieces = draw(st.permutations(pieces))
    lead = ["--json"] if draw(st.booleans()) else []
    return lead + [command] + [token for piece in pieces for token in piece]


@settings(max_examples=500, deadline=None)
@given(argvs())
# values that start with "-", which argparse reads as a value, an option or
# an error, and a repeat, where argparse keeps the last value
@example(["classify", "--map", "--", "--side", "left", "f.json"])
@example(["classify", "--map", "-", "--side", "left", "f.json"])
@example(["classify", "--map", "-x", "--side", "left", "f.json"])
@example(["--json", "jacobi", "--side", "left", "--arity", "2", "--seed",
          "-3", "f.json"])
@example(["cohomology", "--map", "B", "--side", "left", "--max-degree",
          "-1", "f.json"])
@example(["mc", "--map", "B", "--side", "left", "--side", "right", "f.json"])
def test_the_direct_reader_gives_argparse_own_result(argv):
    full = _outcome(make_parser().parse_args, argv)
    read = qta.cli._read_call(list(argv))
    if read is not None:
        assert (vars(read), "", "") == full
    assert _outcome(parse_args, argv) == full


def _counted(monkeypatch):
    calls = []
    original = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        counting)
    return calls


WELL_FORMED = [
    ["--json", "validate", "f.json"],
    ["classify", "--map", "D", "--side", "right", "f.json"],
    ["--json", "twist", "f.json", "--side", "left", "--map", "B"],
    ["mc", "--json", "--map", "B", "--side", "left", "f.json"],
    ["--json", "cohomology", "--map", "B", "--side", "left",
     "--max-degree", "3", "f.json"],
    ["--json", "jacobi", "--side", "left", "--arity", "3", "--samples", "3",
     "--seed", "12", "f.json"],
    ["--json", "example", "reynolds-dim1"],
]


def test_a_well_formed_call_runs_no_argparse(monkeypatch):
    calls = _counted(monkeypatch)
    assert sorted({argv[argv[0] == "--json"] for argv in WELL_FORMED}) == \
        sorted(COMMANDS)
    for argv in WELL_FORMED:
        args = parse_args(argv)
        assert calls == [], argv
        calls.clear()
        assert vars(args) == vars(make_parser().parse_args(argv))
        calls.clear()


def _corpus_module():
    spec = importlib.util.spec_from_file_location(
        "cli_corpus", TOOLS / "cli_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_corpus_usage_error_runs_argparse(tmp_path, monkeypatch):
    # each corpus call that argparse ends (a usage error or -h) went to
    # argparse; each one the reader takes runs none of it
    calls = _counted(monkeypatch)
    ended = read = 0
    for argv, _ in _corpus_module().corpus(tmp_path):
        calls.clear()
        code, _, _ = _outcome(parse_args, argv)
        if not isinstance(code, dict):
            ended += 1
            assert calls, argv
        elif qta.cli._read_call(list(argv)) is not None:
            read += 1
            assert calls == [], argv
    assert ended >= 20 and read >= 200
