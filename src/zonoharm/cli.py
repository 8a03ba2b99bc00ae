"""Command-line interface.

usage: zonoharm analyze-graph PATH [--json]
       zonoharm analyze-arrangement PATH [--json]
       zonoharm random-suite [--seed N] [--count N] [--max-edges N] [--json]

  analyze-graph PATH        full pipeline on a directed-graph file
  analyze-arrangement PATH  full pipeline on an arrangement file
  random-suite              seeded random cross-verification stream:
                            --count instances (default 50) of the stream
                            of --seed (default 1), each with at most
                            --max-edges arrows (default 7, at most 9)
  --json                    emit the machine-readable report
  -h, --help                print this text and exit

Options go before or after PATH, as `--opt value` or `--opt=value`; a
unique prefix names an option (`--max 5`), and `--` ends the options.

Exit codes: 0 all verdicts pass, 2 unreadable input or invalid argument,
3 size cap exceeded, 4 verification failure, 5 not totally unimodular (some
basis of columns has determinant other than +-1; the message names one).

Output conventions: interior points are listed in lexicographic order;
cocircuit covectors are sign-normalized so their first nonzero entry is
positive; oriented cycles start at their lowest arrow id with sign +1.
Computed counts and series are independent of edge orientations and of the
choice of lattice basis; the literal point coordinates are basis-dependent.
"""

from __future__ import annotations

import gc
import sys

from .errors import ArgumentError, NotTotallyUnimodularError, ParseError, SizeExceededError
from .formats import parse_arrangement, parse_graph

# the handlers import ``report``, and with it the analysis context: importing
# the CLI compiles only the layers below them, all that a library call such as
# ``redundant_generators`` needs

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_VERIFY = 4
EXIT_NOT_TU = 5


def _write(data) -> None:
    if isinstance(data, bytes):
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        sys.stdout.write(data)
        sys.stdout.flush()


def _emit(report: dict, as_json: bool) -> int:
    from .report import render_text, to_json_bytes

    _write(to_json_bytes(report) if as_json else render_text(report))
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_PARSE


def _analyze(path: str, as_json: bool, parse, build) -> int:
    """Read ``path``, parse it and emit the report that ``build`` assembles."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        parsed = parse(text)
    except OSError as exc:
        return _input_error(str(exc))
    except UnicodeDecodeError as exc:
        return _input_error(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})")
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = build(text, parsed)
    except NotTotallyUnimodularError as exc:
        print(f"not totally unimodular: {exc}", file=sys.stderr)
        return EXIT_NOT_TU
    except SizeExceededError as exc:
        print(f"size error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    return _emit(report, as_json)


def cmd_analyze_graph(path: str, json: bool) -> int:
    from .report import build_graph_report

    return _analyze(path, json, parse_graph, build_graph_report)


def cmd_analyze_arrangement(path: str, json: bool) -> int:
    from .report import build_report

    return _analyze(path, json, parse_arrangement, build_report)


def cmd_random_suite(seed: int, count: int, max_edges: int, json: bool) -> int:
    # imported here: no other subcommand needs the suite, and every call pays for an import
    from .report import to_json_bytes
    from .verification import run_suite

    try:
        summary = run_suite(seed, count, max_edges)
    except ArgumentError as exc:
        return _input_error(str(exc))
    except SizeExceededError as exc:
        print(f"size error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    payload = {
        "schemaVersion": 1,
        "seed": seed,
        "count": count,
        "maxEdges": max_edges,
        "passes": summary.passes,
        "failures": summary.failures,
        "firstFailure": (
            None
            if summary.first_failure is None
            else {
                "index": summary.first_failure.index,
                "graph": summary.first_failure.graph_text,
                "failedChecks": list(summary.first_failure.failed()),
            }
        ),
    }
    if json:
        _write(to_json_bytes(payload))
    else:
        lines = [
            f"random suite: seed {seed}, {count} instances, max {max_edges} edges",
            f"  passes  : {summary.passes}",
            f"  failures: {summary.failures}",
        ]
        if summary.first_failure is not None:
            lines.append(
                f"  first failure at index {summary.first_failure.index}:"
                f" {', '.join(summary.first_failure.failed())}"
            )
            lines.append("  replay input:")
            lines.extend("    " + l for l in summary.first_failure.graph_text.splitlines())
        _write("\n".join(lines) + "\n")
    return EXIT_OK if summary.ok else EXIT_VERIFY


# subcommand -> (handler, whether it reads a PATH, its integer options with
# their defaults); every subcommand also takes --json and -h/--help
_COMMANDS = {
    "analyze-graph": (cmd_analyze_graph, True, {}),
    "analyze-arrangement": (cmd_analyze_arrangement, True, {}),
    "random-suite": (cmd_random_suite, False, {"--seed": 1, "--count": 50, "--max-edges": 7}),
}
_HELP = ("-h", "--help")


def _usage(command: str | None = None) -> str:
    """The usage lines of ``command``, or of every subcommand; the module
    docstring repeats them."""
    lines = []
    for name in [command] if command else _COMMANDS:
        _, reads_path, ints = _COMMANDS[name]
        options = "".join(f" [{option} N]" for option in ints)
        lines.append(f"zonoharm {name}{' PATH' if reads_path else ''}{options} [--json]")
    return "usage: " + "\n       ".join(lines)


def _usage_error(command: str | None, message: str):
    prog = f"zonoharm {command}" if command else "zonoharm"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _is_negative_number(arg: str) -> bool:
    whole, dot, frac = arg[1:].partition(".")
    return whole.isdecimal() if not dot else (not whole or whole.isdecimal()) and frac.isdecimal()


def _option(arg: str, options) -> tuple | None:
    """``(option, explicit value or None)`` for an argument that names one of
    ``options``, ``(None, None)`` for one that looks like an unknown option,
    and None for a positional argument.  The rules are argparse's: a long
    option may be any unique prefix and may carry ``=value``; ``-``, a
    negative number and an argument with a space are positional."""
    if arg in options:
        return arg, None
    if not arg.startswith("-") or arg == "-":
        return None
    if arg.startswith("--"):
        name, eq, value = arg.partition("=")
        matches = [option for option in options if option.startswith(name)]
        if len(matches) == 1:
            return matches[0], value if eq else None
    elif arg.startswith("-h"):
        # a cluster of the one short option: "-hh" and "-h=h" are -h, and
        # any other text after it is an explicit value that -h rejects
        tail = arg[3:] if arg[2] == "=" else arg[2:]
        return "-h", tail.lstrip("h") or (None if tail else "")
    if _is_negative_number(arg) or " " in arg:
        return None
    return None, None


def _help(command: str | None, value: str | None):
    if value is not None:
        _usage_error(command, f"argument -h/--help: ignored explicit argument {value!r}")
    _write(__doc__ or _usage() + "\n")
    raise SystemExit(EXIT_OK)


def _parse(argv: list) -> tuple:
    """``(handler, keyword arguments)`` of a command line.  Accepts and
    rejects what an argparse parser of the same grammar does on Python 3.11:
    ``--help`` prints the usage text and a usage error exits 2, each by
    SystemExit."""
    unknown = []
    for i, arg in enumerate(argv):
        found = None if arg == "--" else _option(arg, _HELP)
        if found is None:
            break
        if found[0] is not None:
            _help(None, found[1])
        unknown.append(arg)
    else:
        i = len(argv)
    if argv[i:] in ([], ["--"]):
        _usage_error(None, "the following arguments are required: command")
    name = argv[i]
    if name not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(None, f"argument command: invalid choice: {name!r} (choose from {choices})")
    values, rest = _parse_command(name, argv[i + 1 :])
    unknown += rest
    if unknown:
        _usage_error(None, "unrecognized arguments: " + " ".join(unknown))
    return _COMMANDS[name][0], values


def _parse_command(name: str, argv: list) -> tuple:
    """``(keyword arguments, unrecognized arguments)`` of the arguments
    after subcommand ``name``."""
    _, reads_path, ints = _COMMANDS[name]
    options = (*_HELP, "--json", *ints)
    for arg in argv:
        if arg == "--":
            break
        if arg.startswith("--="):
            # "--" is a prefix of every long option, and argparse rejects
            # that before it reads any argument
            _usage_error(name, f"ambiguous option: {arg} could match {', '.join(options[1:])}")
    values = {"json": False, **{option[2:].replace("-", "_"): d for option, d in ints.items()}}
    unknown = []
    path = None
    dashes = after_path = False  # past "--"; the argument before was the path
    args = iter(argv)
    for arg in args:
        if arg == "--" and not dashes:
            # argparse drops the "--" that borders the path, on either side
            dashes = True
            if not (reads_path and (path is None or after_path)):
                unknown.append(arg)
            continue
        found = None if dashes else _option(arg, options)
        after_path = False
        if found is None:
            if reads_path and path is None:
                path = arg
                after_path = True
            else:
                unknown.append(arg)
            continue
        option, value = found
        if option is None:
            unknown.append(arg)
        elif option in _HELP:
            _help(name, value)
        elif option == "--json":
            if value is not None:
                _usage_error(name, f"argument --json: ignored explicit argument {value!r}")
            values["json"] = True
        else:
            if value is None:
                value = next(args, "--")  # no option takes "--" as its value
                if value == "--" or _option(value, options) is not None:
                    _usage_error(name, f"argument {option}: expected one argument")
            try:
                values[option[2:].replace("-", "_")] = int(value)
            except ValueError:
                _usage_error(name, f"argument {option}: invalid int value: {value!r}")
    if reads_path:
        if path is None:
            _usage_error(name, "the following arguments are required: path")
        values["path"] = path
    return values, unknown


def main(argv=None) -> int:
    handler, values = _parse(sys.argv[1:] if argv is None else list(argv))
    return handler(**values)


def run():
    """The process entry point: ``main()`` on ``sys.argv``, then exit with its code."""
    # Freezing moves every live object into the permanent generation, which
    # the collections the interpreter runs at exit skip: they would walk the
    # whole heap and free, object by object, memory the OS frees anyway.
    # atexit handlers, flushing and the exit code are unchanged, and an
    # in-process main() keeps normal collection.
    try:
        code = main()
    finally:
        gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
