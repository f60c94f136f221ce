"""Command-line front end: metrics, evaluate, validate, capability, graph.

Exit codes are a stable contract: 0 success, 1 at least one instance failed
validation, 2 usage/corpus/config errors. The corpus directory defaults to
the bundled data tree; override with --corpus or the SCHEMALENS_CORPUS
environment variable (the directory must hold a manifest.json). Each
command reads every input the user names -- flags, config files, instance
files -- before it loads a corpus, so a bad one is refused at no cost.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path
from stat import S_ISDIR, S_ISREG

from . import report
from .corpus import (
    CorpusManifest,
    bundled_data_dir,
    capability_grid,
    capability_matrix,
    capability_records,
    load_manifest,
)
from .errors import SchemaLensError, read_config
from .evaluation import load_criteria, load_weight_cases, run_comparison
from .graph import to_dot
from .loader import _schema_files, resolve
from .metrics import DEFAULT_COEFFICIENTS, WidthCoefficients
from .validator import validate_batch

ENV_CORPUS = "SCHEMALENS_CORPUS"

# The stat errors ``Path.is_dir`` and ``Path.is_file`` read as "no such path".
_ABSENT = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--corpus",
        help=f"directory holding a manifest.json (default: bundled data, or ${ENV_CORPUS})",
    )
    parser.add_argument(
        "--format",
        choices=["table", "csv", "records"],
        default="table",
        help="output format (default: table)",
    )


def _add_schema_flag(parser: argparse.ArgumentParser, default_all: bool):
    parser.add_argument(
        "--schema",
        action="append",
        help="schema set name from the manifest; repeatable (default: all)" if default_all
        else "one schema set name from the manifest (default: lei)",
    )


def _add_metrics(p: argparse.ArgumentParser):
    _add_common(p)
    _add_schema_flag(p, default_all=True)
    p.add_argument("--collection", help="override the level-0 collection name")
    p.add_argument("--type", dest="type_filter", help="only rows targeting this type name")
    p.add_argument("--coefficients", help="docWidth coefficients a,b,c,d (default 1,2,1,3)")
    p.add_argument("--criteria", help="criteria config file (default: bundled)")


def _add_evaluate(p: argparse.ArgumentParser):
    _add_common(p)
    _add_schema_flag(p, default_all=True)
    p.add_argument("--collection", help="override the level-0 collection name")
    p.add_argument("--coefficients", help="docWidth coefficients a,b,c,d (default 1,2,1,3)")
    p.add_argument("--criteria", help="criteria config file (default: bundled)")
    p.add_argument("--weights", help="weight cases config file (default: bundled)")
    p.add_argument("--breakdown", action="store_true", help="also print per-criterion scores")
    p.add_argument("--chart-data", action="store_true", help="emit case->schema->score JSON")


def _add_validate(p: argparse.ArgumentParser):
    _add_common(p)
    _add_schema_flag(p, default_all=False)
    p.add_argument("files", nargs="+", help="instance files or directories of instances")


def _add_graph(p: argparse.ArgumentParser):
    _add_common(p)
    _add_schema_flag(p, default_all=False)
    p.add_argument("--collection", help="override the level-0 collection name")
    p.add_argument("--graph-dot", help="write DOT here instead of stdout")


def _manifest(args) -> CorpusManifest:
    root = args.corpus or os.environ.get(ENV_CORPUS)
    return load_manifest(root)


def _schema_names(args, manifest: CorpusManifest, default_all: bool) -> list[str]:
    """The schema sets ``--schema`` names, each once, in first-occurrence
    order, so a repeated name builds no second graph."""
    if args.schema is None:
        return manifest.schema_names() if default_all else ["lei"]
    names = list(dict.fromkeys(n.strip() for chunk in args.schema for n in chunk.split(",") if n.strip()))
    if not names:
        raise SchemaLensError(f"--schema {','.join(args.schema)!r} names no schema set")
    return names


def _schema_name(args, manifest: CorpusManifest) -> str:
    """The one schema set a command that reads one takes (default: lei); a
    second distinct ``--schema`` name is refused, not ignored."""
    names = _schema_names(args, manifest, default_all=False)
    if len(names) > 1:
        raise SchemaLensError(f"{args.command} takes one schema set; --schema names {', '.join(names)}")
    return names[0]


def _coefficients(args) -> WidthCoefficients:
    if not args.coefficients:
        return DEFAULT_COEFFICIENTS
    try:
        return WidthCoefficients.parse(args.coefficients)
    except ValueError as exc:
        raise SchemaLensError(f"--coefficients {args.coefficients!r}: {exc}") from None


def _config(path: str | None, manifest: CorpusManifest, name: str) -> str | Path:
    """``path`` if given, else ``configs/<name>`` beside the manifest, else the
    bundled default."""
    if path is not None:
        return path
    beside = manifest.root.joinpath("configs", name)
    return beside if beside.is_file() else bundled_data_dir().joinpath("configs", name)


def _criteria(args, manifest: CorpusManifest):
    criteria, default_collection = load_criteria(_config(args.criteria, manifest, "criteria.json"))
    override = args.collection
    if override and default_collection and override != default_collection:
        criteria = [
            c._replace(
                type_name=override if c.type_name == default_collection else c.type_name,
                collection=override if c.collection == default_collection else c.collection,
            )
            for c in criteria
        ]
    return criteria


def cmd_metrics(args) -> int:
    coefficients = _coefficients(args)
    manifest = _manifest(args)
    names = _schema_names(args, manifest, default_all=True)
    criteria = _criteria(args, manifest)
    if args.type_filter:
        criteria = [c for c in criteria if c.type_name == args.type_filter]
    result = run_comparison(manifest.graphs(names, args.collection), criteria, (), coefficients)
    if args.format == "records":
        print(json.dumps(report.metric_report_records(result), indent=2))
    else:
        sys.stdout.write(report.render(args.format, *report.metric_report_grid(result)))
    return 0


def cmd_evaluate(args) -> int:
    coefficients = _coefficients(args)
    manifest = _manifest(args)
    names = _schema_names(args, manifest, default_all=True)
    criteria = _criteria(args, manifest)
    cases = load_weight_cases(_config(args.weights, manifest, "weights.json"))
    result = run_comparison(manifest.graphs(names, args.collection), criteria, cases, coefficients)
    if args.chart_data:
        print(json.dumps(result.chart_data(), indent=2))
    elif args.format == "records":
        payload = {"scores": report.score_records(result)}
        if args.breakdown:
            payload["breakdown"] = {
                schema: {str(cid): score for cid, score in result.normalized[schema].items()}
                for schema in result.schemas
            }
        print(json.dumps(payload, indent=2))
    else:
        sys.stdout.write(report.render(args.format, *report.score_matrix_grid(result)))
        if args.breakdown:
            # The table separates the two grids with a blank line; CSV does not.
            sys.stdout.write("" if args.format == "csv" else "\n")
            sys.stdout.write(report.render(args.format, *report.breakdown_grid(result)))
    return 0


def _instance_paths(raw_paths: list[str]) -> list[str]:
    """The instance files ``raw_paths`` name, each spelled as its ``Path``
    prints: a file, or a directory's files in the loader's walk. One stat
    per argument, whose errors read as ``Path.is_dir``'s do: a path that
    is absent is refused by name, any other stat error is raised."""
    paths: list[str] = []
    for raw in raw_paths:
        path = str(Path(raw))
        try:
            mode = os.stat(path).st_mode
        except OSError as exc:
            if exc.errno not in _ABSENT:
                raise
            mode = 0
        except ValueError:  # an embedded NUL
            mode = 0
        if S_ISDIR(mode):
            files = _schema_files(path)
            if path == ".":  # Path(".") / "a.json" prints as "a.json", not as the walk's "./a.json"
                paths.extend("/".join(parts) for parts, _ in files)
            else:
                paths.extend(file for _, file in files)
        elif S_ISREG(mode):
            paths.append(path)
        else:
            raise SchemaLensError(f"no such file or directory: {raw}")
    if not paths:
        raise SchemaLensError("no instance files found")
    return paths


def cmd_validate(args) -> int:
    manifest = _manifest(args)
    name = _schema_name(args, manifest)
    schema_set = manifest.schema_set(name)
    if schema_set.envelope is None:
        raise SchemaLensError(f"schema set {name!r} has no instance envelope to validate against")
    paths = _instance_paths(args.files)
    instances = [read_config(path) for path in paths]
    envelope = resolve(schema_set.corpus(), schema_set.envelope)
    outcomes, totals = validate_batch(instances, envelope)
    if args.format == "records":
        records = [
            {
                "file": str(path),
                "valid": outcome.valid,
                "violations": [
                    {
                        "instancePath": v.instance_path,
                        "schemaPath": v.schema_path,
                        "keyword": v.keyword,
                        "message": v.message,
                    }
                    for v in outcome.violations
                ],
            }
            for path, outcome in zip(paths, outcomes)
        ]
        print(json.dumps(records, indent=2))
    else:
        for path, outcome in zip(paths, outcomes):
            print(f"{path}: {'valid' if outcome.valid else 'INVALID'}")
            for v in outcome.violations:
                print(f"  {v.instance_path or '/'} [{v.keyword}] {v.message}")
    return 1 if totals["invalid"] else 0


def cmd_capability(args) -> int:
    manifest = _manifest(args)
    verdicts = capability_matrix(manifest)
    if args.format == "records":
        print(json.dumps(capability_records(verdicts), indent=2))
        return 0
    sys.stdout.write(report.render(args.format, *capability_grid(manifest, verdicts)))
    return 0


def cmd_graph(args) -> int:
    manifest = _manifest(args)
    name = _schema_name(args, manifest)
    graph = manifest.graph(name, args.collection)
    dot = to_dot(graph, title=manifest.schema_set(name).title)
    if args.graph_dot:
        Path(args.graph_dot).write_text(dot, encoding="utf-8")
    else:
        sys.stdout.write(dot)
    return 0


# name -> (help, argument adder, command), in the order --help lists them
_COMMANDS = {
    "metrics": ("compute the structural metric table", _add_metrics, cmd_metrics),
    "evaluate": ("score schemas under the weight cases", _add_evaluate, cmd_evaluate),
    "validate": ("validate instance files against the envelope schema", _add_validate, cmd_validate),
    "capability": ("event-capture capability matrix", _add_common, cmd_capability),
    "graph": ("export a schema's metric graph as DOT", _add_graph, cmd_graph),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="schemalens",
        description="Structural metrics, weighted evaluation and validation "
        "for livestock event schema corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` gives: the same namespace,
    output and exit code. A known command builds only its own parser, the
    subparser the full parser would hand the arguments after it to. The
    full parser is built for help, an unknown command or none, and to word
    the error for an unrecognized argument with its usage line."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        return build_parser().parse_args(argv)
    parser = argparse.ArgumentParser(prog=f"schemalens {command}")
    _COMMANDS[command][1](parser)
    args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=command))
    if extras:
        build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (SchemaLensError, OSError, ValueError, RecursionError) as exc:
        print(f"schemalens: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
