"""Command-line interface.

Subcommands: gen, build, query, labels, decompose, validate. Graphs travel
as edge-list text files; oracles as the versioned binary container; reports
as JSON. Timing lives in the benchmark, perfbench/run.py.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import generators
from .decomposition import TreeParams, export_ted
from .errors import VertexCutsError
from .graph import Graph
from .io import (format_edgelist, label_dump, load_oracle, parse_edgelist,
                 parse_query_arg, parse_query_text, save_oracle, write_report,
                 write_ted_dir)
from .labels import build_labels, label_length_report, query_labels_scheme
from .oracle import OracleMode, build_oracle
from .validate import check_oracle, full_validation


def _read_graph(path: str) -> Graph:
    with open(path) as fh:
        return parse_edgelist(fh.read())


def _emit(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=1, sort_keys=True, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_gen(args) -> int:
    import random
    seed = args.seed
    queries_note = None
    if args.kind == "random":
        g = generators.gen_random(args.n, args.p, seed)
    elif args.kind == "fconnected":
        g = generators.gen_f_connected(args.n, args.f, seed)
    elif args.kind == "lbfamily":
        g, subsets = generators.gen_lb_family(args.n, args.f, seed)
        queries_note = [sorted(s) for s in subsets]
    elif args.kind == "lbpath":
        g = generators.gen_lb_path(args.n, seed)
    elif args.kind == "ov":
        rng = random.Random(seed)
        vectors = [[rng.randint(0, 1) for _ in range(args.f)] for _ in range(args.count)]
        vectors = [v if any(v) else [1] + v[1:] for v in vectors]  # keep the graph connected
        g, qmap = generators.gen_ov_graph(vectors)
        queries_note = {"vectors": vectors}
    elif args.kind == "oumv":
        rng = random.Random(seed)
        matrix = [[rng.randint(0, 1) for _ in range(args.n)] for _ in range(args.n)]
        g, qmap = generators.gen_oumv_graph(matrix)
        queries_note = {"matrix": matrix}
    else:
        raise VertexCutsError(f"unknown generator kind {args.kind!r}")
    text = format_edgelist(g, comment=f"kind={args.kind} seed={seed}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        manifest = {"schema_version": 1, "kind": args.kind, "seed": seed,
                    "n": g.n, "m": g.m,
                    "params": {k: v for k, v in vars(args).items()
                               if k in ("n", "p", "f", "count") and v is not None}}
        if queries_note is not None:
            manifest["queries"] = queries_note
        write_report(manifest, args.out + ".manifest.json")
    else:
        sys.stdout.write(text)
    return 0


def cmd_build(args) -> int:
    g = _read_graph(args.input)
    oracle = build_oracle(g, args.f, OracleMode(args.mode),
                          attest_f_connected=args.attest_f_connected)
    if args.out:
        nbytes = save_oracle(oracle, args.out)
        print(json.dumps({"written": args.out, "bytes": nbytes,
                          "manifest": oracle.manifest}, indent=1, sort_keys=True))
    else:
        print(json.dumps(oracle.manifest, indent=1, sort_keys=True))
    return 0


def cmd_query(args) -> int:
    oracle = load_oracle(args.oracle)
    queries = []
    if args.queries:
        queries.append(parse_query_arg(args.queries))
    if args.queries_file:
        with open(args.queries_file) as fh:
            queries.extend(parse_query_text(fh.read()))
    if not queries:
        print("no queries given (use --queries or --queries-file)", file=sys.stderr)
        return 2
    results = []
    for fs in queries:
        verdict = oracle.query(fs)
        results.append({"f_set": sorted(fs), "cut": verdict})
        print(f"{','.join(map(str, sorted(fs))) or '-'}\t{'cut' if verdict else 'not-a-cut'}")
    if args.out:
        write_report({"schema_version": 1, "results": results}, args.out)
    return 0


def cmd_labels(args) -> int:
    g = _read_graph(args.input)
    scheme = build_labels(g, args.f)
    if args.query is not None:
        fs = parse_query_arg(args.query)
        verdict = query_labels_scheme(scheme, fs)
        print("cut" if verdict else "not-a-cut")
        return 0
    dump = label_dump(scheme)
    dump["length_report"] = label_length_report(scheme)
    _emit(dump, args.out)
    return 0


def cmd_decompose(args) -> int:
    g = _read_graph(args.input)
    ted = export_ted(g, args.f, TreeParams(seed=args.seed))
    if not args.out:
        print("decompose requires --out DIRECTORY", file=sys.stderr)
        return 2
    write_ted_dir(ted, args.out)
    print(json.dumps({"pairs": len(ted.entries), "rounds": ted.rounds,
                      "out": args.out}, sort_keys=True))
    return 0


def cmd_validate(args) -> int:
    if args.oracle:
        oracle = load_oracle(args.oracle)  # checksum + format checks
        rep = check_oracle(oracle, seed=args.seed)
        print(rep.summary())
        return 0 if rep.ok else 1
    g = _read_graph(args.input)
    modes = None
    if args.mode != "all":
        modes = [OracleMode(args.mode)]
    rep = full_validation(g, args.f, modes, seed=args.seed)
    print(rep.summary())
    return 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vertexcuts",
                                description="vertex cut oracles, labels, and decompositions")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--input", required=True, help="edge-list graph file")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("gen", help="generate a graph")
    sp.add_argument("--kind", required=True,
                    choices=["random", "fconnected", "lbfamily", "lbpath", "ov", "oumv"])
    sp.add_argument("--n", type=int, default=16)
    sp.add_argument("--p", type=float, default=0.3)
    sp.add_argument("--f", type=int, default=2)
    sp.add_argument("--count", type=int, default=8, help="vector count for --kind ov")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("build", help="build and save an oracle")
    common(sp)
    sp.add_argument("--f", type=int, required=True)
    sp.add_argument("--mode", default="general",
                    choices=["general", "fconnected", "hitmiss"])
    sp.add_argument("--attest-f-connected", action="store_true")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("query", help="query a saved oracle")
    sp.add_argument("--oracle", required=True)
    sp.add_argument("--queries", default=None, help="comma-separated vertex ids")
    sp.add_argument("--queries-file", default=None, help="one query per line")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_query)

    sp = sub.add_parser("labels", help="build labels; dump or answer one query")
    common(sp)
    sp.add_argument("--f", type=int, required=True)
    sp.add_argument("--query", default=None, help="comma-separated vertex ids")
    sp.set_defaults(func=cmd_labels)

    sp = sub.add_parser("decompose", help="export the terminal-expander decomposition")
    common(sp)
    sp.add_argument("--f", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("validate", help="run the equivalence and lemma suites")
    sp.add_argument("--input", default=None, help="edge-list graph file")
    sp.add_argument("--oracle", default=None, help="saved oracle container to check")
    sp.add_argument("--f", type=int, default=2)
    sp.add_argument("--mode", default="all",
                    choices=["all", "general", "fconnected", "hitmiss"])
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate" and not args.input and not args.oracle:
        print("validate requires --input or --oracle", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except VertexCutsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
