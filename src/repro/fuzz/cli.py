"""Command-line interface: ``python -m repro.fuzz <command>``.

Commands:

* ``run`` — generate ``--seeds`` programs, check each against every
  pipeline x scheduler, auto-minimize any failure, and (optionally) write
  a JSONL report plus a corpus of minimized reproducers.  Exits non-zero
  when anything other than ``pass`` was observed.
* ``replay`` — re-run a saved corpus: plain entries must pass, minimized
  reproducers (entries carrying a failure spec) must still fail.
* ``minimize`` — re-check one ``(seed, size class)`` pair and shrink its
  first failure to a minimal reproducer.
* ``export`` — write the generated programs for a seed range into a
  corpus file (for offline inspection or benchmark replay).

The JSONL report is deterministic for a fixed invocation: it contains no
timestamps or host data, so identical seeds yield byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from ..ir.printer import to_pseudocode
from ..passes.registry import pipeline_names
from .corpus import Corpus
from .generator import SIZE_CLASSES, generate_program
from .minimize import MinimizationResult, minimize_program
from .oracle import (DEFAULT_SCHEDULERS, Oracle, OracleConfig, OracleReport,
                     ProgramVerdict)


def _csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _add_oracle_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size-class", default="small",
                        choices=sorted(SIZE_CLASSES),
                        help="generator size class (default: small)")
    parser.add_argument("--pipelines", type=_csv, default=None,
                        metavar="P1,P2,...",
                        help="pipelines to test (default: all of "
                             f"{','.join(pipeline_names())})")
    parser.add_argument("--schedulers", type=_csv,
                        default=list(DEFAULT_SCHEDULERS), metavar="S1,S2,...",
                        help="schedulers to test (default: "
                             f"{','.join(DEFAULT_SCHEDULERS)})")
    parser.add_argument("--threads", type=int, default=4,
                        help="machine-model thread count (default: 4)")
    parser.add_argument("--exec-seed", type=int, default=0,
                        help="RNG seed for input-array contents (default: 0)")


def _build_oracle(args: argparse.Namespace) -> Oracle:
    config = OracleConfig(pipelines=args.pipelines,
                          schedulers=args.schedulers,
                          threads=args.threads,
                          exec_seed=args.exec_seed)
    return Oracle(config)


def _emit_jsonl(path: Optional[str], report: OracleReport) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        for verdict in report.verdicts:
            handle.write(json.dumps(verdict.to_dict(), sort_keys=True) + "\n")
        handle.write(json.dumps({"summary": report.counts,
                                 "checks": report.checks},
                                sort_keys=True) + "\n")


def _minimize_verdict(oracle: Oracle, verdict: ProgramVerdict,
                      out) -> Optional[MinimizationResult]:
    """Shrink the first divergence of a failing verdict; None on pass."""
    if not verdict.divergences:
        return None
    divergence = verdict.divergences[0]
    generated = generate_program(verdict.seed, verdict.size_class)
    result = minimize_program(generated, divergence.spec,
                              session=oracle.session,
                              exec_seed=oracle.config.exec_seed)
    print(f"  minimized {generated.name}: "
          f"{result.original_statements} -> {result.statements} statements "
          f"({result.tests} candidate evaluations)", file=out)
    return result


def cmd_run(args: argparse.Namespace, out=sys.stdout) -> int:
    oracle = _build_oracle(args)
    seeds = range(args.start, args.start + args.seeds)

    def progress(verdict: ProgramVerdict) -> None:
        if verdict.outcome != "pass" or args.verbose:
            print(f"  seed {verdict.seed}: {verdict.outcome}"
                  + (f" ({verdict.error})" if verdict.error else ""),
                  file=out)

    print(f"fuzzing {args.seeds} {args.size_class} programs "
          f"(seeds {seeds.start}..{seeds.stop - 1}) across "
          f"{len(oracle.pipelines)} pipelines x "
          f"{len(oracle.schedulers)} schedulers", file=out)
    report = oracle.run(seeds, args.size_class, progress=progress)
    _emit_jsonl(args.jsonl, report)

    corpus = Corpus()
    for verdict in report.failures:
        if verdict.outcome != "divergence":
            continue
        result = _minimize_verdict(oracle, verdict, out)
        if result is not None:
            shrunk = generate_program(verdict.seed, verdict.size_class)
            shrunk.program = result.program
            shrunk.parameters = dict(result.parameters)
            corpus.add(shrunk, label="minimized divergence",
                       spec=result.spec)
    if len(corpus) and args.divergence_corpus:
        corpus.save(args.divergence_corpus)
        print(f"wrote {len(corpus)} minimized reproducer(s) to "
              f"{args.divergence_corpus}", file=out)

    print(report.summary(), file=out)
    return 0 if not report.failures else 1


def cmd_replay(args: argparse.Namespace, out=sys.stdout) -> int:
    corpus = Corpus.load(args.corpus)
    oracle = _build_oracle(args)
    status = 0
    for entry in corpus:
        verdict = oracle.check(entry.generated)
        expected = "divergence" if entry.spec is not None else "pass"
        marker = "ok" if verdict.outcome == expected else "UNEXPECTED"
        if marker != "ok":
            status = 1
        print(f"  {entry.name}: {verdict.outcome} "
              f"(expected {expected}) {marker}", file=out)
    print(f"replayed {len(corpus)} corpus entries", file=out)
    return status


def cmd_minimize(args: argparse.Namespace, out=sys.stdout) -> int:
    oracle = _build_oracle(args)
    generated = generate_program(args.seed, args.size_class)
    verdict = oracle.check(generated)
    if verdict.outcome == "pass":
        print(f"{generated.name}: no failure to minimize", file=out)
        return 0
    if verdict.outcome == "generator-error":
        print(f"{generated.name}: generator error: {verdict.error}",
              file=out)
        return 2
    result = _minimize_verdict(oracle, verdict, out)
    print(to_pseudocode(result.program), file=out)
    print(f"parameters: {result.parameters}", file=out)
    print(f"failure: {result.spec.to_dict()}", file=out)
    if args.output:
        corpus = Corpus()
        generated.program = result.program
        generated.parameters = dict(result.parameters)
        corpus.add(generated, label="minimized divergence", spec=result.spec)
        corpus.save(args.output)
        print(f"wrote reproducer to {args.output}", file=out)
    return 1


def cmd_export(args: argparse.Namespace, out=sys.stdout) -> int:
    corpus = Corpus()
    for seed in range(args.start, args.start + args.seeds):
        corpus.add(generate_program(seed, args.size_class),
                   label="generated")
    corpus.save(args.corpus)
    print(f"exported {len(corpus)} {args.size_class} programs to "
          f"{args.corpus}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential testing of normalization pipelines and "
                    "schedulers on random loop nests.")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="fuzz a seed range")
    run.add_argument("--seeds", type=int, default=50,
                     help="number of programs to generate (default: 50)")
    run.add_argument("--start", type=int, default=0,
                     help="first seed (default: 0)")
    run.add_argument("--jsonl", default=None, metavar="FILE",
                     help="write one JSON verdict per line to FILE")
    run.add_argument("--divergence-corpus", default="fuzz_divergences.json",
                     metavar="FILE",
                     help="where to save minimized reproducers "
                          "(default: fuzz_divergences.json)")
    run.add_argument("--verbose", action="store_true",
                     help="print every verdict, not just failures")
    _add_oracle_arguments(run)
    run.set_defaults(func=cmd_run)

    replay = commands.add_parser("replay", help="re-run a saved corpus")
    replay.add_argument("--corpus", required=True, metavar="FILE")
    _add_oracle_arguments(replay)
    replay.set_defaults(func=cmd_replay)

    minimize = commands.add_parser(
        "minimize", help="shrink one failing seed to a minimal reproducer")
    minimize.add_argument("--seed", type=int, required=True)
    minimize.add_argument("--output", default=None, metavar="FILE",
                          help="save the reproducer corpus to FILE")
    _add_oracle_arguments(minimize)
    minimize.set_defaults(func=cmd_minimize)

    export = commands.add_parser(
        "export", help="write generated programs to a corpus file")
    export.add_argument("--seeds", type=int, default=20)
    export.add_argument("--start", type=int, default=0)
    export.add_argument("--corpus", required=True, metavar="FILE")
    _add_oracle_arguments(export)
    export.set_defaults(func=cmd_export)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args, out=out)


if __name__ == "__main__":
    sys.exit(main())
