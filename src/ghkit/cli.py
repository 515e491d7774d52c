"""Command line entry point binding all modules.

Exit codes: 0 on success, 1 when a check fails (verify failures, metric-axiom
violations, oracle mismatches, refused bucket matchings), 2 on usage or input
errors, 3 on an internal error (a broken ghkit invariant or any other
unexpected exception: a defect in ghkit, not in the input).  Rationals are
read and written as `p/q` or bare integers everywhere.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import io
from .correspondences import distortion, min_distortion_by_enumeration
from .dynamics import (
    DEFAULT_SAMPLED_FACTORS,
    center_iterate,
    d_lambda_probe,
    stabilizer_finite,
    thread_limit,
)
from .errors import (
    BucketMismatch,
    GhkitError,
    InvariantBroken,
    MetricValidationError,
)
from .generate import (
    DEFAULT_SEED,
    dense_hedgehog_spec,
    grid_hedgehog,
    random_metric_space,
    rng_from_seed,
)
from .gluing import glue_pair, glue_tree
from .hedgehogs import bucket_correspondence, compile_hedgehog, hedgehog_isometric
from .solver import gh_exact, gh_upper_from
from .tuzhilin import TuzhilinConfig, tuzhilin_isometry, tuzhilin_spaces
from .verification import run_suite, suite_names

PASS, CHECK_FAILED, USAGE_ERROR, INTERNAL_ERROR = 0, 1, 2, 3


def _fraction(token: str) -> Fraction:
    try:
        return io.parse_fraction(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fraction_list(token: str) -> list[Fraction | None]:
    return [_fraction(part) if part else None for part in token.split(",")]


@functools.cache  # one parser per process: building it costs more than most commands
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghkit",
        description="Exact Gromov-Hausdorff machinery on finite metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the metric axioms of a space file")
    p.add_argument("space", type=Path)

    p = sub.add_parser("gh", help="exact distance between two spaces")
    p.add_argument("left", type=Path)
    p.add_argument("right", type=Path)
    p.add_argument(
        "--enumerate-oracle",
        action="store_true",
        help="cross-check against full correspondence enumeration (small sizes)",
    )
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("glue", help="glue spaces along correspondences")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pair", nargs=3, metavar=("X", "Y", "R"), type=Path)
    group.add_argument("--tree", type=Path)
    p.add_argument("--out", type=Path, help="write carrier here plus a .prov sidecar")

    p = sub.add_parser("hedgehog", help="compile and compare hedgehogs")
    hh = p.add_subparsers(dest="hh_command", required=True)
    c = hh.add_parser("compile")
    c.add_argument("spec", type=Path)
    c.add_argument("--out", type=Path)
    c = hh.add_parser("iso")
    c.add_argument("left", type=Path)
    c.add_argument("right", type=Path)
    c = hh.add_parser("bucket")
    c.add_argument("left", type=Path)
    c.add_argument("right", type=Path)
    c.add_argument("--eps", type=_fraction, required=True)
    c.add_argument("--out", type=Path)

    p = sub.add_parser("tuzhilin", help="the needle-shift example at finite depth")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("limit", help="finite limit of a chain of correspondences")
    p.add_argument("chain", type=Path)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("probe", help="d(lambda) = d(X, lambda X) on a grid")
    p.add_argument("space", type=Path)
    p.add_argument("--lambdas", type=_fraction_list, required=True)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("center", help="contraction iterate with a Cauchy tail bound")
    p.add_argument("space", type=Path)
    p.add_argument("--lambda", dest="lam", type=_fraction, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("stab", help="finite stabilizer report (.msp or .hh input)")
    p.add_argument("target", type=Path)
    p.add_argument("--lambdas", type=_fraction_list, default=None)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("generate", help="seeded generators for input files")
    gen = p.add_subparsers(dest="gen_command", required=True)
    g = gen.add_parser("random-metric")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=DEFAULT_SEED)
    g.add_argument("--denominator", type=int, default=6)
    g.add_argument("--coord-max", type=int, default=60)
    g.add_argument("--distinct-distances", action="store_true")
    g.add_argument("--out", type=Path, required=True)
    g = gen.add_parser("grid-hedgehog")
    g.add_argument("--eps", type=_fraction, required=True)
    g.add_argument("--diam", type=_fraction, required=True)
    g.add_argument("--out", type=Path, required=True)
    g = gen.add_parser("dense-spec")
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--max-length", type=_fraction, required=True)
    g.add_argument("--seed", type=int, default=DEFAULT_SEED)
    g.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", default="all", help="all or a comma-separated list")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--list", action="store_true", help="list check names and exit")

    return parser


# ---------------------------------------------------------------------------
# handlers


def _cmd_validate(args) -> int:
    try:
        space = io.load_space(args.space)
    except MetricValidationError as exc:
        print(f"invalid: {len(exc.violations)} violation(s)")
        for violation in exc.violations:
            print(f"  {violation}")
        return CHECK_FAILED
    print(f"valid {space.mode} space with {len(space)} point(s)")
    return PASS


def _cmd_gh(args) -> int:
    x = io.load_space(args.left)
    y = io.load_space(args.right)
    # the oracle first, so that its size guard refuses before any solve
    oracle = min_distortion_by_enumeration(x, y)[0] if args.enumerate_oracle else None
    result = gh_exact(x, y)
    if args.csv:
        print(f"{result.value},{result.lower_bound},{result.nodes_explored}")
    else:
        print(f"value {result.value}")
        print(f"lower_bound {result.lower_bound}")
        print(f"nodes_explored {result.nodes_explored}")
        pairs = " ".join(f"{i}-{j}" for i, j in result.witness.sorted_pairs())
        print(f"witness {pairs}")
    if oracle is not None:
        match = oracle == 2 * result.value
        print(f"oracle {oracle / 2} match {str(match).lower()}", file=sys.stderr)
        if not match:
            return CHECK_FAILED
    return PASS


def _emit(text: str, out: Path | None) -> None:
    """Print `text`, or write it to `out` and say so."""
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)
        print(f"wrote {out}")


def _emit_glued(glued, out: Path | None) -> None:
    text = io.dump_space(glued.carrier)
    if out is None:
        sys.stdout.write(text)
        for line in io.provenance_lines(glued):
            print(f"# {line}")
    else:
        out.write_text(text)
        out.with_suffix(".prov").write_text(io.dump_provenance(glued))
        print(f"wrote {out} and {out.with_suffix('.prov')}")


def _cmd_glue(args) -> int:
    if args.pair is not None:
        x = io.load_space(args.pair[0])
        y = io.load_space(args.pair[1])
        rel = io.load_correspondence(args.pair[2], x, y)
        glued = glue_pair(x, y, rel)
    else:
        glued = glue_tree(io.load_gluing_tree(args.tree))
    _emit_glued(glued, args.out)
    return PASS


def _cmd_hedgehog(args) -> int:
    if args.hh_command == "compile":
        _emit(io.dump_space(compile_hedgehog(io.load_hedgehog(args.spec))), args.out)
        return PASS
    if args.hh_command == "iso":
        a = io.load_hedgehog(args.left)
        b = io.load_hedgehog(args.right)
        print("isometric" if hedgehog_isometric(a, b) else "not isometric")
        return PASS
    a = io.load_hedgehog(args.left)
    b = io.load_hedgehog(args.right)
    try:
        rel = bucket_correspondence(a, b, args.eps)
    except BucketMismatch as exc:
        print(f"refused: {exc}")
        return CHECK_FAILED
    dis = distortion(rel)
    print(f"distortion {dis} (bound {2 * args.eps})")
    print(f"gh_upper_bound {gh_upper_from(rel)} (bound {args.eps})")
    _emit(io.dump_correspondence(rel), args.out)
    return PASS


def _cmd_tuzhilin(args) -> int:
    cfg = TuzhilinConfig(args.n, args.k)
    embedding = tuzhilin_isometry(cfg, args.m)
    ok = (
        embedding.distance_preserving
        and embedding.hausdorff_value == embedding.expected
    )
    if args.csv:
        print(
            f"{args.m},{embedding.hausdorff_value},{embedding.expected},"
            f"{str(ok).lower()}"
        )
    else:
        x, y = tuzhilin_spaces(cfg)
        print("# first space")
        sys.stdout.write(io.dump_space(x))
        print("# second space")
        sys.stdout.write(io.dump_space(y))
        print(f"distance_preserving {str(embedding.distance_preserving).lower()}")
        print(f"hausdorff {embedding.hausdorff_value} expected {embedding.expected}")
        print("map:")
        for src, dst in embedding.mapping:
            print(f"  {src} -> {dst}")
    return PASS if ok else CHECK_FAILED


def _cmd_limit(args) -> int:
    chain = io.load_chain(args.chain)
    result = thread_limit(chain)
    if args.csv:
        for layer, cert in enumerate(result.certificates, start=1):
            print(f"{layer},{cert}")
    else:
        print(f"threads {len(result.threads)}")
        print(f"budget_checked {str(chain.budget_checked).lower()}")
        for layer, cert in enumerate(result.certificates, start=1):
            print(f"certificate[{layer}] {cert}")
        sys.stdout.write(io.dump_space(result.approx))
    return PASS


def _factors(lambdas: list[Fraction | None]) -> list[Fraction]:
    # empty items arrive as None, refused here: argparse's error would raise SystemExit
    if all(lam is None for lam in lambdas):
        raise ValueError("--lambdas needs at least one factor")
    if None in lambdas:
        raise ValueError("--lambdas has an empty item")
    return lambdas


def _cmd_probe(args) -> int:
    lambdas = _factors(args.lambdas)
    space = io.load_space(args.space)
    probe = d_lambda_probe(space, lambdas)
    for lam, value in probe.samples:
        if args.csv:
            print(f"{lam},{value}")
        else:
            print(f"d({lam}) = {value}")
    return PASS


def _cmd_center(args) -> int:
    space = io.load_space(args.space)
    state = center_iterate(space, args.lam, args.n)
    if args.csv:
        print(f"{args.n},{args.lam},{state.step_distance},{state.tail_bound}")
    else:
        print(f"step_distance {state.step_distance}")
        print(f"tail_bound {state.tail_bound}")
        sys.stdout.write(io.dump_space(state.iterate))
    return PASS


def _cmd_stab(args) -> int:
    default = args.lambdas is None
    sampled = DEFAULT_SAMPLED_FACTORS if default else _factors(args.lambdas)
    if args.target.suffix == ".hh":
        target = io.load_hedgehog(args.target)
    else:
        target = io.load_space(args.target)
    report = stabilizer_finite(target, sampled)
    if args.csv:
        for lam in report.candidates:
            accepted = lam in report.accepted
            zero = lam in report.zero_distance_sampled
            print(f"{lam},{str(accepted).lower()},{str(zero).lower()}")
    else:
        print(f"accepted {' '.join(str(x) for x in report.accepted)}")
        print(
            "zero_distance_sampled "
            + " ".join(str(x) for x in report.zero_distance_sampled)
        )
        print(f"finite_sampled {' '.join(str(x) for x in report.finite_sampled)}")
        print(f"note: {report.note}")
    return PASS


def _cmd_generate(args) -> int:
    if args.gen_command == "random-metric":
        rng = rng_from_seed(args.seed)
        space = random_metric_space(
            rng,
            args.n,
            denominator=args.denominator,
            coord_max=args.coord_max,
            distinct_distances=args.distinct_distances,
        )
        text = io.dump_space(space)
    elif args.gen_command == "grid-hedgehog":
        text = io.dump_hedgehog(grid_hedgehog(args.eps, args.diam))
    else:
        rng = rng_from_seed(args.seed)
        text = io.dump_hedgehog(dense_hedgehog_spec(rng, args.count, args.max_length))
    _emit(text, args.out)
    return PASS


def _cmd_verify(args) -> int:
    if args.list:
        for name in suite_names("all"):
            print(name)
        return PASS
    try:
        report = run_suite(args.suite, seed=args.seed)
    except KeyError as exc:  # str(KeyError) would quote the message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return USAGE_ERROR
    for result in report.results:
        if args.csv:
            witness = (result.witness or "").replace(",", ";")
            print(
                f"{result.name},{'pass' if result.passed else 'fail'},{witness}"
            )
        else:
            status = "PASS" if result.passed else "FAIL"
            line = f"{status} {result.name} ({result.seconds:.2f}s): {result.claim}"
            print(line)
            if result.witness:
                print(f"     witness: {result.witness}")
    return PASS if report.passed else CHECK_FAILED


_HANDLERS = {
    "validate": _cmd_validate,
    "gh": _cmd_gh,
    "glue": _cmd_glue,
    "hedgehog": _cmd_hedgehog,
    "tuzhilin": _cmd_tuzhilin,
    "limit": _cmd_limit,
    "probe": _cmd_probe,
    "center": _cmd_center,
    "stab": _cmd_stab,
    "generate": _cmd_generate,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except MetricValidationError as exc:
        print(f"error: input space is not a valid metric: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InvariantBroken as exc:  # a GhkitError, but a defect, not an input error
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except (GhkitError, ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # KeyboardInterrupt is not an Exception
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
