import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from ghkit import (
    cli,
    dynamics,
    generate,
    gluing,
    hedgehogs,
    io,
    solver,
    spaces,
    tuzhilin,
    verification,
)
from ghkit.cli import main
from ghkit.correspondences import Correspondence, identity_correspondence
from ghkit.errors import InvariantBroken, TooLarge
from ghkit.generate import random_metric_space, rng_from_seed
from ghkit.hedgehogs import HedgehogSpec
from ghkit.spaces import one_point_space, validate


@pytest.fixture
def gap_files(tmp_path):
    x = validate([[0, 1], [1, 0]], labels=["a", "b"])
    y = validate([[0, 3], [3, 0]], labels=["c", "d"])
    xp, yp = tmp_path / "x.msp", tmp_path / "y.msp"
    xp.write_text(io.dump_space(x))
    yp.write_text(io.dump_space(y))
    return x, y, xp, yp


def test_validate_ok(gap_files, capsys):
    _, _, xp, _ = gap_files
    assert main(["validate", str(xp)]) == 0
    assert "valid strict space" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.msp"
    bad.write_text("points 3 strict\na b c\n0 1 3\n1 0 1\n3 1 0\n")
    assert main(["validate", str(bad)]) == 1
    assert "violation" in capsys.readouterr().out


def test_validate_refuses_a_header_above_the_point_cap(tmp_path, capsys):
    path = tmp_path / "big.msp"
    path.write_text("points 2001 strict\n")
    assert main(["validate", str(path)]) == 2
    assert f"space file {path} has 2001 points, cap is 2000" in capsys.readouterr().err


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "none.msp")]) == 2


def test_gh_human_and_csv(gap_files, capsys):
    _, _, xp, yp = gap_files
    assert main(["gh", str(xp), str(yp)]) == 0
    out = capsys.readouterr().out
    assert "value 1" in out and "witness 0-0 1-1" in out
    assert main(["gh", str(xp), str(yp), "--csv"]) == 0
    row = capsys.readouterr().out.strip()
    value, lower, nodes = row.split(",")
    assert value == "1" and lower == "1" and nodes.isdigit()


def test_gh_oracle_flag(gap_files, capsys):
    _, _, xp, yp = gap_files
    assert main(["gh", str(xp), str(yp), "--enumerate-oracle"]) == 0
    assert "match true" in capsys.readouterr().err


def test_gh_oracle_mismatch_is_a_failed_check(gap_files, monkeypatch, capsys):
    # a solver whose value is off by one: the oracle must catch it
    def off_by_one(x, y):
        result = real(x, y)
        return replace(result, value=result.value + 1)

    real = cli.gh_exact
    monkeypatch.setattr(cli, "gh_exact", off_by_one)
    _, _, xp, yp = gap_files
    assert main(["gh", str(xp), str(yp), "--enumerate-oracle"]) == 1
    captured = capsys.readouterr()
    assert "value 2\n" in captured.out
    assert captured.err == "oracle 1 match false\n"


def test_gh_oracle_guard_is_input_error(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        pytest.fail("gh_exact ran before the oracle's guard refused the pair")

    monkeypatch.setattr(cli, "gh_exact", no_solve)
    rng = rng_from_seed(5)
    paths = [tmp_path / "x.msp", tmp_path / "y.msp"]
    for path in paths:
        path.write_text(io.dump_space(random_metric_space(rng, 5)))
    assert main(["gh", *map(str, paths), "--enumerate-oracle"]) == 2
    captured = capsys.readouterr()
    assert "guard is 20" in captured.err and captured.out == ""


def test_gh_refuses_past_the_side_bound_and_node_budget(
    gap_files, tmp_path, monkeypatch, capsys
):
    _, _, xp, _ = gap_files
    rng = rng_from_seed(9)
    nine = [tmp_path / "a.msp", tmp_path / "b.msp"]
    for path in nine:
        path.write_text(io.dump_space(random_metric_space(rng, 9)))
    assert main(["gh", *map(str, nine)]) == 0
    assert "witness" in capsys.readouterr().out
    big = validate([[abs(i - j) for j in range(33)] for i in range(33)])
    bp = tmp_path / "big.msp"
    bp.write_text(io.dump_space(big))
    assert main(["gh", str(xp), str(bp)]) == 2
    captured = capsys.readouterr()
    assert "more than 32 points" in captured.err and captured.out == ""
    monkeypatch.setattr(solver, "NODE_BUDGET", 10)
    assert main(["gh", *map(str, nine), "--csv"]) == 2
    captured = capsys.readouterr()
    assert "budget of 10 nodes" in captured.err and captured.out == ""


def test_glue_pair_stdout(gap_files, tmp_path, capsys):
    x, y, xp, yp = gap_files
    rel = Correspondence(x, y, frozenset({(0, 0), (1, 1)}))
    rp = tmp_path / "r.corr"
    rp.write_text(io.dump_correspondence(rel))
    assert main(["glue", "--pair", str(xp), str(yp), str(rp)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("points 4 strict")
    assert "# 0.a 0 0" in out


def test_glue_pair_out_files(gap_files, tmp_path):
    x, y, xp, yp = gap_files
    rel = Correspondence(x, y, frozenset({(0, 0), (1, 1)}))
    rp = tmp_path / "r.corr"
    rp.write_text(io.dump_correspondence(rel))
    out = tmp_path / "glued.msp"
    assert main(["glue", "--pair", str(xp), str(yp), str(rp), "--out", str(out)]) == 0
    glued = io.load_space(out)
    assert len(glued) == 4
    assert (tmp_path / "glued.prov").exists()


def test_glue_zero_distortion_is_input_error(gap_files, tmp_path):
    x, _, xp, _ = gap_files
    rel = identity_correspondence(x)
    rp = tmp_path / "id.corr"
    rp.write_text(io.dump_correspondence(rel))
    assert main(["glue", "--pair", str(xp), str(xp), str(rp)]) == 2


def test_glue_tree(tmp_path, gap_files):
    x, y, xp, yp = gap_files
    rel = Correspondence(x, y, frozenset({(0, 0), (1, 1)}))
    (tmp_path / "r.corr").write_text(io.dump_correspondence(rel))
    tree = tmp_path / "t.tree"
    tree.write_text("vertex 0 x.msp\nvertex 1 y.msp\nedge 0 1 r.corr\n")
    assert main(["glue", "--tree", str(tree)]) == 0


def test_hedgehog_compile_and_iso(tmp_path, capsys):
    a = tmp_path / "a.hh"
    b = tmp_path / "b.hh"
    a.write_text("1 1\n2 1\n")
    b.write_text("2 1\n1 1\n")
    assert main(["hedgehog", "compile", str(a)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("points 3 strict")
    assert main(["hedgehog", "iso", str(a), str(b)]) == 0
    assert "isometric" in capsys.readouterr().out
    msp = tmp_path / "a.msp"
    assert main(["hedgehog", "compile", str(a), "--out", str(msp)]) == 0
    assert capsys.readouterr().out == f"wrote {msp}\n"
    assert msp.read_text() == "points 3 strict\n0 1 2\n0 1 2\n1 0 3\n2 3 0\n"


def test_hedgehog_bucket(tmp_path, capsys):
    a = tmp_path / "a.hh"
    b = tmp_path / "b.hh"
    a.write_text("1/4 1\n1/2 1\n")
    b.write_text("1/8 1\n3/8 1\n")
    assert main(["hedgehog", "bucket", str(a), str(b), "--eps", "1/4"]) == 0
    assert "distortion" in capsys.readouterr().out
    out = tmp_path / "ab.corr"
    argv = ["hedgehog", "bucket", str(a), str(b), "--eps", "1/4", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "distortion 1/4 (bound 1/2)\n"
        "gh_upper_bound 1/8 (bound 1/4)\n"
        f"wrote {out}\n"
    )
    assert out.read_text() == "0 0\n1 1\n2 2\n"
    c = tmp_path / "c.hh"
    c.write_text("1/8 1\n1/4 1\n")  # two needles in the first quarter bucket
    assert main(["hedgehog", "bucket", str(a), str(c), "--eps", "1/4"]) == 1


def test_hedgehog_compile_refuses_above_point_cap(tmp_path, capsys, monkeypatch):
    assert spaces.POINT_CAP == 2000
    spec = tmp_path / "huge.hh"
    spec.write_text("1 10000000\n")

    def no_build(*args):
        raise AssertionError("the refusal must come before any space is built")

    monkeypatch.setattr(hedgehogs, "from_grid", no_build)
    tracemalloc.start()
    try:
        assert main(["hedgehog", "compile", str(spec)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "hedgehog has 10000001 points, cap is 2000" in capsys.readouterr().err
    assert peak < 2**20


def test_tuzhilin_refuses_above_point_cap(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("the refusal must come before any space is built")

    monkeypatch.setattr(tuzhilin, "from_grid", no_build)
    tracemalloc.start()
    try:
        assert main(["tuzhilin", "--n", "100", "--k", "100", "--m", "1"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "Tuzhilin spaces have 10302 points, cap is 2000" in capsys.readouterr().err
    assert peak < 2**20


def test_tuzhilin_refuses_above_grid_bit_cap(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("the refusal must come before any space is built")

    monkeypatch.setattr(tuzhilin, "from_grid", no_build)
    tracemalloc.start()
    try:
        assert main(["tuzhilin", "--n", "10", "--k", "1800", "--m", "1", "--csv"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "1922 points on a 2600-bit denominator" in err
    assert "cap 400000000" in err
    assert peak < 2**20


def test_glue_tree_refuses_above_point_cap(gap_files, tmp_path, capsys, monkeypatch):
    assert spaces.POINT_CAP == 2000
    x, y, _, _ = gap_files
    rel = Correspondence(x, y, frozenset({(0, 0), (1, 1)}))
    (tmp_path / "r.corr").write_text(io.dump_correspondence(rel))
    leaves = range(1, 1001)  # a star of 1001 two-point vertices: 2002 points
    tree = tmp_path / "star.tree"
    tree.write_text(
        "vertex 0 x.msp\n"
        + "".join(f"vertex {v} y.msp\n" for v in leaves)
        + "".join(f"edge 0 {v} r.corr\n" for v in leaves)
    )

    def no_build(*args):
        raise AssertionError("the refusal must come before the carrier is built")

    monkeypatch.setattr(gluing, "from_grid", no_build)
    assert main(["glue", "--tree", str(tree)]) == 2
    assert "gluing tree has 2002 points, cap is 2000" in capsys.readouterr().err


def test_center_refuses_a_power_above_the_bit_cap(gap_files, capsys, monkeypatch):
    _, _, xp, _ = gap_files

    def no_work(*args, **kwargs):
        raise AssertionError("the refusal must come before any solve or power")

    monkeypatch.setattr(dynamics, "d_lambda", no_work)
    monkeypatch.setattr(dynamics, "scale", no_work)
    for lam, n, bits in (("1/2", "100000", 200000), ("2/3", "10000000", 20000000)):
        assert main(["center", str(xp), "--lambda", lam, "--n", n]) == 2
        err = capsys.readouterr().err
        assert f"lambda^n may need {bits} bits, cap is 10000" in err


def test_hedgehog_point_cap_boundary(monkeypatch):
    monkeypatch.setattr(spaces, "POINT_CAP", 3)
    assert len(hedgehogs.compile_hedgehog(HedgehogSpec.from_pairs([(1, 2)]))) == 3
    with pytest.raises(TooLarge):
        hedgehogs.compile_hedgehog(HedgehogSpec.from_pairs([(1, 2), (2, 1)]))


@pytest.mark.parametrize(
    "defect", [InvariantBroken("lost a witness"), RuntimeError("lost a witness")]
)
def test_internal_errors_exit_3(monkeypatch, capsys, defect):
    def broken(args):
        raise defect

    monkeypatch.setitem(cli._HANDLERS, "tuzhilin", broken)
    assert main(["tuzhilin", "--n", "3", "--k", "4", "--m", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "lost a witness" in err
    assert "Traceback" not in err


def test_keyboard_interrupt_propagates(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._HANDLERS, "tuzhilin", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["tuzhilin", "--n", "3", "--k", "4", "--m", "2"])


def test_tuzhilin_csv(capsys):
    assert main(["tuzhilin", "--n", "3", "--k", "4", "--m", "2", "--csv"]) == 0
    assert capsys.readouterr().out.strip() == "2,1/2,1/2,true"


def test_limit_command(tmp_path, capsys):
    x = validate([[0, 1], [1, 0]], labels=["a", "b"])
    (tmp_path / "x.msp").write_text(io.dump_space(x))
    identity = io.dump_correspondence(identity_correspondence(x))
    (tmp_path / "i.corr").write_text(identity)
    chain = tmp_path / "c.chain"
    chain.write_text("space x.msp\nlink i.corr\nspace x.msp\n")
    assert main(["limit", str(chain)]) == 0
    out = capsys.readouterr().out
    assert "threads 2" in out
    assert "certificate[1] 0" in out
    assert main(["limit", str(chain), "--csv"]) == 0
    assert capsys.readouterr().out == "1,0\n2,0\n"


def test_limit_certifies_a_chain_above_the_thread_cap(
    halving_chain, tmp_path, capsys, monkeypatch
):
    def no_build(*args):
        raise AssertionError("no thread may be built")

    monkeypatch.setattr(dynamics, "_enumerate_threads", no_build)
    chain = halving_chain(60)  # 3 * 2^59 threads, within the 1/2^n budget
    lines = []
    for n, space in enumerate(chain.spaces):
        if n:
            link = io.dump_correspondence(chain.links[n - 1])
            (tmp_path / f"r{n}.corr").write_text(link)
            lines.append(f"link r{n}.corr")
        (tmp_path / f"x{n}.msp").write_text(io.dump_space(space))
        lines.append(f"space x{n}.msp")
    path = tmp_path / "deep.chain"
    path.write_text("\n".join(lines) + "\n")
    assert main(["limit", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["threads 1729382256910270464", "budget_checked true"]
    for n, line in enumerate(out[2:62], start=1):
        label, value = line.split()
        assert label == f"certificate[{n}]"
        assert io.parse_fraction(value) <= Fraction(1, 2 ** (n - 1))


def test_probe_csv(gap_files, capsys):
    _, _, xp, _ = gap_files
    assert main(["probe", str(xp), "--lambdas", "1,1/2,2", "--csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows == ["1,0", "1/2,1/4", "2,1/2"]


def test_center_csv(gap_files, capsys):
    _, _, xp, _ = gap_files
    assert main(["center", str(xp), "--lambda", "1/2", "--n", "3", "--csv"]) == 0
    assert capsys.readouterr().out.strip() == "3,1/2,1/4,1/16"


def test_stab_on_space_and_hedgehog(gap_files, tmp_path, capsys):
    _, _, xp, _ = gap_files
    assert main(["stab", str(xp)]) == 0
    assert "accepted 1" in capsys.readouterr().out
    hh = tmp_path / "h.hh"
    hh.write_text("1 1\n2 1\n")
    assert main(["stab", str(hh), "--csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert "1,true,true" in rows
    assert "2,false,false" in rows


PSEUDO_TEXT = "points 3 pseudo\na b c\n0 0 1\n0 0 1\n1 1 0\n"


def test_stab_rejects_pseudo_spaces_and_answers_large_ones(tmp_path, capsys):
    pseudo = tmp_path / "p.msp"
    pseudo.write_text(PSEUDO_TEXT)
    assert main(["stab", str(pseudo)]) == 2
    assert "requires a strict space" in capsys.readouterr().err
    # 9 and 40 points were refused by the solver's size cap of 8
    for n in (9, 40):
        big = tmp_path / f"big{n}.msp"
        big.write_text(io.dump_space(random_metric_space(rng_from_seed(4), n)))
        assert main(["stab", str(big)]) == 0
        assert "accepted 1\n" in capsys.readouterr().out


def test_probe_and_center_answer_above_the_old_cap(tmp_path, capsys):
    space = random_metric_space(rng_from_seed(4), 9)
    path = tmp_path / "big.msp"
    path.write_text(io.dump_space(space))
    half = spaces.diameter(space) / 2
    assert main(["probe", str(path), "--lambdas", "1,1/2,3", "--csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows == ["1,0", f"1/2,{half / 2}", f"3,{2 * half}"]
    assert main(["center", str(path), "--lambda", "1/2", "--n", "2", "--csv"]) == 0
    assert capsys.readouterr().out.strip() == f"2,1/2,{half / 2},{half / 4}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["probe", "{x}", "--lambdas", "0,-1"], "scale factor must be positive, got 0"),
        (["probe", "{x}", "--lambdas", "1,-1/2"], "must be positive, got -1/2"),
        (["stab", "{x}", "--lambdas", "0"], "scale factor must be positive, got 0"),
        (["stab", "{hh}", "--lambdas", "2,-1,0"], "must be positive, got -1"),
        (["center", "{x}", "--lambda", "0", "--n", "2"], "strictly between 0 and 1"),
        (["center", "{x}", "--lambda=-1/2", "--n", "2"], "strictly between 0 and 1"),
        (["probe", "{p}", "--lambdas", "1/2"], "d_lambda requires a strict space"),
        (["center", "{p}", "--lambda", "1/2", "--n", "2"], "requires a strict space"),
        (["probe", "{x}", "--lambdas", ","], "--lambdas needs at least one factor"),
        (["stab", "{x}", "--lambdas", ","], "--lambdas needs at least one factor"),
        (["probe", "{x}", "--lambdas", "1/2,,3"], "--lambdas has an empty item"),
        (["probe", "{x}", "--lambdas", "1/2,"], "--lambdas has an empty item"),
        (["stab", "{x}", "--lambdas", "1/2,,3"], "--lambdas has an empty item"),
        (["stab", "{hh}", "--lambdas", "2,"], "--lambdas has an empty item"),
    ],
)
def test_scaling_commands_refuse_bad_factors_and_pseudo_spaces(
    gap_files, tmp_path, capsys, argv, message
):
    _, _, xp, _ = gap_files
    hh, pseudo = tmp_path / "h.hh", tmp_path / "p.msp"
    hh.write_text("1 1\n2 1\n")
    pseudo.write_text(PSEUDO_TEXT)
    paths = {"x": xp, "hh": hh, "p": pseudo}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_stab_answers_317_needles_and_300_points(tmp_path, capsys):
    needles, points = tmp_path / "n.hh", tmp_path / "p.msp"
    needles.write_text("".join(f"{k} 1\n" for k in range(1, 318)))
    space = random_metric_space(rng_from_seed(7), 300, coord_max=2000)
    points.write_text(io.dump_space(space))
    assert main(["stab", str(needles)]) == 0
    assert "accepted 1\n" in capsys.readouterr().out
    assert main(["stab", str(points), "--csv", "--lambdas", "3,1/2,3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows == ["1/2,false,false", "1,true,false", "3,false,false"]


def test_stab_csv_on_a_point_lists_the_sampled_factors_and_1(tmp_path, capsys):
    point = tmp_path / "pt.msp"
    point.write_text(io.dump_space(one_point_space()))
    assert main(["stab", str(point), "--csv", "--lambdas", "2,1/2"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows == ["1/2,true,true", "1,true,false", "2,true,true"]


def test_generate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.msp", tmp_path / "b.msp"
    assert main(["generate", "random-metric", "--n", "4", "--seed", "9", "--out", str(out1)]) == 0
    assert main(["generate", "random-metric", "--n", "4", "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    io.load_space(out1)  # generated files always validate


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--n", "100", "--coord-max", "1"], "the box holds only 8 points"),
        (["--n", "3", "--denominator", "0"], "denominator >= 1"),
        (["--n", "3", "--coord-max", "-1"], "coord_max >= 0"),
        (
            ["--n", "30", "--coord-max", "3", "--distinct-distances"],
            "only 3 distinct distances are possible",
        ),
    ],
)
def test_generate_rejects_impossible_requests(tmp_path, capsys, flags, message):
    out = tmp_path / "g.msp"
    assert main(["generate", "random-metric", *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


class NoSampling:
    def __getattr__(self, name):
        raise AssertionError("the refusal must come before any sampling")


@pytest.mark.parametrize(
    "command,message",
    [
        (["random-metric", "--n", "2001"], "space has 2001 points, cap is 2000"),
        (
            ["grid-hedgehog", "--eps", "1/20000", "--diam", "1"],
            "hedgehog has 20001 points, cap is 2000",
        ),
        (
            ["dense-spec", "--count", "1000", "--max-length", "1000"],
            "hedgehog may have 2001 points, cap is 2000",
        ),
    ],
)
def test_generate_refuses_above_the_point_cap(
    tmp_path, capsys, monkeypatch, command, message
):
    def no_build(*args):
        raise AssertionError("the refusal must come before any needle is built")

    monkeypatch.setattr(cli, "rng_from_seed", lambda seed: NoSampling())
    monkeypatch.setattr(generate.HedgehogSpec, "from_pairs", no_build)
    out = tmp_path / "g.out"
    assert main(["generate", *command, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", ["-2", "0"])
def test_generate_dense_spec_refuses_a_count_below_1(
    tmp_path, capsys, monkeypatch, count
):
    monkeypatch.setattr(cli, "rng_from_seed", lambda seed: NoSampling())
    out = tmp_path / "g.hh"
    argv = ["generate", "dense-spec", "--count", count, "--max-length", "3"]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"count must be at least 1, got {count}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "files,argv,message",
    [
        (
            {"c.chain": ""},
            ["limit", "c.chain"],
            "error: a chain needs at least one space",
        ),
        (
            {"h.hh": "# comments only\n\n  # and a blank line\n"},
            ["hedgehog", "compile", "h.hh"],
            "error: h.hh:1: empty hedgehog file",
        ),
        (
            {"t.tree": "vertex 0 x.msp\nvertex 2 y.msp\nedge 0 2 r.corr\n"},
            ["glue", "--tree", "t.tree"],
            "error: t.tree:1: vertex ids must be 0..n-1",
        ),
        (
            {},
            ["center", "x.msp", "--lambda", "1/2", "--n", "-1"],
            "error: n must be nonnegative",
        ),
        (
            {},
            ["generate", "grid-hedgehog", "--eps", "0", "--diam", "1", "--out", "g.hh"],
            "error: need 0 < eps <= diam",
        ),
        (
            {},
            ["generate", "dense-spec", "--count", "1", "--max-length", "0"]
            + ["--out", "g.hh"],
            "error: not enough grid points for the requested count",
        ),
    ],
)
def test_input_guards_exit_2_with_their_message(
    gap_files, tmp_path, monkeypatch, capsys, files, argv, message
):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)  # gap_files wrote x.msp and y.msp here
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert not (tmp_path / "g.hh").exists()


def test_generate_grid_hedgehog(tmp_path):
    out = tmp_path / "g.hh"
    assert main(
        ["generate", "grid-hedgehog", "--eps", "1/4", "--diam", "2", "--out", str(out)]
    ) == 0
    spec = io.load_hedgehog(out)
    assert len(spec.needles) == 8


def test_verify_single_check(capsys):
    assert main(["verify", "--suite", "bucket-construction"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS bucket-construction")


def test_verify_unknown_check(capsys):
    assert main(["verify", "--suite", "no-such-check"]) == 2
    assert capsys.readouterr().err == "error: unknown checks: no-such-check\n"


@pytest.mark.parametrize("selector", [",", "", " , "])
def test_verify_refuses_an_empty_selection(capsys, selector):
    assert main(["verify", "--suite", selector]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no checks selected by {selector!r}\n"
    assert captured.out == ""


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "solver-oracle-equivalence" in names
    assert len(names) == 10


# the exact output of command paths no other test runs


def test_tuzhilin_text_mode(capsys):
    assert main(["tuzhilin", "--n", "2", "--k", "2", "--m", "1"]) == 0
    assert capsys.readouterr().out == (
        "# first space\n"
        "points 6 strict\n"
        "1:2 2:3/2 2:2 3:4/3 3:3/2 3:2\n"
        "0 7/2 4 10/3 7/2 4\n"
        "7/2 0 1/2 17/6 3 7/2\n"
        "4 1/2 0 10/3 7/2 4\n"
        "10/3 17/6 10/3 0 1/6 2/3\n"
        "7/2 3 7/2 1/6 0 1/2\n"
        "4 7/2 4 2/3 1/2 0\n"
        "# second space\n"
        "points 6 strict\n"
        "1:2 2:3/2 2:2 inf:1 inf:3/2 inf:2\n"
        "0 7/2 4 3 7/2 4\n"
        "7/2 0 1/2 5/2 3 7/2\n"
        "4 1/2 0 3 7/2 4\n"
        "3 5/2 3 0 1/2 1\n"
        "7/2 3 7/2 1/2 0 1/2\n"
        "4 7/2 4 1 1/2 0\n"
        "distance_preserving true\n"
        "hausdorff 1 expected 1\n"
        "map:\n"
        "  1:2 -> 2:2\n"
        "  2:3/2 -> 3:3/2\n"
        "  2:2 -> 3:2\n"
        "  inf:1 -> 1:1\n"
        "  inf:3/2 -> 1:3/2\n"
        "  inf:2 -> 1:2\n"
    )


def test_verify_csv(capsys):
    argv = ["verify", "--suite", "bucket-construction,hedgehog-rigidity", "--csv"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "bucket-construction,pass,\nhedgehog-rigidity,pass,\n"
    )


def test_verify_prints_the_witness_of_a_failed_check(monkeypatch, capsys):
    monkeypatch.setitem(
        verification.CHECKS, "bucket-construction", ("claim", lambda seed: "a, b")
    )
    assert main(["verify", "--suite", "bucket-construction"]) == 1
    status, witness = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"FAIL bucket-construction \(\d+\.\d\ds\): claim", status)
    assert witness == "     witness: a, b"
    assert main(["verify", "--suite", "bucket-construction", "--csv"]) == 1
    # the comma inside the witness may not split the CSV row
    assert capsys.readouterr().out == "bucket-construction,fail,a; b\n"


def test_probe_and_center_text_modes(gap_files, capsys):
    _, _, xp, _ = gap_files
    assert main(["probe", str(xp), "--lambdas", "1,1/2,2"]) == 0
    assert capsys.readouterr().out == "d(1) = 0\nd(1/2) = 1/4\nd(2) = 1/2\n"
    assert main(["center", str(xp), "--lambda", "1/2", "--n", "3"]) == 0
    assert capsys.readouterr().out == (
        "step_distance 1/4\n"
        "tail_bound 1/16\n"
        "points 2 strict\n"
        "a b\n"
        "0 1/8\n"
        "1/8 0\n"
    )


def test_generate_dense_spec(tmp_path, capsys):
    out = tmp_path / "d.hh"
    argv = ["generate", "dense-spec", "--count", "3", "--max-length", "2"]
    assert main([*argv, "--seed", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text() == "3/4 1\n9/8 1\n3/2 2\n"


def test_a_bad_rational_option_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "p.hh"
    p.write_text("1 1\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["hedgehog", "bucket", str(p), str(p), "--eps", "abc"])
    assert exit_info.value.code == 2
    assert "argument --eps: bad rational 'abc'" in capsys.readouterr().err


def test_gh_on_a_space_file_that_breaks_the_triangle_inequality(gap_files, capsys):
    _, _, xp, _ = gap_files
    bad = xp.with_name("bad.msp")
    bad.write_text("points 3 strict\na b c\n0 1 5\n1 0 1\n5 1 0\n")
    assert main(["gh", str(bad), str(xp)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: input space is not a valid metric: "
        "dist[0][2] > dist[0][1] + dist[1][2]\n"
    )
    assert captured.out == ""



# Tokens a mutation may insert: a negative, a zero denominator, an
# underscore int() accepts, a non-ASCII digit, a 30-digit integer and the
# keywords of the space, tree and comment syntax.
MUTATION_TOKENS = ("-1", "1/0", "1_0", "\u0662", str(10**29 + 7), "points", "edge", "#")

# The commands each kind of file feeds, m.<kind> being the mutated file and
# the others the clean files `_robustness_files` writes.
MUTATION_RUNS = {
    "msp": (
        ("validate", "m.msp"),
        ("gh", "m.msp", "y.msp"),
        ("gh", "m.msp", "y.msp", "--enumerate-oracle"),
        ("glue", "--pair", "m.msp", "y.msp", "r.corr"),
        ("probe", "m.msp", "--lambdas", "1/2,2"),
        ("center", "m.msp", "--lambda", "1/2", "--n", "3"),
        ("stab", "m.msp"),
    ),
    "corr": (("glue", "--pair", "x.msp", "y.msp", "m.corr"),),
    "hh": (
        ("hedgehog", "compile", "m.hh"),
        ("hedgehog", "iso", "m.hh", "b.hh"),
        ("hedgehog", "bucket", "m.hh", "b.hh", "--eps", "1/4"),
        ("stab", "m.hh"),
    ),
    "tree": (("glue", "--tree", "m.tree"),),
    "chain": (("limit", "m.chain"),),
}


def _robustness_files(tmp_path):
    """Write the clean input files; return the text of one file of each kind."""
    x = validate([[0, 1, 2], [1, 0, 1], [2, 1, 0]], labels=["a", "b", "c"])
    y = validate([[0, 3, 3], [3, 0, 3], [3, 3, 0]], labels=["p", "q", "r"])
    diagonal = Correspondence(x, y, frozenset((i, i) for i in range(3)))
    texts = {
        "x.msp": io.dump_space(x),
        "y.msp": io.dump_space(y),
        "r.corr": io.dump_correspondence(diagonal),
        "i.corr": io.dump_correspondence(identity_correspondence(x)),
        "a.hh": "1/4 1\n1/2 1\n",
        "b.hh": "1/8 1\n3/8 1\n",
        "t.tree": "vertex 0 x.msp\nvertex 1 y.msp\nedge 0 1 r.corr\n",
        "c.chain": "space x.msp\nlink i.corr\nspace x.msp\n",
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return {
        "msp": texts["x.msp"],
        "corr": texts["r.corr"],
        "hh": texts["a.hh"],
        "tree": texts["t.tree"],
        "chain": texts["c.chain"],
    }


def _mutate(rng, text):
    """`text` after one seeded edit: a character deleted, a token inserted, a
    character replaced, the lines shuffled or one line duplicated."""
    op = rng.randrange(5)
    at = rng.randrange(len(text) + 1)
    if op == 0:
        return text[:at] + text[at + 1 :]
    if op == 1:
        return text[:at] + rng.choice(MUTATION_TOKENS) + text[at:]
    if op == 2:
        return text[:at] + rng.choice("0129 /-.\n#ab") + text[at + 1 :]
    lines = text.splitlines(keepends=True)
    if op == 3:
        rng.shuffle(lines)
    else:
        line = rng.randrange(len(lines))
        lines.insert(line, lines[line])
    return "".join(lines)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses a usage with SystemExit(2)
        return f"SystemExit({exc.code})"


def test_mutated_input_files_end_in_a_documented_exit_code(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)  # tree and chain files name their parts relatively
    bases = _robustness_files(tmp_path)
    kinds = sorted(bases)
    for kind in kinds:
        (tmp_path / f"m.{kind}").write_text(bases[kind])
        for run in MUTATION_RUNS[kind]:
            assert _exit_code(list(run)) == 0, run
    capsys.readouterr()
    for seed in range(400):
        kind = kinds[seed % len(kinds)]
        text = _mutate(random.Random(seed), bases[kind])
        (tmp_path / f"m.{kind}").write_text(text, encoding="utf-8")
        for run in MUTATION_RUNS[kind]:
            code = _exit_code(list(run))
            capsys.readouterr()
            assert code in (0, 1, 2, "SystemExit(2)"), (
                f"seed {seed}: ghkit {' '.join(run)} gave {code} on {text!r}"
            )
