import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from ghkit import io
from ghkit.cli import main
from ghkit.correspondences import Correspondence, identity_correspondence
from ghkit.errors import MetricValidationError, TooLarge
from ghkit.generate import random_correspondence, random_metric_space, rng_from_seed
from ghkit.gluing import glue_pair
from ghkit.hedgehogs import HedgehogSpec
from ghkit.spaces import PSEUDO, FiniteMetricSpace, from_grid, validate


def test_fraction_round_trip():
    for token, value in (
        ("3/4", F(3, 4)),
        ("5", F(5)),
        ("0", F(0)),
        ("-0", F(0)),
        ("+3/4", F(3, 4)),
        ("-6/4", F(-3, 2)),
        ("007/008", F(7, 8)),
    ):
        assert io.parse_fraction(token) == value
        assert io.parse_fraction(io.format_fraction(value)) == value
    # only ASCII [+-]?[0-9]+(/[0-9]+)? is read; a zero denominator is refused
    refused = "1.5.2 1/0 1/00 1_0 1/2_0 \u0661\u0662 \uff11 4/-2 3/+4 +-1 1/ /2 + 1.5 1e3"
    for token in refused.split() + ["", " 1", "1 ", "0x10"]:
        with pytest.raises(ValueError, match=re.escape(f"bad rational {token!r}")):
            io.parse_fraction(token)


@pytest.mark.parametrize("token", ["1_0", "\u0661\u0662", "4/-2", "3/+4"])
def test_space_file_token_outside_the_grammar_is_refused(tmp_path, capsys, token):
    path = tmp_path / "s.msp"
    path.write_text(f"points 2 strict\na b\n0 {token}\n{token} 0\n")
    message = f"s.msp:3: bad rational {token!r}"
    with pytest.raises(io.ParseError, match=re.escape(message)):
        io.load_space(path)
    assert main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_integer_fields_read_the_numerator_grammar():
    for token, value in (("0", 0), ("-3", -3), ("+4", 4), ("007", 7)):
        assert io.parse_integer(token) == value
    # what int() also takes: underscores, other scripts' digits, spaces
    refused = "1_0 \u0661 \u0662 \uff11 1/2 +-1 + 1.0 1e3 0x10"
    for token in refused.split() + ["", " 1", "1 ", "1\n"]:
        with pytest.raises(ValueError, match=re.escape(f"bad integer {token!r}")):
            io.parse_integer(token)


# tokens that int() reads as 2 or 1, which the file formats refuse
TWO = ["0_2", "\u0662", "\uff12"]
ONE = ["0_1", "\u0661", "\uff11"]


@pytest.mark.parametrize("token", TWO)
def test_space_header_count_outside_the_grammar_is_refused(tmp_path, capsys, token):
    path = tmp_path / "s.msp"
    path.write_text(f"points {token} strict\na b\n0 1\n1 0\n")
    message = f"s.msp:1: bad point count {token!r}"
    with pytest.raises(io.ParseError, match=re.escape(message)):
        io.load_space(path)
    assert main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err
    # a sign is part of the grammar, and a negative count keeps its message
    signed = io.parse_space("points +2 strict\na b\n0 1\n1 0\n")
    assert signed == io.parse_space("points 2 strict\na b\n0 1\n1 0\n")
    with pytest.raises(io.ParseError, match="point count -1 is below 1"):
        io.parse_space("points -1 strict\n")


@pytest.mark.parametrize("token", ONE)
def test_correspondence_index_outside_the_grammar_is_refused(
    tmp_path, capsys, token
):
    x = validate([[0, 1], [1, 0]])
    for name in ("x.msp", "y.msp"):
        (tmp_path / name).write_text(io.dump_space(x))
    path = tmp_path / "r.corr"
    path.write_text(f"0 0\n{token} 1\n")
    message = "r.corr:2: indices must be integers"
    with pytest.raises(io.ParseError, match=re.escape(message)):
        io.load_correspondence(path, x, x)
    files = [str(tmp_path / name) for name in ("x.msp", "y.msp", "r.corr")]
    assert main(["glue", "--pair", *files]) == 2
    assert message in capsys.readouterr().err
    assert io.parse_correspondence("+0 0\n1 +1\n", x, x).pairs == {(0, 0), (1, 1)}


@pytest.mark.parametrize("token", TWO)
def test_hedgehog_multiplicity_outside_the_grammar_is_refused(
    tmp_path, capsys, token
):
    path = tmp_path / "s.hh"
    path.write_text(f"1/2\n1 {token}\n")
    message = f"s.hh:2: bad integer {token!r}"
    with pytest.raises(io.ParseError, match=re.escape(message)):
        io.load_hedgehog(path)
    assert main(["hedgehog", "compile", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert io.parse_hedgehog("1 +2\n") == io.parse_hedgehog("1 2\n")


@pytest.mark.parametrize(
    "space",
    [
        from_grid(("a", "b", "c"), 12, ((0, 6, 4), (6, 0, 9), (4, 9, 0))),
        from_grid(("a", "b", "c"), 1, ((0, 3, 4), (3, 0, 5), (4, 5, 0))),
        from_grid(
            tuple(f"p{i}" for i in range(9)),
            60,
            random_metric_space(rng_from_seed(3), 9).grid[1],
        ),
        from_grid(("a", "b", "c"), 4, ((0, 0, 3), (0, 0, 3), (3, 3, 0)), PSEUDO),
        from_grid(("pt",), 5, ((0,),)),
    ],
    ids=["mixed-denominators", "integers", "sixtieths", "pseudo", "one-point"],
)
def test_parsed_space_equals_the_validated_matrix(space):
    parsed = io.parse_space(io.dump_space(space))
    reference = validate(space.dist, space.mode, space.labels)
    assert parsed.labels == reference.labels
    assert parsed.mode == reference.mode
    assert parsed.grid == reference.grid
    assert parsed.dist == reference.dist
    assert all(type(row) is tuple for row in parsed.grid[1] + parsed.dist)
    assert parsed == reference == space


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "s.msp:1: empty space file"),
        ("points 2\na b\n0 1\n1 0\n", "s.msp:1: expected header: points <n> <mode>"),
        ("points two strict\n", "s.msp:1: bad point count 'two'"),
        ("points 2 fuzzy\na b\n0 1\n1 0\n", "s.msp:1: unknown mode 'fuzzy'"),
        ("points 2 strict\na b\n0 1\n", "s.msp:1: expected 4 content lines, found 3"),
        ("points 2 strict\na\n0 1\n1 0\n", "s.msp:2: expected 2 labels"),
        ("points 2 strict\na b\n0 1 1\n1 0\n", "s.msp:3: expected 2 entries"),
        # rows are read in order: a short row after a bad token, and a bad
        # token after a short row, each report the earlier line
        ("points 3 strict\na b c\n0 1 x\n1 0\ny 1 0\n", "s.msp:3: bad rational 'x'"),
        ("points 3 strict\na b c\n0 1 1\n1 0\nx 1 0\n", "s.msp:4: expected 3 entries"),
        ("points 3 strict\na b c\n0 x y\nx 0 1\ny 1 0\n", "s.msp:3: bad rational 'x'"),
        ("points 2 strict\na a\n0 x\nx 0\n", "s.msp:3: bad rational 'x'"),
    ],
)
def test_space_parse_error_messages(text, message):
    with pytest.raises(io.ParseError) as caught:
        io.parse_space(text, "s.msp")
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "text", ["points 2 strict\na a\n0 1\n1 0\n", "points 2 strict\na a\n1 -1\n2 0\n"]
)
def test_repeated_labels_are_refused_before_the_axioms(text):
    with pytest.raises(ValueError) as caught:
        io.parse_space(text)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "labels must be distinct"


@pytest.mark.parametrize(
    "mode, rows, message",
    [
        (
            "strict",
            ["1 -1 5", "2 0 1", "5 1 0"],
            "dist[0][0] != 0; dist[0][1] < 0; dist[0][1] != dist[1][0]; "
            "dist[0][2] > dist[0][1] + dist[1][2]",
        ),
        (
            "strict",
            ["0 0 5", "0 0 1", "5 1 0"],
            "dist[0][1] = 0 for distinct points (strict mode); "
            "dist[0][2] > dist[0][1] + dist[1][2]",
        ),
        ("pseudo", ["0 0 5", "0 0 1", "5 1 0"], "dist[0][2] > dist[0][1] + dist[1][2]"),
        (
            "strict",
            ["0 1/2 3 1", "1/2 0 1/3 1", "3 1/3 0 7/2", "1 1 7/2 0"],
            "dist[0][2] > dist[0][1] + dist[1][2]; "
            "dist[2][3] > dist[2][1] + dist[1][3]",
        ),
    ],
)
def test_space_file_violations_match_validate(mode, rows, message):
    n = len(rows)
    labels = " ".join(f"p{i}" for i in range(n))
    text = f"points {n} {mode}\n{labels}\n" + "\n".join(rows) + "\n"
    with pytest.raises(MetricValidationError) as parsed:
        io.parse_space(text)
    matrix = [[io.parse_fraction(tok) for tok in row.split()] for row in rows]
    with pytest.raises(MetricValidationError) as reference:
        validate(matrix, mode)
    assert str(parsed.value) == str(reference.value) == message
    assert parsed.value.violations == reference.value.violations


def test_space_round_trip(tmp_path):
    space = validate(
        [[0, F(1, 2), 2], [F(1, 2), 0, F(5, 2)], [2, F(5, 2), 0]],
        labels=["a", "b", "c"],
    )
    path = tmp_path / "space.msp"
    path.write_text(io.dump_space(space))
    assert io.load_space(path) == space


def test_space_format_shape():
    space = validate([[0, 1], [1, 0]], labels=["a", "b"])
    text = io.dump_space(space)
    assert text.splitlines() == ["points 2 strict", "a b", "0 1", "1 0"]


def reference_dump(space):
    """The .msp text with each entry formatted on its own, from the grid."""
    denom, rows = space.grid
    lines = [f"points {len(space)} {space.mode}", " ".join(space.labels)]
    lines += [" ".join(str(F(value, denom)) for value in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "space",
    [
        from_grid(("a", "b", "c"), 12, ((0, 6, 4), (6, 0, 9), (4, 9, 0))),
        from_grid(
            tuple(f"p{i}" for i in range(9)),
            60,
            random_metric_space(rng_from_seed(3), 9).grid[1],
        ),
        from_grid(("a", "b", "c"), 4, ((0, 0, 3), (0, 0, 3), (3, 3, 0)), PSEUDO),
        from_grid(("a", "b"), 7, ((0, 0), (0, 0)), PSEUDO),
        from_grid(("pt",), 5, ((0,),)),
    ],
    ids=["thirds-quarters", "sixtieths", "pseudo", "pseudo-zero", "one-point"],
)
def test_space_dump_reads_the_grid(space):
    text = io.dump_space(space)
    assert "dist" not in vars(space)
    assert text == reference_dump(space)
    assert io.parse_space(text) == space


@pytest.mark.parametrize(
    "labels",
    [["a b", "c"], ["", "b"], ["a\xa0b", "c"], ["#a", "b"], ["a", "b\n"]],
    ids=["space", "empty", "no-break-space", "comment", "newline"],
)
def test_labels_that_do_not_read_back_are_refused_by_the_dump(labels):
    space = validate([[0, 1], [1, 0]], labels=labels)
    with pytest.raises(ValueError, match="labels .* do not read back"):
        io.dump_space(space)


def test_a_hash_inside_the_label_line_reads_back():
    space = io.parse_space("points 2 strict\na #b\n0 1\n1 0\n")
    assert space.labels == ("a", "#b")
    assert io.parse_space(io.dump_space(space)) == space


def test_space_comments_and_blank_lines():
    text = "# a comment\npoints 2 strict\n\na b\n0 1\n1 0\n"
    space = io.parse_space(text)
    assert space.labels == ("a", "b")


def test_pseudo_space_round_trip(tmp_path):
    space = FiniteMetricSpace(("a", "b"), ((F(0), F(0)), (F(0), F(0))), PSEUDO)
    path = tmp_path / "p.msp"
    path.write_text(io.dump_space(space))
    assert io.load_space(path).mode == PSEUDO


def test_space_parse_errors():
    with pytest.raises(io.ParseError):
        io.parse_space("")
    with pytest.raises(io.ParseError):
        io.parse_space("points 2 strict\na b\n0 1\n")  # missing a row
    with pytest.raises(io.ParseError):
        io.parse_space("points 2 strict\na\n0 1\n1 0\n")  # missing a label
    with pytest.raises(io.ParseError):
        io.parse_space("points 2 strict\na b\n0 x\nx 0\n")  # bad rational
    with pytest.raises(io.ParseError):
        io.parse_space("points 2 fuzzy\na b\n0 1\n1 0\n")  # unknown mode


@pytest.mark.parametrize(
    "text, message",
    [
        # the bad token's first line, counted with the comment line
        (
            "points 3 strict\na b c\n# note\n0 1 1/2\n1 0 x\n1/2 x 0\n",
            "s.msp:5: bad rational 'x'",
        ),
        (
            "points 3 strict\na b c\n0 1 2/0\n1 0 1\n2/0 1 0\n",
            "s.msp:3: bad rational '2/0'",
        ),
    ],
)
def test_bad_token_reported_at_its_first_line(text, message):
    with pytest.raises(io.ParseError) as caught:
        io.parse_space(text, "s.msp")
    assert str(caught.value) == message


@pytest.mark.parametrize("count", ["-1", "0"])
def test_point_count_below_one_is_parse_error(tmp_path, capsys, count):
    path = tmp_path / "s.msp"
    path.write_text(f"points {count} strict\n")
    message = f"s.msp:1: point count {count} is below 1"
    with pytest.raises(io.ParseError, match=re.escape(message)):
        io.load_space(path)
    assert main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_point_count_above_the_cap_is_refused_before_any_row():
    # a header alone: the refusal comes before the rows are counted or read
    for n in (2001, 10**12):
        with pytest.raises(TooLarge, match=f"<string> has {n} points, cap is 2000$"):
            io.parse_space(f"points {n} strict\n")
    with pytest.raises(io.ParseError, match="expected 2002 content lines"):
        io.parse_space("points 2000 strict\n")  # at the cap: rows are counted


def test_space_file_violations_surface():
    with pytest.raises(MetricValidationError):
        io.parse_space("points 2 strict\na b\n0 1\n2 0\n")


def test_correspondence_round_trip(tmp_path):
    rng = rng_from_seed(1)
    x = random_metric_space(rng, 3, label_prefix="x")
    y = random_metric_space(rng, 2, label_prefix="y")
    rel = random_correspondence(rng, x, y)
    path = tmp_path / "rel.corr"
    path.write_text(io.dump_correspondence(rel))
    assert io.load_correspondence(path, x, y) == rel


def test_correspondence_coverage_error_is_parse_error():
    x = validate([[0, 1], [1, 0]])
    with pytest.raises(io.ParseError):
        io.parse_correspondence("0 0\n", x, x)


def test_hedgehog_round_trip(tmp_path):
    spec = HedgehogSpec.from_pairs([(F(1, 2), 2), (F(3), 1)])
    path = tmp_path / "spec.hh"
    path.write_text(io.dump_hedgehog(spec))
    assert io.load_hedgehog(path) == spec


def test_hedgehog_default_multiplicity():
    spec = io.parse_hedgehog("1/2\n3 2\n")
    assert spec.needles == ((F(1, 2), 1), (F(3), 2))


@pytest.mark.parametrize("text", ["1 2\n1 -1\n", "1 1\n1 0\n"])
def test_hedgehog_multiplicity_below_one_is_refused_before_merging(
    tmp_path, capsys, text
):
    with pytest.raises(io.ParseError, match="multiplicities must be positive"):
        io.parse_hedgehog(text)
    path = tmp_path / "bad.hh"
    path.write_text(text)
    assert main(["hedgehog", "compile", str(path)]) == 2
    assert "multiplicities must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,text,message",
    [
        ("f.hh", "1 1\n2 1\n0 1\n", "f.hh:3: needle lengths must be positive"),
        ("f.hh", "1 1\n2 1\n3 0\n", "f.hh:3: multiplicities must be positive"),
        # a line's length is checked before its multiplicity
        ("f.hh", "1\n# c\n\n-1/2 0\n", "f.hh:4: needle lengths must be positive"),
        ("r.corr", "0 0\n1 1\n# c\n2 0\n", "r.corr:4: pair (2, 0) out of range"),
        ("r.corr", "0 0\n0 -1\n1 1\n", "r.corr:2: pair (0, -1) out of range"),
        # emptiness and surjectivity belong to the whole file
        ("r.corr", "# none\n", "r.corr:1: a correspondence needs at least one pair"),
        ("r.corr", "\n0 0\n0 1\n", "r.corr:1: not surjective onto the left space"),
    ],
    ids=[
        "zero-length",
        "zero-multiplicity",
        "length-before-multiplicity",
        "index-past-the-end",
        "negative-index",
        "empty",
        "not-surjective",
    ],
)
def test_hedgehog_and_correspondence_errors_name_their_line(
    tmp_path, monkeypatch, capsys, name, text, message
):
    monkeypatch.chdir(tmp_path)
    x = validate([[0, 1], [1, 0]])
    Path("x.msp").write_text(io.dump_space(x))
    Path(name).write_text(text)
    with pytest.raises(io.ParseError) as excinfo:
        if name == "f.hh":
            argv = ["hedgehog", "compile", name]
            io.load_hedgehog(name)
        else:
            argv = ["glue", "--pair", "x.msp", "x.msp", name]
            io.load_correspondence(name, x, x)
    assert str(excinfo.value) == message
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gluing_tree_loader(tmp_path):
    rng = rng_from_seed(2)
    x = random_metric_space(rng, 2, label_prefix="x")
    y = random_metric_space(rng, 3, label_prefix="y")
    rel = random_correspondence(rng, x, y)
    (tmp_path / "x.msp").write_text(io.dump_space(x))
    (tmp_path / "y.msp").write_text(io.dump_space(y))
    (tmp_path / "r.corr").write_text(io.dump_correspondence(rel))
    (tmp_path / "t.tree").write_text(
        "vertex 0 x.msp\nvertex 1 y.msp\nedge 0 1 r.corr\n"
    )
    tree = io.load_gluing_tree(tmp_path / "t.tree")
    assert tree.vertices == (x, y)
    assert tree.edges[0][2] == rel


@pytest.fixture
def tree_files(tmp_path):
    x = validate([[0, 1], [1, 0]])
    y = validate([[0, 3], [3, 0]])
    (tmp_path / "a.msp").write_text(io.dump_space(x))
    (tmp_path / "b.msp").write_text(io.dump_space(y))
    rel = Correspondence(x, y, frozenset({(0, 0), (1, 1)}))
    (tmp_path / "r.corr").write_text(io.dump_correspondence(rel))
    return tmp_path / "t.tree"


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "vertex 0 a.msp\nvertex 0 b.msp\nvertex 1 b.msp\nedge 0 1 r.corr\n",
            "t.tree:2: vertex 0 is defined twice",
        ),
        (
            "vertex 0 a.msp\nvertex one b.msp\nedge 0 1 r.corr\n",
            "t.tree:2: vertex ids must be integers, got one",
        ),
        (
            "vertex 0 a.msp\nvertex 1 b.msp\n# a comment\nedge 0 1.5 r.corr\n",
            "t.tree:4: vertex ids must be integers, got 0 1.5",
        ),
        (
            "vertex 0 a.msp\nvertex 1 b.msp\nedge 0 5 r.corr\n",
            "t.tree:3: edge (0, 5) names an undefined vertex",
        ),
        # what int() reads as 1: underscores and other scripts' digits
        *[
            (
                f"vertex 0 a.msp\nvertex {token} b.msp\nedge 0 1 r.corr\n",
                f"t.tree:2: vertex ids must be integers, got {token}",
            )
            for token in ONE
        ],
        (
            "vertex 0 a.msp\nvertex 1 b.msp\nedge 0 \u0661 r.corr\n",
            "t.tree:3: vertex ids must be integers, got 0 \u0661",
        ),
    ],
)
def test_gluing_tree_id_errors_name_the_line(tree_files, capsys, text, message):
    tree_files.write_text(text)
    with pytest.raises(io.ParseError, match=re.escape(message)):
        io.load_gluing_tree(tree_files)
    assert main(["glue", "--tree", str(tree_files)]) == 2
    assert message in capsys.readouterr().err


def test_chain_loader(tmp_path):
    rng = rng_from_seed(3)
    x = random_metric_space(rng, 2)
    (tmp_path / "x.msp").write_text(io.dump_space(x))
    identity = io.dump_correspondence(identity_correspondence(x))
    (tmp_path / "i.corr").write_text(identity)
    (tmp_path / "c.chain").write_text(
        "space x.msp\nlink i.corr\nspace x.msp\n"
    )
    chain = io.load_chain(tmp_path / "c.chain")
    assert chain.depth == 2
    assert chain.spaces == (x, x)


def test_provenance_dump():
    x = validate([[0, 1], [1, 0]], labels=["a", "b"])
    y = validate([[0, 3], [3, 0]], labels=["c", "d"])
    rel = Correspondence(x, y, frozenset({(0, 0), (1, 1)}))
    glued = glue_pair(x, y, rel)
    lines = io.provenance_lines(glued)
    assert lines[0] == "0.a 0 0"
    assert lines[-1] == "1.d 1 1"
