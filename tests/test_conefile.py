import pytest

from toricnash import fixtures
from toricnash.conefile import (
    MAX_DIMENSION, ConeFile, ConeFileError, parse_cone_file, render_cone_file,
)
from toricnash.semigroup import ResourceLimitError


def test_parse_minimal():
    cf = parse_cone_file("dim 2\n1 0\n0 1\n")
    assert cf == ConeFile(dim=2, generators=((1, 0), (0, 1)))


def test_parse_with_metadata_and_comments():
    text = """# a pointed cone
dim 3
name demo
char 3

1 0 0   # first ray
0 1 0
0 0 1
"""
    cf = parse_cone_file(text)
    assert cf.name == "demo"
    assert cf.characteristic == 3
    assert cf.dim == 3
    assert cf.generators == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_roundtrip():
    for cf in fixtures.BUILTIN_CONES.values():
        assert parse_cone_file(render_cone_file(cf)) == cf
    bare = ConeFile(dim=2, generators=((1, 0), (1, 2)))
    assert parse_cone_file(render_cone_file(bare)) == bare


def test_parse_errors_are_line_numbered():
    cases = [
        ("", "line 1"),
        ("1 0\n0 1\n", "line 1"),  # dim must come first
        ("dim x\n", "line 1"),
        ("dim 2\n1 a\n", "line 2"),
        ("dim 2\n1 0 0\n", "line 2"),  # arity
        ("dim 2\nname a\nname b\n1 0\n0 1\n", "line 3"),
        ("dim 2\nchar 2\nchar 3\n1 0\n0 1\n", "line 3"),
        ("dim 2\ndim 3\n", "line 2"),
        ("dim 0\n", "line 1"),
    ]
    for text, frag in cases:
        with pytest.raises(ConeFileError) as err:
            parse_cone_file(text)
        assert frag in str(err.value), text


def test_no_generators_is_valid():
    cf = parse_cone_file("dim 4\n")
    assert cf.dim == 4 and cf.generators == ()


def test_metadata_after_generators_rejected():
    with pytest.raises(ConeFileError):
        parse_cone_file("dim 2\n1 0\nname late\n")


def test_a_dimension_past_the_bound_is_a_resource_limit():
    assert parse_cone_file(f"dim {MAX_DIMENSION}\n").dim == MAX_DIMENSION
    with pytest.raises(ResourceLimitError, match=f"line 2: dimension {MAX_DIMENSION + 1} "):
        parse_cone_file(f"# wide\ndim {MAX_DIMENSION + 1}\n")
