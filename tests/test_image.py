import numpy as np
import pytest

from bilevel import (
    BinaryImage,
    GrayImage,
    IterationStep,
    RunReport,
    build_histogram,
    iterative_optimum_threshold,
    mean_threshold,
)


def test_from_flat_row_major_layout():
    img = GrayImage.from_flat(3, 2, [1, 2, 3, 4, 5, 6])
    assert img.width == 3
    assert img.height == 2
    assert img.pixels.tolist() == [[1, 2, 3], [4, 5, 6]]


def test_from_flat_length_mismatch_rejected():
    with pytest.raises(ValueError, match="width x height"):
        GrayImage.from_flat(2, 2, [0, 0, 0])


@pytest.mark.parametrize("width,height", [(-2, -3), (-1, 1)])
def test_from_flat_rejects_dimensions_below_1x1(width, height):
    # Checked before the reshape: -2 x -3 matches the 6 values in size.
    with pytest.raises(ValueError, match=f"at least 1x1, got {width}x{height}"):
        GrayImage.from_flat(width, height, range(abs(width * height)))


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
def test_empty_dimensions_rejected(shape):
    with pytest.raises(ValueError, match="at least 1x1"):
        GrayImage(np.zeros(shape, dtype=np.uint8))


def test_non_2d_buffer_rejected():
    with pytest.raises(ValueError, match="2-D"):
        GrayImage(np.zeros((2, 2, 3), dtype=np.uint8))


@pytest.mark.parametrize("value", [-1, 256, 1000])
def test_out_of_range_values_rejected(value):
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        GrayImage(np.array([[0, value]], dtype=np.int16))


def test_float_pixels_rejected():
    with pytest.raises(ValueError, match="integers"):
        GrayImage(np.array([[0.5, 1.0]]))


def test_pixels_are_read_only():
    img = GrayImage.from_flat(2, 1, [3, 4])
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 9


def _immutable_values():
    gray = GrayImage.from_flat(2, 1, [3, 4])
    result = iterative_optimum_threshold(gray)
    return [
        (gray, "pixels"),
        (BinaryImage.from_flat(2, 1, [0, 255]), "pixels"),
        (build_histogram(gray), "counts"),
        (result.iterations[0], "estimate"),
        (result, "optimum"),
        (RunReport(input_path="in.pgm", width=2, height=1, iterative_result=result), "width"),
    ]


# Named fields, not dataclasses.fields(): any immutable replacement must pass too.
@pytest.mark.parametrize(
    "value,field", [pytest.param(*case, id=type(case[0]).__name__) for case in _immutable_values()]
)
def test_fields_cannot_be_assigned(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    assert getattr(value, field) is before


def _value_cases():
    """Per public value type: a value, its equal made apart, a value it must not equal, its repr, hashable."""
    gray = GrayImage.from_flat(2, 1, [3, 200])
    result, twin = (iterative_optimum_threshold(GrayImage.from_flat(2, 1, [3, 200])) for _ in "ab")
    step = "IterationStep(estimate=101.0, m1=3.0, m2=200.0, total_mean=101.5)"
    result_repr = (
        f"ThresholdResult(method='iterative', estimate=101.5, optimum=101.5, iterations=({step},), "
        "converged=True)"
    )
    report, report_twin = (
        RunReport(input_path="in.pgm", width=2, height=1, iterative_result=r) for r in (result, twin)
    )
    two_levels = [0, 255]
    return {
        # Images and histograms compare by pixels or counts, never across types, and are unhashable.
        "GrayImage": (
            gray, GrayImage.from_flat(2, 1, [3, 200]), BinaryImage.from_flat(2, 1, two_levels),
            "GrayImage(width=2, height=1)", False,
        ),
        "BinaryImage": (
            BinaryImage.from_flat(2, 1, two_levels), BinaryImage.from_flat(2, 1, two_levels),
            GrayImage.from_flat(2, 1, two_levels), "BinaryImage(width=2, height=1)", False,
        ),
        "Histogram": (
            build_histogram(gray), build_histogram(GrayImage.from_flat(1, 2, [200, 3])),
            build_histogram(GrayImage.from_flat(2, 1, [3, 201])), "Histogram(total=2)", False,
        ),
        # The dataclass results keep the dataclass repr, equality and hash.
        "IterationStep": (
            result.iterations[0], twin.iterations[0], IterationStep(101.0, 3.0, 200.0, 101.0), step, True,
        ),
        "ThresholdResult": (result, twin, mean_threshold(gray), result_repr, True),
        "RunReport": (
            report, report_twin, RunReport(input_path="in.pgm", width=2, height=1, mean_result=result),
            "RunReport(input_path='in.pgm', width=2, height=1, mean_result=None, "
            f"iterative_result={result_repr}, histogram_input_path=None, histogram_output_path=None)",
            True,
        ),
    }


@pytest.mark.parametrize("kind", list(_value_cases()))
def test_equality_repr_and_hashing_of_value_types(kind):
    value, equal, other, text, hashable = _value_cases()[kind]
    assert value == equal and not value != equal and value is not equal
    assert value != other and not value == other
    assert value.__eq__("x") is NotImplemented and value != "x"
    assert repr(value) == text
    if hashable:
        assert hash(value) == hash(equal)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def test_caller_buffer_not_aliased():
    # Each pair is (what the caller can still write, what it hands over):
    # the array itself, a read-only view of it, a read-only array over a bytearray.
    source = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    owner = bytearray([1, 2, 3, 4])
    cases = [
        (source, source),
        (source, read_only(source.view())),
        (np.frombuffer(owner, dtype=np.uint8), read_only(np.frombuffer(owner, np.uint8))),
    ]
    for writable, handed in cases:
        img = GrayImage(handed.reshape(2, 2))
        writable.reshape(-1)[0] = 200
        assert img.pixels[0, 0] == 1
        writable.reshape(-1)[0] = 1


def test_equality_is_pixelwise():
    a = GrayImage.from_flat(2, 1, [1, 2])
    b = GrayImage.from_flat(2, 1, [1, 2])
    c = GrayImage.from_flat(2, 1, [1, 3])
    d = GrayImage.from_flat(1, 2, [1, 2])
    assert a == b
    assert a != c
    assert a != d  # same values, transposed dimensions


def test_binary_image_levels_enforced():
    assert BinaryImage.from_flat(2, 1, [0, 255]).pixels.tolist() == [[0, 255]]
    with pytest.raises(ValueError, match="only 0 and 255"):
        BinaryImage.from_flat(2, 1, [0, 254])


@pytest.mark.parametrize("level", [1, 128])
def test_public_binary_constructors_reject_other_levels(level):
    with pytest.raises(ValueError, match="only 0 and 255"):
        BinaryImage(np.array([[0, 255], [level, 0]], dtype=np.uint8))
    with pytest.raises(ValueError, match="only 0 and 255"):
        BinaryImage.from_flat(3, 1, [255, level, 0])


def test_binary_to_gray_keeps_values():
    binary = BinaryImage.from_flat(2, 2, [0, 255, 255, 0])
    gray = binary.to_gray()
    assert isinstance(gray, GrayImage)
    assert np.array_equal(gray.pixels, binary.pixels)


def test_gray_and_binary_do_not_compare_equal():
    gray = GrayImage.from_flat(2, 1, [0, 255])
    binary = BinaryImage.from_flat(2, 1, [0, 255])
    assert gray != binary
