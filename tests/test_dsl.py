import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaml import CircuitOp, execute
from qaml.dsl import SourceProgram, parse, to_dsl
from qaml.errors import ParseError

SQRT2_INV = 1.0 / math.sqrt(2.0)

# 30 valid programs for the round-trip corpus
VALID_PROGRAMS = [
    "qubits 1\nh 0\nmeasure all\n",
    "qubits 2\nh 0\ncx 0 1\nmeasure all\n",
    "qubits 3\n",
    "qubits 1\nx 0\n",
    "qubits 1\ny 0\nz 0\n",
    "qubits 2\nrx 0 1.5\nry 1 -0.25\n",
    "qubits 2\nrz 0 pi\n",
    "qubits 2\nrz 1 pi/2\n",
    "qubits 2\nrx 0 -pi/4\n",
    "qubits 3\nh 0\nh 1\nh 2\nmeasure all\n",
    "qubits 3\ncx 0 2\ncx 2 1\n",
    "qubits 1\n# just a comment\nh 0\n",
    "qubits 1\nh 0  # trailing comment\n",
    "qubits 2\n\n\nx 1\n",
    "QUBITS 2\nH 0\nCX 0 1\nMEASURE ALL\n",
    "qubits 4\nry 3 3pi/2\n",
    "qubits 1\nrx 0 0\n",
    "qubits 1\nrx 0 6.283185\n",
    "qubits 2\nrz 0 2pi\n",
    "qubits 5\nh 4\ncx 4 0\n",
    "qubits 2\nmeasure all\n",
    "qubits 1\nrx 0 1e-3\n",
    "qubits 1\nry 0 -2.5e2\n",
    "qubits 3\nx 0\ny 1\nz 2\ncx 1 2\nmeasure all\n",
    "qubits 2\nh 1\nrz 1 pi/8\nh 1\n",
    "qubits 6\ncx 5 3\n",
    "qubits 1\nrz 0 -pi\n",
    "qubits 2\nrx 1 +pi/2\n",
    "qubits 3\nh 0\ncx 0 1\ncx 1 2\nmeasure all\n",
    "qubits 1\nh 0\nh 0\nh 0\n",
]

# 30 malformed programs with the line number the error must name
MALFORMED_PROGRAMS = [
    ("h 0\n", 1),                                  # statement before header
    ("qubits 2\nqubits 2\n", 2),                   # duplicate header
    ("qubits 2\nh 5\n", 2),                        # index >= declared
    ("qubits 2\nfoo 0\n", 2),                      # unknown mnemonic
    ("qubits 2\nh\n", 2),                          # missing operand
    ("qubits 2\nh 0 1\n", 2),                      # extra token
    ("qubits 2\nrx 0\n", 2),                       # missing angle
    ("qubits 2\nrx 0 abc\n", 2),                   # malformed float
    ("qubits 2\nrx 0 pi/0\n", 2),                  # zero denominator
    ("qubits 2\ncx 1\n", 2),                       # missing target
    ("qubits 2\ncx 0 0\n", 2),                     # duplicate qubit
    ("qubits 2\ncx 0 2\n", 2),                     # target out of range
    ("qubits 0\n", 1),                             # non-positive count
    ("qubits two\n", 1),                           # malformed count
    ("qubits\n", 1),                               # missing count
    ("qubits 2 3\n", 1),                           # extra header token
    ("", 1),                                       # missing header entirely
    ("# only a comment\n", 1),                     # missing header entirely
    ("qubits 2\nmeasure\n", 2),                    # missing "all"
    ("qubits 2\nmeasure some\n", 2),               # wrong measure operand
    ("qubits 2\nh 0\ncx 0 1\nh 9\n", 4),           # error on a later line
    ("qubits 1\nh 0\nbadop 0\n", 3),               # unknown mnemonic, line 3
    ("qubits 2\nh -1\n", 2),                       # negative index
    ("qubits 2\nrx 1.5 0.5\n", 2),                 # non-integer index
    ("qubits 2\nh 0\n\nrz 0\n", 4),                # missing angle after blank
    ("qubits 3\nx 3\n", 2),                        # boundary index
    ("qubits 2\ncx 0 1 1\n", 2),                   # extra cx token
    ("qubits 2\nrz 0 pipi\n", 2),                  # garbled pi literal
    ("qubits 2\nh 0\nmeasure all extra\n", 3),     # extra after measure all
    ("x 0\nqubits 2\n", 1),                        # header not first
]

# (line, column, message, offending_token) of each malformed program's error
MALFORMED_ERRORS = {
    "h 0\n": (1, 1, 'statement before the "qubits" header', "h"),
    "qubits 2\nqubits 2\n": (2, 1, 'duplicate "qubits" header', "qubits"),
    "qubits 2\nh 5\n": (2, 3, "index 5 >= declared qubits (2)", "5"),
    "qubits 2\nfoo 0\n": (2, 1, "unknown mnemonic 'foo'", "foo"),
    "qubits 2\nh\n": (2, 1, "'h' expects 1 operand(s), got 0", "h"),
    "qubits 2\nh 0 1\n": (2, 5, "unexpected extra token '1'", "1"),
    "qubits 2\nrx 0\n": (2, 1, "'rx' expects 2 operand(s), got 1", "rx"),
    "qubits 2\nrx 0 abc\n": (2, 6, "malformed angle literal 'abc'", "abc"),
    "qubits 2\nrx 0 pi/0\n": (2, 6, "division by zero in angle", "pi/0"),
    "qubits 2\ncx 1\n": (2, 1, "'cx' expects 2 operand(s), got 1", "cx"),
    "qubits 2\ncx 0 0\n": (2, 6, "control and target must differ", "0"),
    "qubits 2\ncx 0 2\n": (2, 6, "index 2 >= declared qubits (2)", "2"),
    "qubits 0\n": (1, 8, "qubit count must be positive, got 0", "0"),
    "qubits two\n": (1, 8, "expected a qubit count, got 'two'", "two"),
    "qubits\n": (1, 1, "'qubits' expects 1 operand(s), got 0", "qubits"),
    "qubits 2 3\n": (1, 10, "unexpected extra token '3'", "3"),
    "": (1, 1, 'missing "qubits" header', ""),
    "# only a comment\n": (1, 1, 'missing "qubits" header', ""),
    "qubits 2\nmeasure\n": (2, 1, "'measure' expects 1 operand(s), got 0", "measure"),
    "qubits 2\nmeasure some\n": (2, 9, "expected \"all\" after measure, got 'some'", "some"),
    "qubits 2\nh 0\ncx 0 1\nh 9\n": (4, 3, "index 9 >= declared qubits (2)", "9"),
    "qubits 1\nh 0\nbadop 0\n": (3, 1, "unknown mnemonic 'badop'", "badop"),
    "qubits 2\nh -1\n": (2, 3, "index -1 >= declared qubits (2)", "-1"),
    "qubits 2\nrx 1.5 0.5\n": (2, 4, "expected a qubit index, got '1.5'", "1.5"),
    "qubits 2\nh 0\n\nrz 0\n": (4, 1, "'rz' expects 2 operand(s), got 1", "rz"),
    "qubits 3\nx 3\n": (2, 3, "index 3 >= declared qubits (3)", "3"),
    "qubits 2\ncx 0 1 1\n": (2, 8, "unexpected extra token '1'", "1"),
    "qubits 2\nrz 0 pipi\n": (2, 6, "malformed angle literal 'pipi'", "pipi"),
    "qubits 2\nh 0\nmeasure all extra\n": (3, 13, "unexpected extra token 'extra'", "extra"),
    "x 0\nqubits 2\n": (1, 1, 'statement before the "qubits" header', "x"),
}

# Token soup for fuzzing: words of the grammar, near misses, and separators
# that str.split treats as whitespace (some of which also end a line).
_WORDS = st.sampled_from(
    ["qubits", "QUBITS", "h", "X", "y", "z", "rx", "Ry", "rz", "cx", "CX", "measure", "all",
     "foo", "0", "1", "2", "3", "5", "-1", "+1", "00", "1.5", "two", "pi", "-pi/4", "3pi/2",
     "pi/0", "pipi", "0.5", "-2.5e2", "nan", "1e400", "abc", "#", "h#x", "# note"]
)
_SPACE = st.sampled_from([" ", "  ", "\t", "\u00a0", "\u2003", "\x0c", "\x85"])


@st.composite
def _soup_line(draw):
    words = draw(st.lists(_WORDS, max_size=5))
    seps = draw(st.lists(_SPACE, min_size=len(words) + 1, max_size=len(words) + 1))
    return seps[0] + "".join(w + s for w, s in zip(words, seps[1:]))


_SOUP_PROGRAM = st.builds(
    lambda header, body: "\n".join(header + body),
    st.sampled_from([[], ["qubits 3"], ["qubits 1"]]),
    st.lists(_soup_line(), max_size=8),
)


class TestParseExamples:
    def test_smallest_program(self):
        circ = parse("qubits 1\nh 0\nmeasure all")
        assert circ.n_qubits == 1
        assert circ.ops == (CircuitOp("H", (0,)),)
        assert circ.measure_all

    def test_bell_pair_round_trip_through_execute(self):
        circ = parse("qubits 2\nh 0\ncx 0 1\nmeasure all")
        amps = execute(circ).amplitudes
        assert np.allclose(amps, [SQRT2_INV, 0, 0, SQRT2_INV], atol=1e-12)

    def test_index_validation(self):
        with pytest.raises(ParseError) as info:
            parse("qubits 2\nh 5")
        assert info.value.line == 2
        assert "5" in str(info.value)

    def test_pi_literals(self):
        circ = parse("qubits 1\nrx 0 pi\nry 0 pi/2\nrz 0 -pi/4\nrx 0 3pi/2")
        angles = [op.angle for op in circ.ops]
        assert angles == pytest.approx(
            [math.pi, math.pi / 2, -math.pi / 4, 3 * math.pi / 2]
        )

    @pytest.mark.parametrize(
        "angle",
        ["nan", "inf", "-inf", "Infinity", "1e400", pytest.param("9" * 400 + "pi", id="huge-pi")],
    )
    def test_non_finite_angle_is_a_parse_error(self, angle):
        with pytest.raises(ParseError, match="angle must be finite") as info:
            parse(f"qubits 2\nh 1\nrx 0 {angle}\n")
        assert (info.value.line, info.value.column) == (3, 6)
        assert info.value.offending_token == angle

    def test_source_program_origin(self):
        circ = parse(SourceProgram("qubits 1\nx 0", "prog.q"))
        assert circ.ops[0].gate_name == "X"


class TestValidCorpus:
    @pytest.mark.parametrize("text", VALID_PROGRAMS)
    def test_round_trip(self, text):
        circ = parse(text)
        assert parse(to_dsl(circ)) == circ


class TestMalformedCorpus:
    @pytest.mark.parametrize("text,line", MALFORMED_PROGRAMS)
    def test_error_names_the_right_line(self, text, line):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line == line
        assert info.value.column >= 1
        # position must address real input (or line 1 for empty programs)
        lines = text.splitlines() or [""]
        assert info.value.line <= max(len(lines), 1)


class TestErrorFields:
    def test_every_malformed_program_is_pinned(self):
        assert set(MALFORMED_ERRORS) == {text for text, _ in MALFORMED_PROGRAMS}

    @pytest.mark.parametrize("text,line", MALFORMED_PROGRAMS)
    def test_error_fields(self, text, line):
        with pytest.raises(ParseError) as info:
            parse(text)
        error = info.value
        assert (error.line, error.column, error.message, error.offending_token) == MALFORMED_ERRORS[text]


@settings(max_examples=400, deadline=None)
@given(_SOUP_PROGRAM)
def test_token_soup_round_trips_or_points_at_its_token(text):
    try:
        circ = parse(text)
    except ParseError as error:
        assert error.line >= 1 and error.column >= 1
        if error.offending_token:
            line = text.splitlines()[error.line - 1]
            start = error.column - 1
            assert line[start : start + len(error.offending_token)] == error.offending_token
    else:
        assert parse(to_dsl(circ)) == circ
