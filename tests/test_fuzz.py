"""Fuzzing of the input parsers: malformed text may only raise ValueError
(InstanceError is one), never another exception.

Examples are derandomized, so every run draws the same inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ecvrp.instance import InstanceError, parse_instance, serialize_instance
from ecvrp.solution import parse_solution_file, split_expanded_route
from conftest import make_instance

FUZZ = settings(max_examples=250, derandomize=True, deadline=None)

BASE_INSTANCE = """NAME: fuzz
TYPE: EVRP
OPTIMAL_VALUE: 99.5
VEHICLES: 2
DIMENSION: 4
STATIONS: 2
CAPACITY: 10
ENERGY_CAPACITY: 50.0
ENERGY_CONSUMPTION: 1.0
NODE_COORD_SECTION
1 0 0
2 3 2
3 6 4
4 9 1
5 12 3
6 15 0
DEMAND_SECTION
1 0
2 1
3 4
4 2
STATIONS_COORD_SECTION
5
6
DEPOT_SECTION
1
-1
EOF"""

KEYWORDS = ["NAME", "TYPE", "OPTIMAL_VALUE", "VEHICLES", "DIMENSION",
            "STATIONS", "CAPACITY", "ENERGY_CAPACITY", "ENERGY_CONSUMPTION",
            "NODE_COORD_SECTION", "DEMAND_SECTION", "STATIONS_COORD_SECTION",
            "DEPOT_SECTION", "EOF", "COST"]

TOKENS = st.one_of(
    st.sampled_from(["0", "1", "2", "5", "-1", "7", "1.5", "-0.0", "1e400",
                     "nan", "inf", "-inf", "two", "", ":", "#", ",", "0,1,0",
                     *KEYWORDS, *(k + ":" for k in KEYWORDS)]),
    st.integers(-10, 10).map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)


@st.composite
def edited_lines(draw, base: str):
    """base with a few lines dropped, duplicated, swapped, inserted or
    with one token replaced."""
    lines = base.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "dup", "swap", "insert",
                                     "token"]))
        if kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "insert":
            lines.insert(i, " ".join(draw(st.lists(TOKENS, max_size=3))))
        else:
            sep = draw(st.sampled_from([" ", ",", ":"]))
            parts = lines[i].split(sep)
            parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
            lines[i] = sep.join(parts)
    return "\n".join(lines)


class TestParseInstance:
    @FUZZ
    @given(st.one_of(edited_lines(BASE_INSTANCE), st.text(max_size=200)))
    def test_only_instance_errors_escape(self, text):
        try:
            inst = parse_instance(text)
        except InstanceError:
            return
        # whatever parses survives a write/read cycle unchanged
        assert parse_instance(serialize_instance(inst)) == inst


BASE_SOLUTION = """# solution of fuzz
0,1,5,2,0
0,3,5,6,0
COST 61.25"""


class TestParseSolution:
    @FUZZ
    @given(st.one_of(edited_lines(BASE_SOLUTION), st.text(max_size=120)))
    def test_only_value_errors_escape(self, text):
        try:
            routes, reported = parse_solution_file(text)
        except ValueError:
            return
        for nodes in routes:
            assert nodes[0] == nodes[-1] == 0 and 0 not in nodes[1:-1]


class TestSplitExpandedRoute:
    INST = make_instance(customers=[(3, 2), (6, 4), (9, 1)],
                         stations=[(12, 3), (15, 0)])

    @FUZZ
    @given(st.lists(st.integers(-2, 8), max_size=12))
    def test_only_value_errors_escape(self, expanded):
        try:
            route, slots = split_expanded_route(expanded, self.INST)
        except ValueError:
            return
        assert all(1 <= c <= self.INST.num_customers for c in route)
