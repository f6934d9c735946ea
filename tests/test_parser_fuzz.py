"""Input hardening: every text the parsers see gives a value or a ValueError.

The CLI turns a ValueError into exit 2 with a one-line message; any other
exception would be reported as an internal error, so none may escape.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cluedit import parse_assignment, parse_dimacs, parse_graph

# tokens near the grammar of both formats, plus numbers that int() rejects
# (over 4300 digits, superscripts) or accepts in other scripts (Arabic-Indic)
TOKENS = st.one_of(
    st.sampled_from(["p", "cep", "cnf", "e", "0", "-", "--1", "+2",
                     "1.5", "1e3", "0x10", "10000001", "99999999999",
                     "1" * 5000, "²", "١٢", "٣"]),
    st.integers(-5, 30).map(str),
    st.text(max_size=3),
)
# a line is a record tag (or none) and up to five tokens
LINES = st.builds(lambda tag, toks: " ".join([tag, *toks]),
                  st.sampled_from(["p cep", "p cnf", "p", "e", "c", "%", ""]),
                  st.lists(TOKENS, max_size=5))
STRUCTURED = st.lists(LINES, max_size=8).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), STRUCTURED))
def test_parsers_answer_or_reject(text):
    for parse in (parse_graph, parse_dimacs, parse_assignment):
        try:
            parse(text)
        except ValueError:
            pass
