"""Raqlet's own SQL re-enters Raqlet.

Every benchmark-corpus program the SQLite backend accepts is compiled, its
emitted SQL is compiled again through the SQL frontend, and both programs
must return the same rows on a small LDBC dataset under the same binding.
Late-bound parameters travel through the text as ``:name`` placeholders,
and ``lurkers_negation`` takes the ``NOT EXISTS`` path back into DLIR.
"""

from __future__ import annotations

import os

import pytest

from repro.ldbc import load_dataset, snb_schema_mapping
from repro.pipeline import Raqlet

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "bench", "corpus")
COMPILERS = {".cyp": "compile_cypher", ".dl": "compile_datalog", ".sql": "compile_sql"}
LURKER = 42


def _corpus():
    programs = []
    for entry in sorted(os.listdir(CORPUS_DIR)):
        stem, extension = os.path.splitext(entry)
        if extension in COMPILERS:
            with open(os.path.join(CORPUS_DIR, entry), encoding="utf-8") as handle:
                programs.append(pytest.param(COMPILERS[extension], handle.read(), id=stem))
    return programs


@pytest.fixture(scope="module")
def raqlet():
    return Raqlet(snb_schema_mapping())


@pytest.fixture(scope="module")
def world():
    """Facts plus bindings.  One extra person, 42, knows the bound person,
    lives in a city and never posts, so the negation and running-example
    programs answer with rows instead of vacuously."""
    dataset = load_dataset(40, 7).dataset
    persons = sorted(dataset.person_ids)
    person = dataset.default_person_id()
    facts = {relation: list(rows) for relation, rows in dataset.facts.items()}
    width = len(facts["Person"][0])
    facts["Person"].append((LURKER, "Lurky") + ("x",) * (width - 2))
    facts["Person_KNOWS_Person"].append((person, LURKER, 999_001, 0))
    city = facts["City"][0][0]
    facts["Person_IS_LOCATED_IN_City"].append((LURKER, city, 999_002))
    bindings = {
        "personId": person,
        "person1Id": persons[0],
        "person2Id": persons[5],
        "maxDate": dataset.median_message_date(),
    }
    return facts, bindings


@pytest.mark.parametrize("compiler, text", _corpus())
def test_emitted_sql_reenters_through_the_sql_frontend(raqlet, world, compiler, text):
    facts, bindings = world
    compiled = getattr(raqlet, compiler)(text)
    if compiled.backend_problems("sqlite"):
        pytest.skip("SQL cannot express this program")
    again = raqlet.compile_sql(compiled.sql_text())
    assert again.param_names() == compiled.param_names()
    params = {name: bindings[name] for name in compiled.param_names()}
    expected = raqlet.run_on_datalog_engine(compiled, facts, parameters=params)
    got = raqlet.run_on_datalog_engine(again, facts, parameters=params)
    assert expected.rows
    assert got.row_set() == expected.row_set()
