"""Tests for the Raqlet facade (public API) and the command-line interface."""

import pytest

from repro import Raqlet
from repro.cli import main
from repro.common.errors import RaqletError, UnsupportedFeatureError

from tests.conftest import PAPER_FACTS, PAPER_QUERY, PAPER_SCHEMA_TEXT


# -- facade ---------------------------------------------------------------------


def test_raqlet_accepts_schema_text():
    raqlet = Raqlet(PAPER_SCHEMA_TEXT)
    assert "Person" in raqlet.dl_schema


def test_raqlet_accepts_pg_schema_object(paper_schema):
    raqlet = Raqlet(paper_schema)
    assert "Person_IS_LOCATED_IN_City" in raqlet.dl_schema


def test_raqlet_rejects_unknown_schema_type():
    with pytest.raises(RaqletError):
        Raqlet(12345)


def test_compile_cypher_produces_all_artifacts(paper_raqlet):
    compiled = paper_raqlet.compile_cypher(PAPER_QUERY)
    assert compiled.source_language == "cypher"
    assert compiled.pgir_text()
    assert compiled.cypher_text()
    assert compiled.datalog_text()
    assert compiled.sql_text()
    assert compiled.sqir().ctes
    assert compiled.analysis is not None
    assert compiled.warnings() == []


def test_compile_without_optimization_keeps_program_identical(paper_raqlet):
    compiled = paper_raqlet.compile_cypher(PAPER_QUERY, optimize=False)
    assert compiled.program(optimized=True) is compiled.program(optimized=False)


def test_compile_datalog_merges_schema_relations(paper_raqlet):
    program_text = """
    .decl Located(person:number, city:number)
    Located(p, c) :- Person_IS_LOCATED_IN_City(p, c, _).
    .output Located
    """
    compiled = paper_raqlet.compile_datalog(program_text)
    result = paper_raqlet.run_on_datalog_engine(compiled, PAPER_FACTS)
    assert result.row_set() == {(42, 1), (43, 2), (44, 1)}


def test_compile_dlir_wraps_existing_program(paper_raqlet):
    from repro.dlir.builder import ProgramBuilder

    builder = ProgramBuilder()
    builder.edb("Person", [("id", "number"), ("firstName", "symbol"), ("locationIP", "symbol")])
    builder.idb("Named", [("name", "symbol")])
    builder.rule("Named", ["n"], [("Person", ["_", "n", "_"])])
    builder.output("Named")
    compiled = paper_raqlet.compile_dlir(builder.build())
    result = paper_raqlet.run_on_datalog_engine(compiled, PAPER_FACTS)
    assert result.row_set() == {("Ada",), ("Alan",), ("Edgar",)}


def test_backend_problems_for_unknown_backend(paper_raqlet):
    compiled = paper_raqlet.compile_cypher(PAPER_QUERY)
    with pytest.raises(RaqletError):
        compiled.backend_problems("oracle")


def test_graph_execution_requires_cypher_input(paper_raqlet):
    compiled = paper_raqlet.compile_datalog(
        ".decl Q(x:number)\nQ(x) :- Person(x, _, _).\n.output Q"
    )
    with pytest.raises(RaqletError):
        paper_raqlet.run_on_graph_engine(compiled, None)


def test_unsupported_query_raises_on_relational_backend(snb_raqlet, snb_data):
    compiled = snb_raqlet.compile_cypher(
        "MATCH p = shortestPath((a:Person {id:1})-[:KNOWS*]-(b:Person {id:2})) "
        "RETURN length(p) AS hops"
    )
    with pytest.raises(UnsupportedFeatureError):
        snb_raqlet.run_on_relational_engine(compiled, snb_data.relational_database())


def test_warnings_surface_dropped_order_by(paper_raqlet):
    compiled = paper_raqlet.compile_cypher(
        "MATCH (n:Person) RETURN n.id AS id ORDER BY id LIMIT 1"
    )
    assert any("ORDER BY" in warning for warning in compiled.warnings())


# -- CLI --------------------------------------------------------------------------


@pytest.fixture()
def schema_and_query_files(tmp_path):
    schema_path = tmp_path / "schema.pgs"
    schema_path.write_text(PAPER_SCHEMA_TEXT, encoding="utf-8")
    query_path = tmp_path / "query.cyp"
    query_path.write_text(PAPER_QUERY, encoding="utf-8")
    return str(schema_path), str(query_path)


def test_cli_compile_emits_all_artifacts(schema_and_query_files, capsys):
    schema_path, query_path = schema_and_query_files
    exit_code = main(["compile", "--schema", schema_path, "--cypher", query_path])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Soufflé Datalog" in captured.out
    assert ".output Return" in captured.out
    assert "SELECT DISTINCT" in captured.out


def test_cli_compile_datalog_input(tmp_path, capsys):
    schema_path = tmp_path / "schema.pgs"
    schema_path.write_text(PAPER_SCHEMA_TEXT, encoding="utf-8")
    datalog_path = tmp_path / "prog.dl"
    datalog_path.write_text(
        ".decl Q(x:number)\nQ(x) :- Person(x, _, _).\n.output Q\n", encoding="utf-8"
    )
    exit_code = main(
        ["compile", "--schema", str(schema_path), "--datalog", str(datalog_path), "--emit", "sql"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "SELECT" in captured.out


def test_cli_analyze_reports_backend_support(schema_and_query_files, capsys):
    schema_path, query_path = schema_and_query_files
    exit_code = main(["analyze", "--schema", schema_path, "--cypher", query_path])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "static analysis report" in captured.out
    assert "backend souffle" in captured.out


def test_cli_parameters_parsed_as_json(tmp_path, capsys):
    schema_path = tmp_path / "schema.pgs"
    schema_path.write_text(PAPER_SCHEMA_TEXT, encoding="utf-8")
    query_path = tmp_path / "query.cyp"
    query_path.write_text(
        "MATCH (n:Person {id: $personId}) RETURN n.firstName AS name", encoding="utf-8"
    )
    exit_code = main(
        [
            "compile",
            "--schema",
            str(schema_path),
            "--cypher",
            str(query_path),
            "--param",
            "personId=42",
            "--emit",
            "dlir",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "42" in captured.out


def test_cli_ldbc_runs_all_engines(capsys):
    exit_code = main(["ldbc", "--query", "sq1", "--scale", "40", "--show-rows", "1"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "engines agree: True" in captured.out


def test_cli_ldbc_repeat_warm_path(capsys):
    exit_code = main(
        ["ldbc", "--query", "sq1", "--scale", "40", "--repeat", "3", "--explain"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "warm session path (3 runs)" in captured.out
    assert "run 1 (cold)" in captured.out
    assert "run 3 (warm)" in captured.out
    # The whole point of the session: one ingest, one plan build, no re-plans.
    assert "ingests=1 plan_builds=1 replans=0" in captured.out
    assert "datalog plan report" in captured.out


def test_cli_rejects_bad_parameter_syntax(schema_and_query_files):
    schema_path, query_path = schema_and_query_files
    with pytest.raises(SystemExit):
        main(
            [
                "compile",
                "--schema",
                schema_path,
                "--cypher",
                query_path,
                "--param",
                "nonsense",
            ]
        )
