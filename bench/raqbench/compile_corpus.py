"""``compile_corpus`` — the compiler alone.

Op = one corpus program compiled source -> PGIR/SQIR -> DLIR -> analyse ->
optimise -> SQIR and emitted as Soufflé, SQL (``sqlite`` dialect) and, for
Cypher inputs, normalised Cypher.  Frontends, ``pgir``, ``dlir``, ``sqir``,
``analysis``, ``optimize`` and ``backends`` do all the work; no engine layer
runs inside the measured phase.

Correctness has two parts.  Every op's emitted texts must be byte-identical
to the first compilation of the run (the compiler is deterministic).  And in
set-up each program's *emitted* form is executed on a small seeded dataset
and compared with an independent reference: the **unoptimised** DLIR on the
plan interpreter versus the optimised program's generated SQL on SQLite
(for shortest path, which SQL cannot express, the optimised program on the
compiled executor).
"""

from __future__ import annotations

import glob
import os
import random
from typing import Dict, List, Tuple

from repro.analysis import analyze_program
from repro.backends import dlir_to_souffle, pgir_to_cypher, sqir_to_sql
from repro.dlir import translate_pgir_to_dlir
from repro.frontend.cypher import parse_cypher
from repro.frontend.datalog import parse_datalog
from repro.frontend.sql import parse_sql
from repro.ldbc import load_dataset, snb_schema_mapping
from repro.optimize import default_pipeline, optimize_program
from repro.pgir import lower_cypher_to_pgir
from repro.pipeline import CompiledQuery, Raqlet
from repro.sqir import translate_dlir_to_sqir
from repro.sqir.to_dlir import translate_sqir_to_dlir

from raqbench.harness import (
    BENCH_DIR,
    DATA_SEED,
    Digest,
    Workload,
    digest,
    typical_persons,
)
from raqbench.tracing import traced_passes

CORPUS_DIR = os.path.join(BENCH_DIR, "corpus")
LANGUAGES = {".cyp": "cypher", ".dl": "datalog", ".sql": "sql"}

#: passes over the corpus in one lap (12 programs, ~3 ms each): short laps,
#: because the fewer milliseconds a lap takes, the more laps no neighbour hits
PASSES_PER_LAP = 4
#: persons in the dataset the emitted programs are checked on
CHECK_SCALE = 40


def load_corpus() -> List[Tuple[str, str, str]]:
    """Return ``(name, language, text)`` for every committed program."""
    programs = []
    for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*"))):
        stem, extension = os.path.splitext(os.path.basename(path))
        if extension not in LANGUAGES:
            continue
        with open(path, "r", encoding="utf-8") as handle:
            programs.append((stem, LANGUAGES[extension], handle.read()))
    return programs


class CompileCorpus(Workload):
    name = "compile_corpus"

    def setup(self) -> None:
        self.mapping = snb_schema_mapping()
        self.raqlet = Raqlet(self.mapping)
        self.programs = load_corpus()
        passes = 1 if self.smoke else PASSES_PER_LAP
        order = list(range(len(self.programs)))
        self.sequence: List[int] = []
        for _ in range(passes):
            self.rng.shuffle(order)
            self.sequence.extend(order)
        self.ops_per_lap = len(self.sequence)
        compile_one = self._compile_traced if self.recorder else self._compile
        self._compile_one = compile_one
        # The texts every later compilation must reproduce byte for byte.
        self.first_texts = {
            name: compile_one(language, text)[1]
            for name, language, text in self.programs
        }
        self.ops = [self._op(*program) for program in self.programs]
        if self.recorder:
            self._check_traced_twin()
        self._check_emitted_programs()

    # -- the op ------------------------------------------------------------

    def _compile(self, language: str, text: str):
        raqlet = self.raqlet
        if language == "cypher":
            compiled = raqlet.compile_cypher(text)
        elif language == "datalog":
            compiled = raqlet.compile_datalog(text)
        else:
            compiled = raqlet.compile_sql(text)
        texts = {"souffle": compiled.datalog_text()}
        if not compiled.backend_problems("sqlite"):
            texts["sql"] = compiled.sql_text(dialect="sqlite")
        if compiled.lowering is not None:
            texts["cypher"] = compiled.cypher_text()
        return compiled, texts

    def _compile_traced(self, language: str, text: str):
        """The same compilation, one public step function at a time."""
        span = self.recorder.span
        lowering = None
        if language == "cypher":
            with span("frontend.cypher.parse"):
                ast = parse_cypher(text)
            with span("pgir.lower"):
                lowering = lower_cypher_to_pgir(ast, None)
            with span("dlir.from_pgir"):
                dlir = translate_pgir_to_dlir(lowering, self.mapping)
        elif language == "datalog":
            with span("frontend.datalog.parse"):
                dlir = parse_datalog(text, schema=self.mapping.dl_schema)
        else:
            with span("frontend.sql.parse"):
                sqir_in = parse_sql(text)
            with span("sqir.to_dlir"):
                dlir = translate_sqir_to_dlir(sqir_in, self.mapping.dl_schema)
        with span("analysis.analyze"):
            analysis = analyze_program(dlir)
        with span("optimize.total"):
            optimized, trace = optimize_program(
                dlir,
                self.mapping,
                passes=traced_passes(default_pipeline(self.mapping), self.recorder),
            )
        compiled = CompiledQuery(
            source_language=language,
            source_text=text,
            lowering=lowering,
            dlir=dlir,
            dlir_optimized=optimized,
            optimization_trace=trace,
            analysis=analysis,
        )
        texts = {}
        with span("backends.souffle"):
            texts["souffle"] = dlir_to_souffle(optimized)
        if not compiled.backend_problems("sqlite"):
            with span("sqir.from_dlir"):
                sqir = translate_dlir_to_sqir(optimized)
            with span("backends.sql"):
                texts["sql"] = sqir_to_sql(sqir, dialect="sqlite")
        if lowering is not None:
            with span("backends.cypher"):
                texts["cypher"] = pgir_to_cypher(lowering.query)
        self.count("dlir.rule_count", len(dlir.rules))
        self.count("optimize.rule_count_out", len(optimized.rules))
        self.count(
            "optimize.applied_count",
            sum(1 for application in trace.applications if application.changed),
        )
        self.count("backends.emitted_bytes", sum(len(t) for t in texts.values()))
        return compiled, texts

    def _check_traced_twin(self) -> None:
        """The step-by-step compilation must emit what the public entry
        points emit — or the layer table describes another program."""
        for name, language, text in self.programs:
            same = self._compile(language, text)[1] == self.first_texts[name]
            self.record(
                "check/traced-twin", 0.0, same, f"{name}: traced steps emit other text than Raqlet.compile_*"
            )

    def _op(self, name: str, language: str, text: str):
        compile_one = self._compile_one
        first = self.first_texts[name]
        return (
            f"compile/{name}",
            lambda: compile_one(language, text)[1],
            lambda texts: "" if texts == first else "emitted text changed between compilations",
        )

    def lap(self) -> None:
        ops = self.ops
        for index in self.sequence:
            self.timed(*ops[index])

    # -- what the emitted programs compute ---------------------------------

    def _params_for(self, compiled) -> Dict[str, object]:
        return {name: self.bindings[name] for name in compiled.param_names()}

    def _load_check_data(self) -> None:
        if hasattr(self, "check_data"):
            return
        self.check_data = load_dataset(CHECK_SCALE, DATA_SEED)
        dataset = self.check_data.dataset
        person, other = random.Random(self.seed).sample(typical_persons(dataset, 8), 2)
        self.bindings = {
            "personId": person,
            "maxDate": dataset.median_message_date(),
            "person1Id": person,
            "person2Id": other,
        }

    def reference(self) -> Dict[str, Digest]:
        """Unoptimised DLIR on the plan interpreter."""
        self._load_check_data()
        expected = {}
        for name, language, text in self.programs:
            compiled = self._compile(language, text)[0]
            result = self.raqlet.run_on_datalog_engine(
                compiled,
                self.check_data.facts,
                optimized=False,
                store="memory",
                executor="interpreted",
                parameters=self._params_for(compiled),
            )
            expected[f"result/{name}"] = digest(result.rows)
        return expected

    def second_reference(self) -> Dict[str, Digest]:
        """What the *emitted* (optimised) programs compute."""
        self._load_check_data()
        sqlite = self.check_data.sqlite_executor()
        got = {}
        for name, language, text in self.programs:
            compiled, texts = self._compile(language, text)
            params = self._params_for(compiled)
            if "sql" in texts:
                result = sqlite.execute_sql(texts["sql"], params)
            else:
                result = self.raqlet.run_on_datalog_engine(
                    compiled,
                    self.check_data.facts,
                    store="memory",
                    executor="compiled",
                    parameters=params,
                )
            got[f"result/{name}"] = digest(result.rows)
        return got

    def _check_emitted_programs(self) -> None:
        self.adopt_reference()
        emitted = self.second_reference()
        for key, want in self.expected.items():
            ok = emitted.get(key) == want
            self.record(
                "check/emitted-program",
                0.0,
                ok,
                f"{key}: emitted program gives {emitted.get(key)}, reference {want}",
            )

    def close(self) -> None:
        if hasattr(self, "check_data"):
            self.check_data.close()
