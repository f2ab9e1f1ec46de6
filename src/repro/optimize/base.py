"""Optimizer pass framework: the :class:`Pass` protocol and :class:`PassManager`."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.dlir.core import DLIRProgram


class Pass(abc.ABC):
    """A DLIR-to-DLIR transformation.

    Passes must not mutate their input program; they return a new program
    (sharing unchanged rule objects is fine, rules are immutable).
    """

    #: Human-readable pass name used in traces and benchmark output.
    name: str = "pass"

    @abc.abstractmethod
    def run(self, program: DLIRProgram) -> DLIRProgram:
        """Apply the transformation and return the (possibly new) program."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass
class PassApplication:
    """Statistics of one pass application."""

    pass_name: str
    rules_before: int
    rules_after: int
    changed: bool

    def __str__(self) -> str:
        return (
            f"{self.pass_name}: {self.rules_before} -> {self.rules_after} rules"
            f" ({'changed' if self.changed else 'no change'})"
        )


@dataclass
class OptimizationTrace:
    """The record of a full optimization run."""

    applications: List[PassApplication] = field(default_factory=list)

    def total_rule_reduction(self) -> int:
        """Return the net number of rules removed across the run."""
        if not self.applications:
            return 0
        return self.applications[0].rules_before - self.applications[-1].rules_after

    def to_text(self) -> str:
        """Render the trace, one pass per line."""
        return "\n".join(str(application) for application in self.applications)


class PassManager:
    """Run a pipeline of passes, optionally iterating until a fixpoint."""

    def __init__(self, passes: Sequence[Pass], iterate: bool = False, max_rounds: int = 5) -> None:
        self._passes = list(passes)
        self._iterate = iterate
        self._max_rounds = max_rounds
        self.trace = OptimizationTrace()

    def run(self, program: DLIRProgram) -> DLIRProgram:
        """Apply the pipeline to ``program`` and return the optimized program.

        Iterating, the passes run in order, round after round, until every
        pass in a row has left the program unchanged: a pass is a function
        of its input, so one that already saw the current program has
        nothing more to do, and the fixpoint is reached mid-round.
        """
        self.trace = OptimizationTrace()
        current = program
        passes = self._passes
        rounds = self._max_rounds if self._iterate else 1
        unchanged = 0
        for step in range(rounds * len(passes)):
            optimization = passes[step % len(passes)]
            before = len(current.rules)
            result = optimization.run(current)
            after = len(result.rules)
            changed = result is not current and (
                after != before or result.rules != current.rules
            )
            self.trace.applications.append(
                PassApplication(
                    pass_name=optimization.name,
                    rules_before=before,
                    rules_after=after,
                    changed=changed,
                )
            )
            current = result
            unchanged = 0 if changed else unchanged + 1
            if unchanged == len(passes):
                break
        return current
