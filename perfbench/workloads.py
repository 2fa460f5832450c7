"""Workload definitions: the scenario each benchmark run hands to permitsim.

A workload fixes the subcommand function, the problem size and the policy
set.  The benchmark seed becomes ``simulation.seed`` of the generated
config and is the only input that varies between runs; permitsim never
sees the benchmark's own arguments.

This module must not import numpy or permitsim: the child process times
``import permitsim`` as part of set-up.
"""

from __future__ import annotations

from dataclasses import dataclass

PRESET = "paper-2020-base"

#: Config seed of the warm-up run, whose outputs are compared with the
#: recorded reference (``reference.json``) at same-seed tolerance.
REFERENCE_SEED = 2020

#: The kinds ``simulate --policy all`` runs, in the CLI's order.
STANDARD_KINDS = ("optimal_dynamic", "static", "msr", "tax")


def log_spaced(lo_exp: float, hi_exp: float, count: int) -> tuple[float, ...]:
    """``count`` values from 10**lo_exp to 10**hi_exp, evenly spaced in log."""
    step = (hi_exp - lo_exp) / (count - 1)
    return tuple(10.0 ** (lo_exp + i * step) for i in range(count))


@dataclass(frozen=True)
class Workload:
    """One benchmark scenario.

    ``command`` is ``"simulate"`` (``cli.run_simulate`` with ``kinds``) or
    ``"compare"`` (``cli.run_compare`` over ``etas``, which simulates only
    the MSR policy and evaluates the other three in closed form).
    """

    name: str
    command: str
    n_paths: int
    n_steps: int
    kinds: tuple[str, ...] = STANDARD_KINDS
    etas: tuple[float, ...] = ()

    def config(self, seed: int) -> dict:
        """The raw scenario config handed to ``cli.build_scenario``."""
        return {
            "preset": PRESET,
            "simulation": {"n_paths": self.n_paths, "n_steps": self.n_steps, "seed": seed},
        }

    @property
    def simulated_kinds(self) -> tuple[str, ...]:
        return ("msr",) if self.command == "compare" else self.kinds

    @property
    def passes(self) -> int:
        """Policy-ensemble passes per run: one per simulated kind (and eta)."""
        if self.command == "compare":
            return len(self.etas)
        return len(self.kinds)

    @property
    def path_steps(self) -> int:
        """Simulated path-steps per run, summed over every pass."""
        return self.n_paths * self.n_steps * self.passes

    def params(self) -> dict:
        return {
            "name": self.name,
            "command": self.command,
            "preset": PRESET,
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "kinds": list(self.simulated_kinds),
            "etas": list(self.etas),
            "path_steps": self.path_steps,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="simulate-all",
            command="simulate",
            n_paths=1024,
            n_steps=2000,
        ),
        Workload(
            name="sweep-eta",
            command="compare",
            n_paths=1000,
            n_steps=300,
            etas=log_spaced(6.0, 9.0, 13),
        ),
        Workload(
            name="short-paths",
            command="simulate",
            n_paths=20000,
            n_steps=50,
        ),
    )
}
