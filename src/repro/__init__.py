"""repro — reproduction of middleware-level dynamic green scheduling.

This package reproduces the system described in

    Balouek-Thomert, Caron, Lefèvre.
    "Energy-Aware Server Provisioning by Introducing Middleware-Level
    Dynamic Green Scheduling", HPPAC / IPDPSW 2015.

The package is organised as a stack of substrates with the paper's
contribution on top:

``repro.infrastructure``
    Models of heterogeneous servers, clusters and platforms: FLOPS,
    cores, idle/peak power, boot cost, wattmeter sampling, thermal and
    electricity-cost environments.

``repro.simulation``
    A small discrete-event simulation engine, task/queue models and
    metric collection (makespan, energy, per-node task counts).

``repro.workload``
    Synthetic workload generators reproducing the paper's burst +
    continuous request pattern and CPU-bound task definition.

``repro.middleware``
    An in-process model of the DIET middleware: server daemons (SeD),
    agent hierarchies (Master Agent / Local Agents), estimation vectors
    and plug-in schedulers.

``repro.core``
    The paper's contribution: the GreenPerf metric, provider/user
    preference model, the score function Sc, the greedy candidate
    selection (Algorithm 1) and the adaptive provisioning planner that
    reacts to energy-related events.

``repro.lab``
    The experiment-assembly layer: a :class:`~repro.lab.session.LabSession`
    composes platform × workload × policy × provisioning × timeline,
    validates the combination once and runs it through one shared path —
    any trace and any timeline are legal in any experiment family.

``repro.experiments``
    Ready-to-run reproductions of every table and figure in the paper's
    evaluation section, as thin post-processing over lab runs.

``repro.scenario``
    Declarative event timelines and fault injection: typed events
    (tariff changes, thermal excursions, node crash/recovery, workload
    bursts), TOML/JSON timeline files, seeded generators, and the wiring
    that schedules them alongside task events — the open scenario space
    behind ``repro sweep --timeline``.

``repro.runner``
    Declarative scenario sweeps over the experiments: frozen
    ``ScenarioSpec`` grids with deterministic content hashes, a
    process-pool executor that fans scenarios out across cores, and a
    JSONL result store that turns repeated sweeps into incremental work.
"""

import importlib
import sys

__all__ = ["__version__"]


def lazy_exports(package: str, exports: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) resolving ``package``'s public names.

    ``exports`` maps each public name to the module defining it.  That
    module is imported the first time the name is read, and the value is
    then cached on the package, so importing a package costs nothing
    until one of its names is used.

    >>> from repro.core import policy_by_name
    >>> policy_by_name.__module__
    'repro.core.policies'
    """

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


__getattr__ = lazy_exports(__name__, {"__version__": "repro._version"})
