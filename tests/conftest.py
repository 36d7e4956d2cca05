"""Shared fixtures: the paper's running example, available to every test,
and the seam that swaps the DPLL oracle into the SAT pipeline."""

from __future__ import annotations

import pytest

from oracles import IncrementalDPLL
from repro.core import satpipeline
from repro.scenarios.flights import (
    example_query,
    flights_instance,
    graph_g1,
    graph_g2,
    graph_g3,
    setting_no_constraints,
    setting_omega,
    setting_omega_prime,
)


@pytest.fixture
def instance():
    """The Example 2.2 source instance I (two flights, three stops)."""
    return flights_instance()


@pytest.fixture
def omega():
    """Ω = (R, Σ, M_st, {hotel egd})."""
    return setting_omega()


@pytest.fixture
def omega_prime():
    """Ω′ = (R, Σ, M_st, {hotel sameAs})."""
    return setting_omega_prime()


@pytest.fixture
def omega_free():
    """The constraint-free setting of Example 3.2."""
    return setting_no_constraints()


@pytest.fixture
def g1():
    """Figure 1(a)."""
    return graph_g1()


@pytest.fixture
def g2():
    """Figure 1(b)."""
    return graph_g2()


@pytest.fixture
def g3():
    """Figure 1(c)."""
    return graph_g3()


@pytest.fixture
def query_q():
    """Q = f·f*[h]·f⁻·(f⁻)*."""
    return example_query()


@pytest.fixture
def dpll_pipelines(monkeypatch):
    """Build every SAT pipeline of the test on the DPLL oracle.

    Pipelines are cached by (setting, instance) value only, so a warm
    CDCL-built pipeline would otherwise answer the test and compare CDCL
    with itself: the cache is cleared before the swap and again after.
    """
    satpipeline.clear_pipelines()
    monkeypatch.setattr(satpipeline, "CDCLSolver", IncrementalDPLL)
    yield
    satpipeline.clear_pipelines()
