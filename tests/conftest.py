"""Shared fixtures: solved trajectories are expensive, so session-scoped."""

import numpy as np
import pytest

from pmaflow import FlowParams, RhsSpec, TorusGrid, solve_flow
from pmaflow.manufactured import ManufacturedSolution


@pytest.fixture
def forward_transforms(monkeypatch):
    """The shapes of the forward transforms, `TorusGrid.rfftn` calls, made
    during the test."""
    calls = []
    rfftn = TorusGrid.rfftn

    def counting(self, a):
        calls.append(np.shape(a))
        return rfftn(self, a)

    monkeypatch.setattr(TorusGrid, "rfftn", counting)
    return calls


@pytest.fixture(scope="session")
def grid32():
    return TorusGrid(1, 32)


@pytest.fixture(scope="session")
def grid64():
    return TorusGrid(1, 64)


@pytest.fixture(scope="session")
def grid2d():
    return TorusGrid(2, 12)


@pytest.fixture(scope="session")
def trivial_flow(grid32):
    """F = 0, phi_0 = 0 on [0, 1]; the solution is phi = -t exactly."""
    params = FlowParams(T=1.0, dt=0.01)
    traj = solve_flow(grid32.constant_field(0.0), RhsSpec.zero(), params)
    eF, F = RhsSpec.zero().sample(grid32, traj.times)
    return traj, eF, F, params


@pytest.fixture(scope="session")
def curved_manufactured(grid64):
    """Time-curved manufactured run: genuine O(dt) temporal error."""
    ms = ManufacturedSolution(grid64, curvature=1.0)
    params = FlowParams(T=0.15, dt=0.15 / 16)
    traj = solve_flow(grid64.constant_field(0.0), ms, params)
    return ms, traj, params


@pytest.fixture(scope="session")
def generic_flow(grid32):
    """Spatially varying data: smooth_product rhs from a cos mode."""

    def spatial(x, y):
        return 0.4 * np.cos(2.0 * np.pi * x)

    rhs = RhsSpec.smooth_product(spatial, lambda t: np.exp(-t), p0=2.0)
    params = FlowParams(T=0.5, dt=1.0 / 64)
    traj = solve_flow(grid32.constant_field(0.0), rhs, params)
    eF, F = rhs.sample(grid32, traj.times)
    return traj, eF, F, rhs, params
