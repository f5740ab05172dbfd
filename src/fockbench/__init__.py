"""Numerical workbench for sl_n(C) gauge fields on discretized local charts."""

from . import chart, cli, connection, fiber, fockpoint, hcsflow, solver
from .chart import (
    BeltramiField,
    Chart,
    CovectorField,
    LieForm,
    ScalarField,
    disk_chart,
    periodic_chart,
)
from .connection import HermitianField
from .fockpoint import FockPoint
from .solver import FuchsianData, NewtonConfig

__version__ = "0.1.0"

__all__ = [
    "chart",
    "cli",
    "connection",
    "fiber",
    "fockpoint",
    "hcsflow",
    "solver",
    "BeltramiField",
    "Chart",
    "CovectorField",
    "LieForm",
    "ScalarField",
    "disk_chart",
    "periodic_chart",
    "HermitianField",
    "FockPoint",
    "FuchsianData",
    "NewtonConfig",
]
