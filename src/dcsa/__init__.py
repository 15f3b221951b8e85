"""Decentralized stochastic approximation over communication graphs with
Markovian data sources, with built-in convergence-rate diagnostics."""

__version__ = "0.1.0"
