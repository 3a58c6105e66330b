"""Layered benchmark of nlrouter: workloads, output checks and a layer tracer."""
