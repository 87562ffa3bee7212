"""Repository benchmark: seeded workloads of run specs, timed end to end
and, in a separate traced run, layer by layer (see ``README.md``)."""
