"""Cellular GA: watch good genes diffuse across the grid.

Runs a fine-grained GA on OneMax, prints an ASCII heat-map of the fitness
grid every few sweeps, then compares takeover times of the five update
policies (Giacobini et al. 2003).

Run:  python examples/cellular_diffusion.py
"""

import numpy as np

from repro import CellularGA, GAConfig
from repro.metrics import cellular_growth_curve
from repro.parallel import UPDATE_POLICIES
from repro.problems import OneMax

SHADES = " .:-=+*#%@"


def heatmap(grid: np.ndarray) -> str:
    lo, hi = grid.min(), grid.max()
    span = (hi - lo) or 1.0
    rows = []
    for r in range(grid.shape[0]):
        rows.append(
            "".join(
                SHADES[min(len(SHADES) - 1, int((v - lo) / span * (len(SHADES) - 1)))]
                for v in grid[r]
            )
        )
    return "\n".join(rows)


def main() -> None:
    problem = OneMax(48)
    cga = CellularGA(
        problem,
        GAConfig(elitism=0),
        rows=16,
        cols=32,
        update="new-random-sweep",
        seed=7,
    )
    cga.initialize()
    for sweep in (0, 3, 8, 15):
        while cga.state.generation < sweep:
            cga.step()
        print(f"--- fitness grid after sweep {cga.state.generation} "
              f"(best {cga.best_so_far.fitness:.0f}/{problem.optimum:.0f}) ---")
        print(heatmap(cga.fitness_grid()))
        print()

    print("takeover time by update policy (32x32 torus, selection only):")
    for policy in UPDATE_POLICIES:
        curve = cellular_growth_curve(32, 32, update=policy, seed=1)
        print(f"  {policy:20s} {curve.takeover} sweeps")
    print(
        "\nAsynchronous sweeps take over faster than synchronous lock-step "
        "— the Giacobini/Alba/Tomassini selection-pressure ordering."
    )


if __name__ == "__main__":
    main()
