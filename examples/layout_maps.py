"""Layout feature maps (paper Fig. 5) as ASCII art.

Prints the three CNN input channels — cell density, RUDY, macro region —
for two designs, showing how strongly designs differ.

    python examples/layout_maps.py
"""

import numpy as np

from repro.flow import FlowConfig, run_flow

SIDE = 16
SHADES = " .:-=+*#%@"


def ascii_map(map2d: np.ndarray) -> list:
    m, n = map2d.shape
    ds = map2d.reshape(SIDE, m // SIDE, SIDE, n // SIDE).mean(axis=(1, 3))
    ds = ds / max(ds.max(), 1e-9)
    return ["".join(SHADES[int(v * (len(SHADES) - 1))] for v in ds[:, j])
            for j in reversed(range(SIDE))]


def main() -> None:
    for name in ("rocket", "or1200"):
        flow = run_flow(name, FlowConfig())
        maps = flow.input_maps
        print(f"\n=== {name} ===   cell density         RUDY"
              "                 macro")
        rows = zip(ascii_map(maps.cell_density), ascii_map(maps.rudy),
                   ascii_map(maps.macro))
        for a, b, c in rows:
            print(f"   {a}   {b}   {c}")
        free = maps.free_space()
        print(f"free space for the optimizer: mean {free.mean():.2f}, "
              f"{(free < 0.1).mean():.0%} of bins frozen")


if __name__ == "__main__":
    main()
