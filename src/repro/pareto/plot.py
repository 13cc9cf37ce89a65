"""Text-mode plotting of cost-damage Pareto fronts.

The paper's Figures 3 and 6 are scatter/step plots of Pareto fronts.  This
module renders the same pictures as ASCII art so that fronts can be eyeballed
in a terminal, in CI logs and in EXPERIMENTS.md without a plotting stack.

The renderer draws the non-dominated points as ``●`` and — because the front
of a cost-damage problem is a step function (any budget between two optimal
costs buys the damage of the cheaper one) — the dominated staircase region
as ``·``.
"""

from __future__ import annotations

from typing import List

from .front import ParetoFront

__all__ = ["ascii_front"]


def _scale(value: float, low: float, high: float, size: int) -> int:
    """Map ``value`` in [low, high] to a cell index in [0, size-1]."""
    if high <= low:
        return 0
    position = (value - low) / (high - low)
    return min(size - 1, max(0, int(round(position * (size - 1)))))


def ascii_front(
    front: ParetoFront,
    width: int = 60,
    height: int = 18,
    title: str = "",
    marker: str = "●",
) -> str:
    """Render a Pareto front as an ASCII scatter-with-staircase plot.

    Parameters
    ----------
    front:
        The front to draw.
    width, height:
        Plot area in character cells (excluding axes).
    title:
        Optional caption printed above the plot.
    marker:
        Character used for the Pareto points themselves.
    """
    values = front.values()
    if not values:
        return (title + "\n" if title else "") + "(empty front)"

    max_cost = max(cost for cost, _ in values) or 1.0
    max_damage = max(damage for _, damage in values) or 1.0

    grid: List[List[str]] = [[" "] * width for _ in range(height)]

    # Shade the dominated staircase: for each column the damage achievable
    # with that budget.
    for column in range(width):
        budget = max_cost * column / (width - 1) if width > 1 else max_cost
        achievable = front.max_damage_given_cost(budget)
        if achievable is None:
            continue
        top_row = _scale(achievable, 0.0, max_damage, height)
        for row in range(top_row + 1):
            grid[row][column] = "·"

    for cost, damage in values:
        column = _scale(cost, 0.0, max_cost, width)
        row = _scale(damage, 0.0, max_damage, height)
        grid[row][column] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    label_width = max(len(f"{max_damage:g}"), len("0"))
    for row in range(height - 1, -1, -1):
        if row == height - 1:
            label = f"{max_damage:g}".rjust(label_width)
        elif row == 0:
            label = "0".rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |" + "".join(grid[row]))
    lines.append(" " * label_width + "-" * (width + 2))
    axis = f"0{' ' * (width - len(f'{max_cost:g}') - 1)}{max_cost:g}"
    lines.append(" " * (label_width + 2) + axis)
    lines.append(" " * (label_width + 2) + "cost →  (damage ↑)")
    return "\n".join(lines)

