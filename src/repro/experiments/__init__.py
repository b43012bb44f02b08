"""Figure/table regeneration harness.

One module per paper figure (see DESIGN.md Section 4 for the index):

* :mod:`.figure4` — overall results, 4 apps x {2,4,8} nodes.
* :mod:`.figure5` — Jacobi, multiple redistribution points.
* :mod:`.figure6` — SOR node removal, {8,16,32} nodes, 1-3 CPs.
* :mod:`.figure7` — particle simulation, grace period 1 vs 5.
* :mod:`.memalloc` — Figure 3's allocation-method comparison.
* :mod:`.synthetic` — tech-report ablations (balancing, monitoring).
"""

from .figure4 import Figure4Row, cg_4node_narrative, format_figure4, run_figure4
from .figure5 import Figure5Cell, format_figure5, run_figure5
from .figure6 import Figure6Cell, format_figure6, run_figure6
from .figure7 import Figure7Cell, format_figure7, run_figure7
from .harness import bench_scale, scaled, scaled_spec, steady_state_cycle_time
from .memalloc import MemAllocRow, format_memalloc, run_memalloc
from .report import format_table, print_table
from .synthetic import (
    BalanceAblationRow,
    MonitorAblationRow,
    format_balance_ablation,
    format_monitor_ablation,
    run_balance_ablation,
    run_monitor_ablation,
)

__all__ = [
    "run_figure4", "format_figure4", "Figure4Row", "cg_4node_narrative",
    "run_figure5", "format_figure5", "Figure5Cell",
    "run_figure6", "format_figure6", "Figure6Cell",
    "run_figure7", "format_figure7", "Figure7Cell",
    "run_memalloc", "format_memalloc", "MemAllocRow",
    "run_balance_ablation", "format_balance_ablation", "BalanceAblationRow",
    "run_monitor_ablation", "format_monitor_ablation", "MonitorAblationRow",
    "bench_scale", "scaled", "scaled_spec",
    "steady_state_cycle_time", "format_table", "print_table",
]
