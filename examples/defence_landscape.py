#!/usr/bin/env python3
"""The whole defence landscape on one screen.

Reproduces Section 2.3's survey quantitatively -- every pre-existing
mitigation's defence count over the 24 Table 2 rows -- and extends it with
this reproduction's additional studies: the large-page software mitigation
and the two-level-hierarchy analysis showing why the paper's "can be
applied to other levels of TLB" remark matters.

Run with:  python examples/defence_landscape.py
"""

from repro.ablations import (
    format_hierarchy_results,
    format_large_page_comparison,
    format_mitigation_ladder,
)
from repro.runner import run_experiment

TRIALS = 30


def main() -> None:
    print("== Section 2.3's mitigation ladder, measured ==")
    ladder = run_experiment("mitigations", {"mitigation_trials": TRIALS})
    print(format_mitigation_ladder(ladder))

    print("\n== the large-page software mitigation ==")
    large_pages = run_experiment("largepages", {"largepage_trials": TRIALS})
    print(format_large_page_comparison(large_pages, 10, 13))
    print(
        "(Caveat: superpage demotion -- e.g. an mprotect splitting the\n"
        " 2 MiB mapping -- silently restores the 4 KiB attack surface.)"
    )

    print("\n== protecting one TLB level is not enough ==")
    hierarchies = run_experiment("hierarchy", {"hierarchy_trials": TRIALS})
    print(format_hierarchy_results(hierarchies))
    print(
        "\nThe victim's translations reach the L2 on the walk path even\n"
        "when a Random-Fill L1 refuses to cache them, so the secure design\n"
        "must cover every level -- exactly the paper's Section 4 remark."
    )


if __name__ == "__main__":
    main()
