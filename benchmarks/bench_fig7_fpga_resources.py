"""Figure 7: FPGA resource utilization vs number of ports.

Paper series: DumbNet LUT/register counts grow from ~1.7K/1.5K at 4
ports toward ~25-30K at 30+ ports; the 4-port NetFPGA OpenFlow
reference point is 16,070 LUTs / 17,193 registers ("we can dedicate
most of the chip area to the switching fabric... instead of lookup
tables and control logics").
"""

from repro.analysis import render_table
from repro.hardware import (
    DUMBNET_VERILOG_LINES,
    dumbnet_switch_resources,
    openflow_switch_resources,
    reduction_factor,
)

from _util import publish

PORT_SWEEP = (2, 4, 8, 16, 24, 32)


def sweep():
    rows = []
    for ports in PORT_SWEEP:
        dumb = dumbnet_switch_resources(ports)
        of = openflow_switch_resources(ports)
        rows.append(
            (
                ports,
                dumb.luts,
                dumb.registers,
                of.luts,
                of.registers,
                f"{reduction_factor(ports):.1f}x",
            )
        )
    return rows


def render(rows):
    """The committed ``fig7_fpga_resources.txt`` table for ``rows``."""
    return render_table(
        [
            "Ports",
            "DumbNet LUTs",
            "DumbNet regs",
            "OpenFlow LUTs",
            "OpenFlow regs",
            "Reduction",
        ],
        rows,
        title=(
            "Figure 7: FPGA resource model "
            f"(DumbNet switch is {DUMBNET_VERILOG_LINES} lines of Verilog)"
        ),
    )


def test_fig7_fpga_resources(benchmark):
    rows = benchmark(sweep)
    publish("fig7_fpga_resources", render(rows))

    by_ports = {r[0]: r for r in rows}
    # The paper's calibration point is exact.
    assert by_ports[4][1] == 1713 and by_ports[4][2] == 1504
    assert by_ports[4][3] == 16070 and by_ports[4][4] == 17193
    # ~90% reduction at 4 ports.
    assert reduction_factor(4) > 9
    # Figure 7 scale: ~25-30K elements around 32 ports.
    assert 15_000 < by_ports[32][1] < 35_000
