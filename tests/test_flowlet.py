"""Flowlet-based traffic engineering tests (Section 6.2)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.fabric import DumbNetFabric
from repro.core.flowlet import FlowletRouter, install_flowlet_routing
from repro.topology import leaf_spine


@pytest.fixture
def fabric():
    topo = leaf_spine(spines=4, leaves=2, hosts_per_leaf=2, num_ports=16)
    fab = DumbNetFabric(topo, controller_host="h0_0", seed=21)
    fab.adopt_blueprint()
    fab.warm_paths([("h0_1", "h1_0")])
    return fab


class TestFlowletRouter:
    def test_same_flowlet_same_path(self, fabric):
        agent = fabric.agents["h0_1"]
        router = install_flowlet_routing(agent, gap_s=1.0)
        first = router(agent, "h1_0", "flowA")
        for _ in range(10):
            assert router(agent, "h1_0", "flowA") == first
        assert router.flowlets_started == 1

    def test_gap_starts_new_flowlet(self, fabric):
        agent = fabric.agents["h0_1"]
        router = install_flowlet_routing(agent, gap_s=0.001)
        router(agent, "h1_0", "flowA")
        fabric.loop.schedule(0.01, lambda: None)
        fabric.run_until_idle()  # advance the clock past the gap
        router(agent, "h1_0", "flowA")
        assert router.flowlets_started == 2

    def test_flowlets_spread_over_k_paths(self, fabric):
        agent = fabric.agents["h0_1"]
        router = install_flowlet_routing(agent, gap_s=0.0)
        chosen = set()
        for i in range(40):
            # Zero gap: every call is a new flowlet.
            fabric.loop.schedule(1e-6, lambda: None)
            fabric.run_until_idle()
            path = router(agent, "h1_0", "flowA")
            chosen.add(path.tags)
        # 4 spines -> 4 distinct primaries cached; expect real spread.
        assert len(chosen) >= 3

    def test_distinct_flows_independent(self, fabric):
        agent = fabric.agents["h0_1"]
        router = install_flowlet_routing(agent, gap_s=10.0)
        paths = {router(agent, "h1_0", f"flow{i}").tags for i in range(30)}
        assert len(paths) >= 2

    def test_uncached_destination_falls_back(self, fabric):
        agent = fabric.agents["h0_1"]
        router = install_flowlet_routing(agent)
        assert router(agent, "h1_1", "f") is None  # not warmed

    def test_integrated_send_uses_flowlet_paths(self, fabric):
        agent = fabric.agents["h0_1"]
        install_flowlet_routing(agent, gap_s=1e-9)
        for i in range(20):
            agent.send_app("h1_0", ("pkt", i), flow_key="bigflow")
            fabric.run_until_idle()
        dst = fabric.agents["h1_0"]
        received = [d[2] for d in dst.delivered if isinstance(d[2], tuple) and d[2][0] == "pkt"]
        assert len(received) == 20

    def test_deterministic_choice(self, fabric):
        agent = fabric.agents["h0_1"]
        router = FlowletRouter(agent)
        k = 4
        picks = [router._pick("h1_0", "f", fl, k) for fl in range(10)]
        again = [router._pick("h1_0", "f", fl, k) for fl in range(10)]
        assert picks == again

    def test_same_picks_under_any_hash_seed(self):
        """The pick digests the flowlet, not ``hash()`` (string hashes
        are salted per process): two interpreters with different hash
        seeds route the same flowlets over the same paths."""
        script = (
            "from repro.core.fabric import DumbNetFabric\n"
            "from repro.core.flowlet import install_flowlet_routing\n"
            "from repro.topology import leaf_spine\n"
            "topo = leaf_spine(spines=4, leaves=2, hosts_per_leaf=2, num_ports=16)\n"
            "fab = DumbNetFabric(topo, controller_host='h0_0', seed=21)\n"
            "fab.adopt_blueprint()\n"
            "fab.warm_paths([('h0_1', 'h1_0')])\n"
            "agent = fab.agents['h0_1']\n"
            "router = install_flowlet_routing(agent)\n"
            "keys = ['flowA', ('tcp', 'h0_1', 80), 7]\n"
            "print([router._pick('h1_0', key, fl, 4) for key in keys for fl in range(8)])\n"
            "print([router(agent, 'h1_0', f'flow{i}').tags for i in range(16)])\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(run.stdout)
        picks = json.loads(outputs[0].splitlines()[0])
        assert len(set(picks)) > 1
        assert outputs[0] == outputs[1]
