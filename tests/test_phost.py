"""pHost-style receiver-driven transport tests."""

import pytest

from repro.core.ecn import EcnSwitch
from repro.core.fabric import DumbNetFabric
from repro.core.phost import PHostEndpoint
from repro.netsim import LinkSpec
from repro.topology import leaf_spine


def build_fabric(link_bps=1e9, switch_cls=None, hosts_per_leaf=6):
    topo = leaf_spine(2, 2, hosts_per_leaf, num_ports=32)
    spec = LinkSpec(bandwidth_bps=link_bps, latency_s=2e-6)
    fabric = DumbNetFabric(
        topo, controller_host="h0_0", seed=8,
        link_spec=spec, switch_cls=switch_cls,
    )
    fabric.adopt_blueprint()
    return fabric


def endpoints(fabric, hosts, link_bps=1e9):
    return {
        h: PHostEndpoint(fabric.agents[h], downlink_bps=link_bps)
        for h in hosts
    }


class TestBasicTransfer:
    def test_single_transfer_completes(self):
        fabric = build_fabric()
        eps = endpoints(fabric, ["h0_1", "h1_1"])
        fabric.warm_paths([("h0_1", "h1_1"), ("h1_1", "h0_1")])
        done = []
        eps["h0_1"].transfer("h1_1", 20, on_complete=done.append)
        fabric.run_until_idle()
        assert done and done[0].packets == 20
        assert done[0].duration_s > 0

    def test_transfer_paced_at_downlink(self):
        """20 packets at 1 Gbps downlink: at least 20 token intervals."""
        fabric = build_fabric(link_bps=1e9)
        eps = endpoints(fabric, ["h0_1", "h1_1"], link_bps=1e9)
        fabric.warm_paths([("h0_1", "h1_1"), ("h1_1", "h0_1")])
        done = []
        eps["h0_1"].transfer("h1_1", 20, on_complete=done.append)
        fabric.run_until_idle()
        ideal = 20 * 1450 * 8 / 1e9
        assert done[0].duration_s >= ideal * 0.9

    def test_invalid_transfer_rejected(self):
        fabric = build_fabric()
        eps = endpoints(fabric, ["h0_1"])
        with pytest.raises(ValueError):
            eps["h0_1"].transfer("h1_1", 0)

    def test_non_phost_traffic_passes_through(self):
        fabric = build_fabric()
        seen = []
        fabric.agents["h1_1"].app_receive = lambda s, p, t: seen.append(p)
        PHostEndpoint(fabric.agents["h1_1"])
        fabric.warm_paths([("h0_1", "h1_1")])
        fabric.agents["h0_1"].send_app("h1_1", "plain payload")
        fabric.run_until_idle()
        assert "plain payload" in seen


class TestIncastBehaviour:
    def _run_incast(self, switch_cls=None):
        fabric = build_fabric(link_bps=1e9, switch_cls=switch_cls)
        senders = ["h0_1", "h0_2", "h0_3", "h0_4", "h0_5"]
        sink = "h1_1"
        eps = endpoints(fabric, senders + [sink], link_bps=1e9)
        pairs = [(s, sink) for s in senders] + [(sink, s) for s in senders]
        fabric.warm_paths(pairs)
        done = []
        for s in senders:
            eps[s].transfer(sink, 12, on_complete=done.append)
        fabric.run_until_idle()
        return fabric, done

    def test_all_senders_complete(self):
        _fabric, done = self._run_incast()
        assert len(done) == 5
        assert all(d.packets == 12 for d in done)

    def test_aggregate_near_ideal(self):
        """60 packets through one 1 Gbps downlink: ~0.7 ms ideal; the
        receiver-paced schedule should be within 2x of it."""
        _fabric, done = self._run_incast()
        finish = max(d.duration_s for d in done)
        ideal = 60 * 1450 * 8 / 1e9
        assert finish < ideal * 2

    def test_receiver_pacing_tames_marking(self):
        """ECN fabric: pHost incast should mark far fewer packets than
        a simultaneous blast of the same volume."""
        fabric, _done = self._run_incast(switch_cls=EcnSwitch)
        phost_marks = sum(
            sw.packets_marked for sw in fabric.network.switches.values()
        )

        # The blast: same packets, no pacing.
        blast = build_fabric(link_bps=1e9, switch_cls=EcnSwitch)
        senders = ["h0_1", "h0_2", "h0_3", "h0_4", "h0_5"]
        blast.warm_paths([(s, "h1_1") for s in senders])
        for s in senders:
            for i in range(12):
                blast.agents[s].send_app(
                    "h1_1", ("blast", s, i), payload_bytes=1450,
                    flow_key=(s, "h1_1"),
                )
        blast.run_until_idle()
        blast_marks = sum(
            sw.packets_marked for sw in blast.network.switches.values()
        )
        assert blast_marks > 0
        assert phost_marks < blast_marks / 2

    def test_srpt_favors_short_messages(self):
        """A 4-packet message granted alongside a 40-packet one should
        finish much earlier than the big one (shortest-remaining-first)."""
        fabric = build_fabric(link_bps=1e9)
        eps = endpoints(
            fabric, ["h0_1", "h0_2", "h1_1"], link_bps=1e9
        )
        fabric.warm_paths(
            [("h0_1", "h1_1"), ("h0_2", "h1_1"),
             ("h1_1", "h0_1"), ("h1_1", "h0_2")]
        )
        finished = {}
        eps["h0_1"].transfer(
            "h1_1", 40, on_complete=lambda s: finished.setdefault("big", s)
        )
        eps["h0_2"].transfer(
            "h1_1", 4, on_complete=lambda s: finished.setdefault("small", s)
        )
        fabric.run_until_idle()
        assert finished["small"].duration_s < finished["big"].duration_s / 2
